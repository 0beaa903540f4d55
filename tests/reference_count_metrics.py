"""Risk difference, selection lift and selection rates on numpy arrays of
the count vector, as they were computed before the metrics did their
p-sized arithmetic on Python floats.

``tests/test_metrics.py`` checks with hypothesis that the library's public
functions give the same bits, errors and messages, NaN included. This is a
test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np


def _normalized(counts, t, n: int):
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("every target entry must be strictly positive")
    return t, np.asarray(counts, dtype=float) / (n * t)


def risk_difference(counts, t, n: int) -> float:
    t, ratios = _normalized(counts, t, n)
    if np.sum(counts) != n:
        raise ValueError("risk difference is defined for selections of size exactly n")
    return float(1.0 - t.min() * (ratios.max() - ratios.min()))


def selection_lift(counts, t, n: int) -> float:
    _, ratios = _normalized(counts, t, n)
    nonzero = ratios[ratios > 0]
    if nonzero.size == 0:
        raise ValueError("no selected items in any group")
    if nonzero.size < ratios.size:
        return 0.0
    return float(nonzero.min() / nonzero.max())


def selection_rates(counts, sizes, n: int, m: int) -> tuple:
    sizes = np.asarray(sizes)
    rates = (np.asarray(counts, dtype=float) / n) * (m / np.maximum(sizes, 1))
    return tuple(np.where(sizes > 0, rates, None).tolist())
