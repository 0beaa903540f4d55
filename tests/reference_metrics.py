"""Risk difference, selection lift and selection rate as they were computed
before the metrics took one count vector per selection.

Each function counts the selected members of every group again from the
selection mask and the group labels, and ``reference_rates`` takes one
per-group scan pair for each rate. The library's
``metrics.compute_report`` must give the same fields, bit for bit;
``tests/test_metrics.py`` checks that with hypothesis. This is a test
fixture, not a production path.
"""

from __future__ import annotations

import numpy as np


def _selected_counts(selected, groups, p: int) -> np.ndarray:
    return np.bincount(np.asarray(groups, dtype=int)[np.asarray(selected, dtype=bool)],
                       minlength=p).astype(float)


def _check_target(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("every target entry must be strictly positive")
    return t


def risk_difference(selected, groups, t, n: int) -> float:
    t = _check_target(t)
    counts = _selected_counts(selected, groups, len(t))
    if np.count_nonzero(selected) != n:
        raise ValueError("risk difference is defined for selections of size exactly n")
    ratios = counts / (n * t)
    return float(1.0 - t.min() * (ratios.max() - ratios.min()))


def selection_lift(selected, groups, t, n: int) -> float:
    t = _check_target(t)
    counts = _selected_counts(selected, groups, len(t))
    ratios = counts / (n * t)
    nonzero = ratios[ratios > 0]
    if nonzero.size == 0:
        raise ValueError("no selected items in any group")
    if nonzero.size < ratios.size:
        return 0.0
    return float(nonzero.min() / nonzero.max())


def selection_rate(selected, groups, group: int, n: int, m: int) -> float:
    groups = np.asarray(groups, dtype=int)
    size = int(np.sum(groups == group))
    if size == 0:
        raise ValueError(f"group {group} has no members")
    count = float(np.count_nonzero(np.asarray(selected, dtype=bool) & (groups == group)))
    return (count / n) * (m / size)


def reference_rates(selected, groups, p: int, n: int, m: int) -> tuple:
    """One rate per group, None for a group with no members."""
    sizes = np.bincount(np.asarray(groups, dtype=int), minlength=p)
    return tuple(selection_rate(selected, groups, g, n, m) if size else None
                 for g, size in enumerate(sizes))
