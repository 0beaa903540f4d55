"""The generators' draws as they were made before each drew only what it reads.

``reference_truncated_normal`` redraws with ``Generator.normal`` over
full-length masks until no entry is pending; ``reference_cells`` draws the
disparate-utility cells with ``Generator.choice``. ``tests/test_datagen.py``
checks with hypothesis that ``datagen.truncated_normal`` and the cell draw of
``datagen.gen_disparate_utility`` give the same bits and leave the generator
in the same state. This is a test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np


def reference_truncated_normal(rng: np.random.Generator, mean, std, size: int) -> np.ndarray:
    """Normal restricted to [0, 1]: every pending entry redrawn each round."""
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (size,))
    std = np.broadcast_to(np.asarray(std, dtype=float), (size,))
    out = np.where(std > 0, np.nan, np.clip(mean, 0.0, 1.0))
    pending = std > 0
    while np.any(pending):
        draw = rng.normal(mean[pending], std[pending])
        out[pending] = draw
        pending = pending & ((out < 0.0) | (out > 1.0))
    return out


def reference_cells(rng: np.random.Generator, rates, m: int) -> np.ndarray:
    """m cells drawn with probabilities ``rates``."""
    return rng.choice(len(rates), size=m, p=rates)
