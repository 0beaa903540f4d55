"""Utility bins as they were cut before one rank division and one bincount
replaced the per-bin loops.

``_equal_count_bins`` assigns each stretch of the stable utility order to
its bin with one slice per bin, and the estimator counts each bin's labels
with one ``bincount`` per bin. The library's
``datagen.estimate_q_by_utility_bins`` must return the same array, byte for
byte, with the same shape and dtype; ``tests/test_datagen.py`` checks that
with hypothesis. This is a test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.core import Instance


def _equal_count_bins(train_w: np.ndarray, b: int):
    """Sort positions split into b bins; first b-1 bins of equal size,
    the last absorbs the remainder. Returns (assignment, inner edges)."""
    m = len(train_w)
    order = np.argsort(train_w, kind="stable")
    base = m // b
    assignment = np.empty(m, dtype=int)
    starts = [j * base for j in range(b)] + [m]
    for j in range(b):
        assignment[order[starts[j]:starts[j + 1]]] = j
    edges = np.array([train_w[order[starts[j]]] for j in range(1, b)])
    return assignment, edges


def reference_estimate_q_by_utility_bins(inst: Instance, b: int, train: Instance) -> np.ndarray:
    """Probability rows from class frequencies in equal-count utility bins.

    Bin boundaries and per-bin frequencies come from the training instance;
    items of ``inst`` are then assigned to bins by utility value, so items
    in the same bin share a row.
    """
    if train.true_attrs is None:
        raise ValueError("the training instance must carry true attributes")
    if b < 1:
        raise ValueError("need at least one bin")
    if b > train.m:
        raise ValueError(f"cannot split {train.m} items into {b} bins")
    p = train.p[0]
    assignment, edges = _equal_count_bins(train.utilities, b)
    freq = np.empty((b, p))
    labels = train.true_attrs[:, 0]
    for j in range(b):
        members = assignment == j
        freq[j] = np.bincount(labels[members], minlength=p) / members.sum()
    which = np.searchsorted(edges, inst.utilities, side="right")
    return freq[which]

