"""Imputation, group-level estimates and within-group ranks as they were
computed before the library worked one group column at a time.

``reference_impute_bayes`` breaks each tied row with its own draw, in item
order; ``reference_estimate_group_level_q`` fills every item's row from a
mask per label and then normalises all m rows; ``reference_group_ranks``
reads the ranks off a cumulative sum of the (m, p) one-hot matrix.
``tests/test_selectors.py`` checks with hypothesis that the library's
``impute_bayes``, ``estimate_group_level_q`` and ``_group_ranks`` give the
same bits. This is a test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.core import Instance, UnsupportedError
from fairselect.seeding import make_rng


def reference_impute_bayes(q: np.ndarray, seed=0, *key: int) -> np.ndarray:
    """The argmax of each row of q, with one draw from the stream
    (seed, *key) per tied row."""
    q = np.asarray(q, dtype=float)
    row_max = q.max(axis=1)
    is_max = q == row_max[:, None]
    picks = np.argmax(is_max, axis=1)
    tied = np.flatnonzero(is_max.sum(axis=1) > 1)
    if tied.size:
        rng = make_rng(seed, *key)
        for i in tied:
            winners = np.flatnonzero(is_max[i])
            picks[i] = winners[rng.integers(winners.size)]
    return picks


def reference_estimate_group_level_q(inst: Instance) -> np.ndarray:
    """Each item's row replaced by the mean row of its noisy-label class
    (the argmax of its own row when there are no labels), normalised."""
    if inst.s != 1:
        raise UnsupportedError("group-level estimates are defined for a single attribute")
    q = inst.noise_matrix(0)
    if inst.noisy_attrs is not None:
        zhat = inst.noisy_attrs[:, 0]
    else:
        zhat = np.argmax(q, axis=1)
    qbar = np.empty_like(q)
    for v in np.unique(zhat):
        members = zhat == v
        qbar[members] = q[members].mean(axis=0)
    qbar /= qbar.sum(axis=1, keepdims=True)
    return qbar


def reference_group_ranks(w: np.ndarray, groups: np.ndarray, p: int):
    """The items by utility descending, lowest index first on ties, and how
    many items of each one's group come before it in that order."""
    order = np.argsort(-w, kind="stable")
    ordered_groups = groups[order]
    in_group = np.cumsum(ordered_groups[:, None] == np.arange(p), axis=0)
    return order, in_group[np.arange(order.size), ordered_groups] - 1
