"""Thrsh's greedy as it stood before the ranking was computed once for
every imputed group.

It takes each group's lower-bound items with one pass per group and then
walks the items by utility one at a time, counting each group's picks.
The library's ``selectors.thrsh`` must return the same mask, byte for
byte, or raise InfeasibleError where this does; ``tests/test_selectors.py``
checks that with hypothesis. This is a test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.core import ConstraintSet, InfeasibleError, Instance, Selection, UnsupportedError
from fairselect.selectors import _check_imputed, _integer_bounds


def reference_thrsh(inst: Instance, cs: ConstraintSet, imputed: np.ndarray) -> Selection:
    """Exact optimum of the count-bounded problem on the ``imputed`` groups,
    by the item-at-a-time greedy."""
    if inst.s != 1:
        raise UnsupportedError("thrsh supports one attribute; for s > 1 run fair_expec")
    p = inst.p[0]
    groups = _check_imputed(imputed, inst.m, p)
    lo, hi = _integer_bounds(cs)
    sizes = np.bincount(groups, minlength=p)
    caps = np.minimum(hi, sizes)
    if np.any(lo > caps) or int(lo.sum()) > inst.n or int(caps.sum()) < inst.n:
        raise InfeasibleError("imputed group bounds admit no size-n selection")

    order = np.argsort(-inst.utilities, kind="stable")
    taken = np.zeros(inst.m, dtype=bool)
    counts = np.zeros(p, dtype=int)
    # lower bounds first: the best lo[g] items of each group
    for g in range(p):
        need = lo[g]
        if need == 0:
            continue
        members = order[groups[order] == g][:need]
        taken[members] = True
        counts[g] = need
    total = int(counts.sum())
    for i in order:
        if total == inst.n:
            break
        g = groups[i]
        if taken[i] or counts[g] >= caps[g]:
            continue
        taken[i] = True
        counts[g] += 1
        total += 1
    return Selection.from_mask(taken, inst.utilities)
