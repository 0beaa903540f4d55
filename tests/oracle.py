"""Exhaustive ground truth for small instances and concentration checks.

The enumerators are test fixtures, not production paths: they walk every
size-n subset (capped at 10^6 combinations) and check the count bounds
exactly, which pins down the optimum that the LP route must dominate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from fairselect.core import ConstraintSet, Instance
from fairselect.seeding import make_rng

MAX_SUBSETS = 10 ** 6


@dataclass(frozen=True, eq=False)
class OracleResult:
    best_subset: Optional[tuple]  # item indices, None when infeasible
    best_utility: Optional[float]
    feasible_count: int

    @property
    def feasible(self) -> bool:
        return self.best_subset is not None


def _check_size(inst: Instance) -> None:
    if math.comb(inst.m, inst.n) > MAX_SUBSETS:
        raise ValueError(
            f"C({inst.m},{inst.n}) exceeds the {MAX_SUBSETS} subset enumeration cap")


def _enumerate(inst: Instance, feasible) -> OracleResult:
    best: Optional[tuple] = None
    best_u = -np.inf
    count = 0
    w = inst.utilities
    for subset in combinations(range(inst.m), inst.n):
        if not feasible(subset):
            continue
        count += 1
        u = float(w[list(subset)].sum())
        if u > best_u + 1e-12:
            best, best_u = subset, u
    if best is None:
        return OracleResult(best_subset=None, best_utility=None, feasible_count=0)
    return OracleResult(best_subset=best, best_utility=best_u, feasible_count=count)


def brute_force_target(inst: Instance, cs: ConstraintSet) -> OracleResult:
    """Exact optimum over size-n subsets whose true group counts lie in [L, U]."""
    _check_size(inst)
    if inst.true_attrs is None:
        raise ValueError("the target program needs true attributes")

    def feasible(subset) -> bool:
        idx = list(subset)
        for k in range(inst.s):
            counts = np.bincount(inst.true_attrs[idx, k], minlength=inst.p[k])
            if np.any(counts < cs.lower[k] - 1e-9) or np.any(counts > cs.upper[k] + 1e-9):
                return False
        return True

    return _enumerate(inst, feasible)


def brute_force_denoised(inst: Instance, cs: ConstraintSet) -> OracleResult:
    """Exact optimum over size-n subsets whose expected group counts lie in
    [L - delta*n, U + delta*n]."""
    _check_size(inst)
    slack = cs.delta * inst.n

    def feasible(subset) -> bool:
        idx = list(subset)
        for k in range(inst.s):
            expected = inst.noise[k][idx].sum(axis=0)
            if (np.any(expected < cs.lower[k] - slack - 1e-9)
                    or np.any(expected > cs.upper[k] + slack + 1e-9)):
                return False
        return True

    return _enumerate(inst, feasible)


def is_denoised_feasible(x: np.ndarray, inst: Instance, cs: ConstraintSet) -> bool:
    """Whether a selection vector satisfies the expected-count constraints."""
    x = np.asarray(x, dtype=float)
    slack = cs.delta * inst.n
    if abs(x.sum() - inst.n) > 1e-9:
        return False
    for k in range(inst.s):
        expected = inst.noise[k].T @ x
        if (np.any(expected < cs.lower[k] - slack - 1e-9)
                or np.any(expected > cs.upper[k] + slack + 1e-9)):
            return False
    return True


def concentration_trial(x: np.ndarray, q: np.ndarray, delta: float,
                        trials: int, seed) -> float:
    """Empirical frequency of |true count - expected count| > n*delta.

    Each trial draws every item's group independently from its probability
    row and checks the deviation for every group simultaneously. The
    frequency is to be compared against 2p*exp(-delta^2 n / 3) plus
    Monte-Carlo slack.
    """
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    m, p = q.shape
    n = float(x.sum())
    expected = q.T @ x
    rng = make_rng(seed)
    cum = np.cumsum(q, axis=1)
    violations = 0
    chunk = max(1, min(trials, int(4e6) // max(m * p, 1)))
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        u = rng.random((size, m))
        z = (u[:, :, None] > cum[None, :, :]).sum(axis=2)
        for ell in range(p):
            counts = (x[None, :] * (z == ell)).sum(axis=1)
            bad = np.abs(counts - expected[ell]) > n * delta + 1e-12
            if ell == 0:
                any_bad = bad
            else:
                any_bad |= bad
        violations += int(any_bad.sum())
        done += size
    return violations / trials
