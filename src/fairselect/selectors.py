"""Selection algorithms: the LP-and-round approach plus the baselines.

All algorithms are pure given (instance, constraints, seed); stochastic
steps (argmax tie-breaking, rounding) draw from substreams derived with
seeding.make_rng, so runs are reproducible and order-independent.
``ALGORITHMS`` maps each algorithm's name to its solve step, and
``run_algorithm`` runs one by name for ``fairselect select`` and sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .core import ConstraintSet, InfeasibleError, Instance, Selection, UnsupportedError, top_n
from .lp import FRAC_TOL, BfsSolution, SolveStatus, build_denoised_lp, solve_bfs
from .seeding import make_rng


# Both KL arguments of MultObj's penalty are mixed with this much of the
# uniform distribution, so an unselected group does not produce log 0.
KL_EPSILON = 1e-6


def blind(inst: Instance) -> Selection:
    """The n highest-utility items, ignoring all fairness information."""
    chosen = np.zeros(inst.m, dtype=bool)
    chosen[top_n(inst.utilities, inst.n)] = True
    return Selection.from_mask(chosen, inst.utilities)


def denoised_bfs(inst: Instance, cs: ConstraintSet) -> BfsSolution:
    """Optimal vertex of the expected-count relaxation; raises if infeasible."""
    sol = solve_bfs(build_denoised_lp(inst, cs))
    if sol.status is not SolveStatus.OPTIMAL:
        raise InfeasibleError("expected-count constraint system is infeasible")
    return sol


def ceil_round(x: np.ndarray, utilities: np.ndarray) -> Selection:
    """Round every fractional coordinate of x in [0, 1] up to 1.

    Entries below the fractionality tolerance count as 0, so floating-point
    dust cannot select spurious items.
    """
    return Selection.from_mask(np.asarray(x) >= FRAC_TOL, utilities)


def fair_expec(inst: Instance, cs: ConstraintSet) -> Selection:
    """Vertex of the relaxation, ceiling-rounded.

    The result never loses utility relative to the vertex and picks at
    most (number of fractional coordinates) extra items beyond n.
    """
    sol = denoised_bfs(inst, cs)
    return ceil_round(sol.x, inst.utilities)


def estimate_group_level_q(inst: Instance) -> np.ndarray:
    """Group-level probabilities: average the noise rows within each
    noisy-label class, so items sharing a noisy label share an estimate.

    When the instance carries no noisy labels, each item's label is taken
    to be the argmax of its own noise row.
    """
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


def group_level_instance(inst: Instance) -> Instance:
    return replace(inst, noise=(estimate_group_level_q(inst),))


def fair_expec_grp(inst: Instance, cs: ConstraintSet) -> Selection:
    """fair_expec run on the group-level probability estimate."""
    return fair_expec(group_level_instance(inst), cs)


def impute_bayes(q: np.ndarray, seed=0) -> np.ndarray:
    """Each item's imputed group: the argmax of its row of q. Exact ties are
    broken uniformly at random from the seeded stream."""
    q = np.asarray(q, dtype=float)
    rng = make_rng(seed)
    row_max = q.max(axis=1)
    is_max = q == row_max[:, None]
    picks = np.argmax(is_max, axis=1)
    for i in np.flatnonzero(is_max.sum(axis=1) > 1):
        winners = np.flatnonzero(is_max[i])
        picks[i] = winners[rng.integers(winners.size)]
    return picks


def _check_imputed(groups: np.ndarray, m: int, p: int) -> np.ndarray:
    """``groups`` as imputed labels, one per item in [0, p); raises
    ValueError naming what is wrong otherwise."""
    groups = np.asarray(groups)
    if groups.shape != (m,):
        raise ValueError(
            f"imputed groups have shape {groups.shape}, expected one label per item (m={m})")
    if groups.dtype.kind not in "iu":
        raise ValueError(f"imputed groups must be integer labels, not {groups.dtype}")
    if np.any((groups < 0) | (groups >= p)):
        raise ValueError(f"imputed group labels must lie in [0, {p})")
    return groups


def _integer_bounds(cs: ConstraintSet, k: int = 0):
    # integer count window implied by real bounds; 1e-9 guards float dust
    lo = np.ceil(cs.lower[k] - 1e-9).astype(int)
    hi = np.floor(cs.upper[k] + 1e-9).astype(int)
    return np.maximum(lo, 0), hi


def _group_ranks(w: np.ndarray, groups: np.ndarray, p: int):
    """``order``, the items by utility descending with the lowest index
    first on ties, and ``rank``, where ``rank[j]`` is how many items of
    ``order[j]``'s group come before it in that order."""
    order = np.argsort(-w, kind="stable")
    ordered_groups = groups[order]
    in_group = np.cumsum(ordered_groups[:, None] == np.arange(p), axis=0)
    return order, in_group[np.arange(order.size), ordered_groups] - 1


def thrsh(inst: Instance, cs: ConstraintSet, imputed: np.ndarray) -> Selection:
    """Exact optimum of the count-bounded problem on the ``imputed`` groups
    (one label per item, see impute_bayes).

    Greedy: take the ceil(L) best items of each imputed group, then
    repeatedly add the globally best remaining item whose group is still
    below floor(U). The constraints form a partition matroid intersected
    with a cardinality bound, for which this greedy is optimal. It meets
    each group's items in rank order, so it takes every item ranked below
    its group's ceil(L), then the first n - sum(ceil(L)) items by utility
    ranked from there up to the group's cap.
    """
    if inst.s != 1:
        raise UnsupportedError("thrsh supports one attribute; for s > 1 run fair_expec")
    p = inst.p[0]
    groups = _check_imputed(imputed, inst.m, p)
    lo, hi = _integer_bounds(cs)
    caps = np.minimum(hi, np.bincount(groups, minlength=p))
    if np.any(lo > caps) or int(lo.sum()) > inst.n or int(caps.sum()) < inst.n:
        raise InfeasibleError("imputed group bounds admit no size-n selection")

    order, rank = _group_ranks(inst.utilities, groups, p)
    ordered_groups = groups[order]
    floor = rank < lo[ordered_groups]
    extra = ~floor & (rank < caps[ordered_groups])
    extra &= np.cumsum(extra) <= inst.n - int(lo.sum())
    taken = np.zeros(inst.m, dtype=bool)
    taken[order] = floor | extra
    return Selection.from_mask(taken, inst.utilities)


def mult_obj(inst: Instance, target, lambda_: float, imputed: np.ndarray,
             fw_iters: int = 500) -> np.ndarray:
    """Frank-Wolfe on the KL-penalized utility over {x in [0,1]^m: sum x = n},
    with lambda_ the KL penalty weight, target the desired distribution over
    p = len(target) groups and ``imputed`` one group label per item.

    The objective is utility minus lambda_ times the KL divergence between
    the selected imputed distribution and the target, both smoothed by
    KL_EPSILON, times the mean utility. The linear minimization oracle over
    the polytope is "top-n by gradient", so no projection is needed. Step
    size 2/(k+2), and the best-so-far iterate is returned, so more iterations
    never hurt. With lambda_=0 the blind indicator is returned.

    The gradient is w_i - c[g(i)] for a p-vector c, so within a group it
    orders items by utility. The top n therefore lies among each group's
    n best items, and each step searches only those (plus one more per
    group, which shows whether a tie runs past them) instead of sorting m.
    """
    t = np.asarray(target, dtype=float)
    if abs(t.sum() - 1.0) > 1e-9 or np.any(t < 0):
        raise ValueError("target must be a probability vector")
    if not 0.0 <= lambda_ < np.inf:
        raise ValueError("lambda_ must be finite and nonnegative")
    if fw_iters < 1:
        raise ValueError("fw_iters must be positive")
    w = inst.utilities
    m, n, p = inst.m, inst.n, len(t)
    groups = _check_imputed(imputed, m, p)
    x = np.zeros(m)
    x[top_n(w, n)] = 1.0
    if lambda_ == 0.0:
        return x
    eps = KL_EPSILON
    t_s = (1 - eps) * t + eps / p
    mean_w = float(w.sum()) / m
    # |log_ratio| <= log(p / eps), so this bounds the penalty and every gradient
    # entry; Python floats overflow to inf without a numpy warning
    if not math.isfinite(float(w.max()) + lambda_ * (math.log(p / eps) + 1.0) * mean_w):
        raise ValueError(f"lambda_={lambda_:g} is too large: the KL penalty overflows")
    scale = lambda_ * mean_w * (1 - eps) / n
    qprime = np.eye(p)[groups]  # one-hot (m, p), so qprime.T @ x sums x by group
    order, rank = _group_ranks(w, groups, p)
    heads = order[rank <= n]  # each group's n + 1 best items
    head_w, head_g = w[heads], groups[heads]
    cut = heads.size - n

    def log_ratio_and_value(x):
        dist_s = (1 - eps) * (qprime.T @ x / n) + eps / p
        log_ratio = np.log(dist_s / t_s)
        return log_ratio, float(w @ x) - lambda_ * float((dist_s * log_ratio).sum()) * mean_w

    log_ratio, best_val = log_ratio_and_value(x)
    best_x = x
    for it in range(fw_iters):
        c = scale * (log_ratio + 1.0)
        head_grad = head_w - c[head_g]
        tau = np.partition(head_grad, cut)[cut]  # the n-th largest gradient entry
        top = head_grad >= tau
        vertex = np.zeros(m)
        if np.count_nonzero(top) == n:
            vertex[heads[top]] = 1.0
        else:  # a tie at tau, which may run past the heads; the lowest indices win it
            vertex[top_n(w - c[groups], n)] = 1.0
        gamma = 2.0 / (it + 2.0)
        x = x + gamma * (vertex - x)
        log_ratio, val = log_ratio_and_value(x)
        if val > best_val + 1e-12:
            best_x, best_val = x, val
    return best_x


def dependent_round(x: np.ndarray, n: int, seed, utilities: np.ndarray) -> Selection:
    """Round a fractional selection to exactly n items, preserving marginals.

    Systematic sampling over a random permutation: lay the entries out as
    consecutive intervals, then sample the unit grid {u, u+1, ..., u+n-1}.
    Each item's inclusion probability is exactly x_i, and a binary input
    is returned unchanged.
    """
    x = np.asarray(x, dtype=float)
    total = float(x.sum())
    if abs(total - n) > 1e-6:
        raise ValueError(f"entries sum to {total}, expected n={n}")
    rng = make_rng(seed)
    perm = rng.permutation(len(x))
    cum = np.cumsum(x[perm])
    points = rng.random() + np.arange(n)
    idx = np.searchsorted(cum, points, side="right")
    idx = np.minimum(idx, len(x) - 1)
    mask = np.zeros(len(x), dtype=bool)
    mask[perm[idx]] = True
    if np.count_nonzero(mask) != n:  # pragma: no cover
        raise RuntimeError("systematic sampling failed to produce n distinct items")
    return Selection.from_mask(mask, utilities)


# --- one entry point for every algorithm ------------------------------------

CEIL = "ceil"            # round every fractional coordinate up
DEPENDENT = "dependent"  # marginal-preserving rounding to exactly n items


@dataclass(eq=False)
class Problem:
    """One selection problem. The imputed groups (drawn from
    ``imputed_seed``) and the blind selection are computed on first use and
    then shared."""

    inst: Instance
    cs: ConstraintSet
    target: np.ndarray
    imputed_seed: object
    lambda_: float
    fw_iters: int

    @cached_property
    def imputed(self) -> np.ndarray:
        return impute_bayes(self.inst.noise_matrix(0), seed=self.imputed_seed)

    @cached_property
    def blind_selection(self) -> Selection:
        return blind(self.inst)


@dataclass(frozen=True, eq=False)
class Algorithm:
    """``solve`` maps a Problem to a Selection or, if the algorithm has a
    ``rounding`` rule, to a fractional vector. ``imputed_key`` is the spawn
    key of the imputation seed under the seed of one ``select`` run."""

    solve: Callable
    rounding: Optional[str] = None
    imputed_key: int = 0


# The steps are lambdas so that each library function is looked up when the
# step runs; rebinding one (as perfbench/bench_trace.py does) then takes effect.
ALGORITHMS = {
    "Blind": Algorithm(lambda pb: pb.blind_selection),
    "FairExpec": Algorithm(lambda pb: denoised_bfs(pb.inst, pb.cs).x, CEIL),
    "FairExpecGrp": Algorithm(
        lambda pb: denoised_bfs(group_level_instance(pb.inst), pb.cs).x, CEIL),
    "Thrsh": Algorithm(lambda pb: thrsh(pb.inst, pb.cs, pb.imputed)),
    "MultObj": Algorithm(
        lambda pb: mult_obj(pb.inst, pb.target, pb.lambda_, pb.imputed, pb.fw_iters),
        DEPENDENT, imputed_key=17),
}


def run_algorithm(name: str, pb: Problem, round_seed,
                  rounding: Optional[str] = None) -> Selection:
    """Run algorithm ``name`` on ``pb``; raises InfeasibleError like it.

    A fractional solution is rounded with ``rounding`` (CEIL, or DEPENDENT
    drawing from ``round_seed``); None keeps the algorithm's own rule.
    """
    algo = ALGORITHMS[name]
    out = algo.solve(pb)
    if algo.rounding is None:
        return out
    if (rounding or algo.rounding) == CEIL:
        return ceil_round(out, pb.inst.utilities)
    return dependent_round(out, pb.inst.n, round_seed, pb.inst.utilities)
