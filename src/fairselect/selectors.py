"""Selection algorithms: the LP-and-round approach plus the baselines.

All algorithms are pure given (instance, constraints, seed); stochastic
steps (argmax tie-breaking, rounding) draw from substreams derived with
seeding.make_rng, so runs are reproducible and order-independent.
``ALGORITHMS`` maps each algorithm's name to its solve step and the sweep
settings the step reads; ``round_output`` rounds a step's output, and
``run_algorithm`` runs both for ``fairselect select``. A sweep runs the same
two halves, with the step kept per value of the settings it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .core import (ConstraintSet, InfeasibleError, Instance, Selection, UnsupportedError,
                   in_range, probability_vector, stable_order, top_n)
from .lp import FRAC_TOL, BfsSolution, SolveStatus, build_denoised_lp, solve_bfs
from .seeding import make_rng


# Both KL arguments of MultObj's penalty are mixed with this much of the
# uniform distribution, so an unselected group does not produce log 0.
KL_EPSILON = 1e-6
EPS64 = float(np.finfo(float).eps)


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
    # one row per label that occurs, normalised there and then gathered per item
    sizes = np.bincount(zhat)
    labels = np.flatnonzero(sizes)
    means = np.empty((sizes.size, q.shape[1]))
    for v in labels:
        means[v] = q[zhat == v].mean(axis=0)
    means[labels] /= means[labels].sum(axis=1, keepdims=True)
    return means[zhat]


def group_level_instance(inst: Instance) -> Instance:
    return replace(inst, noise=(estimate_group_level_q(inst),))


def impute_bayes(q: np.ndarray, seed=0, *key: int) -> np.ndarray:
    """Each item's imputed group: the argmax of its row of q. Exact ties are
    broken uniformly at random from the stream (seed, *key), which is built
    only when some row has a tie. One call draws every tie, with the values
    that one draw per tied item, in item order, would give."""
    q = np.asarray(q, dtype=float)
    columns = q.T
    row_max = reduce(np.maximum, columns)
    is_max = [column == row_max for column in columns]
    # the first winning group, found from the last column back
    picks = np.zeros(q.shape[0], dtype=np.intp)
    for g in range(len(is_max) - 1, 0, -1):
        picks[is_max[g]] = g
    winners = sum(is_max)
    tied = np.flatnonzero(winners > 1)
    if tied.size:
        hits = q[tied] == row_max[tied, None]
        kth = make_rng(seed, *key).integers(winners[tied])
        picks[tied] = np.argmax(np.cumsum(hits, axis=1) > kth[:, None], axis=1)
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


def _integer_bounds(cs: ConstraintSet):
    # integer count window implied by attribute 0's real bounds; 1e-9 guards float dust
    lo = np.ceil(cs.lower[0] - 1e-9).astype(int)
    hi = np.floor(cs.upper[0] + 1e-9).astype(int)
    return np.maximum(lo, 0), hi


def _group_ranks(w: np.ndarray, groups: np.ndarray, p: int):
    """``order``, the items by utility descending with the lowest index
    first on ties, and ``rank``, where ``rank[j]`` is how many items of
    ``order[j]``'s group come before it in that order."""
    order = stable_order(-w)
    ordered_groups = groups[order]
    rank = np.empty(order.size, dtype=np.intp)
    for g in range(p):
        members = ordered_groups == g
        rank[members] = np.arange(np.count_nonzero(members))
    return order, rank


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
    caps, n = np.minimum(hi, np.bincount(groups, minlength=p)), inst.n
    why = [f"in group {g}, ceil(L) = {lo[g]} > the cap min(floor(U), imputed count) = {caps[g]}"
           for g in np.flatnonzero(lo > caps)]
    if lo.sum() > n:
        why.append(f"the ceil(L) sum to {lo.sum()} > n = {n}")
    if caps.sum() < n:
        why.append(f"the caps min(floor(U), imputed count) sum to {caps.sum()} < n = {n}")
    if why:
        raise InfeasibleError(f"imputed group bounds admit no size-n selection: {'; '.join(why)}")

    order, rank = _group_ranks(inst.utilities, groups, p)
    ordered_groups = groups[order]
    floor = rank < lo[ordered_groups]
    extra = ~floor & (rank < caps[ordered_groups])
    extra &= np.cumsum(extra) <= n - int(lo.sum())
    taken = np.zeros(inst.m, dtype=bool)
    taken[order] = floor | extra
    return Selection.from_mask(taken, inst.utilities)


def mult_obj(inst: Instance, target, lambda_: float, imputed: np.ndarray) -> np.ndarray:
    """The maximizer over {x in [0,1]^m: sum x = n} of the KL-penalized
    utility, with lambda_ the penalty weight, target the desired distribution
    over p = len(target) groups and ``imputed`` one group label per item.

    The objective is utility minus lambda_ times the KL divergence between
    the selected imputed distribution and the target, both smoothed by
    KL_EPSILON, times the mean utility. With lambda_=0, or every utility 0,
    the blind indicator is returned.

    The objective depends on x only through w'x and the group sums g, and
    for fixed g the best x fills each group by utility, so it is concave in
    g. The penalty's derivative in g_l is h(g_l) = scale * (log(d_s/t_s) + 1).
    Item j, ranked k in its group, is the piece of the group's utility from
    g_l = k to k + 1, with slope w_j. At a multiplier nu on sum x = n the
    piece is empty for nu >= w_j - h(k), full for nu <= w_j - h(k + 1), and
    in between filled to d_s = t_s * exp((w_j - nu)/scale - 1). The total
    fill falls continuously as nu rises, so a bisection over these
    breakpoints finds the interval where it passes n, and one closed-form
    step inside it sets the fractional pieces: at most one per group.
    """
    t = probability_vector(target)
    in_range("lambda", lambda_)
    w = inst.utilities
    m, n, p = inst.m, inst.n, len(t)
    groups = _check_imputed(imputed, m, p)
    eps = KL_EPSILON
    scale = 0.0
    if lambda_ > 0.0:  # at 0 the utilities are not summed
        with np.errstate(over="ignore"):
            mean_w = float(w.sum()) / m
        if not math.isfinite(mean_w):
            raise ValueError("utilities sum past the largest float; scale them down")
        # |log(d_s/t_s)| <= log(p / eps), so this bounds the penalty and h
        if not math.isfinite(float(w.max()) + lambda_ * (math.log(p / eps) + 1.0) * mean_w):
            raise ValueError(f"lambda={lambda_:g} is too large: the KL penalty overflows")
        scale = lambda_ * mean_w * (1 - eps) / n
    if scale == 0.0:  # no penalty
        x = np.zeros(m)
        x[top_n(w, n)] = 1.0
        return x
    order, rank = _group_ranks(w, groups, p)
    # a group holds at most n, so its pieces past the n-th never fill
    order, rank = order[rank < n], rank[rank < n]
    w_j = w[order]
    t_j = ((1 - eps) * t + eps / p)[groups[order]]
    d_per_g, d_at_0 = (1 - eps) / n, eps / p  # d_s = d_per_g * g + d_at_0

    def h(g):
        return scale * (np.log((d_per_g * g + d_at_0) / t_j) + 1.0)

    nu_hi, nu_lo = w_j - h(rank), w_j - h(rank + 1)

    def fill(nu, pieces):  # only for pieces with nu in [nu_lo, nu_hi], where exp cannot overflow
        d_s = t_j[pieces] * np.exp((w_j[pieces] - nu) / scale - 1.0)
        return (d_s - d_at_0) / d_per_g - rank[pieces]

    def total(nu):
        return np.count_nonzero(nu_lo >= nu) + fill(nu, (nu_lo < nu) & (nu < nu_hi)).sum()

    cuts = np.sort(np.concatenate([nu_lo, nu_hi, [np.inf]]))
    # At a cut c, total adds to full(c) = #{nu_lo >= c} the fills of the pieces
    # with nu_lo < c < nu_hi, each in [0, 1] up to rounding: at most open(c) =
    # #{nu_lo < c <= max(nu_lo, nu_hi)} of them. While each of the P computed
    # fills is within 1/(4P) of its exact value, they sum to within 1/4 of
    # theirs, so total(c) >= n once full(c) > n, that is once c is at most the
    # (n+1)-th largest nu_lo, and total(c) < n once full(c) + open(c) < n, once c
    # is above the n-th largest max(nu_lo, nu_hi): the counts settle c with
    # total's own branch. A fill is d_s / d_per_g, at most n + 1, times a
    # relative error of a few epsilons per unit of max(w_j) / scale, from the
    # breakpoints, and per unit of log(p / eps) + 1, from h's log and the exp,
    # counted five times over; with 4 for "a few" and 4P for 1/(4P) that gives
    # the guard, and under it every mid runs total.
    pieces = w_j.size  # at least n, since m is
    spread = float(w_j.max()) + 5 * scale * (math.log(p / eps) + 1.0)
    if 16 * (n + 1) * pieces * EPS64 * spread < scale:
        sure_lo = np.partition(nu_lo, pieces - n - 1)[pieces - n - 1] if pieces > n else -np.inf
        sure_hi = np.partition(np.maximum(nu_lo, nu_hi), pieces - n)[pieces - n]
    else:
        sure_lo, sure_hi = -np.inf, np.inf
    lo, hi = 0, cuts.size - 1  # total(cuts[lo]) >= n > total(cuts[hi]); every piece is full at lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cuts[mid] <= sure_lo or (cuts[mid] <= sure_hi and total(cuts[mid]) >= n):
            lo = mid
        else:
            hi = mid
    full = nu_lo >= cuts[hi]
    frac = (nu_lo <= cuts[lo]) & (nu_hi >= cuts[hi])
    x = full.astype(float)
    # as nu falls from cuts[hi], every fractional piece's d_s grows by the same
    # factor, so they share the shortfall there in proportion to their d_s
    at_hi = fill(cuts[hi], frac)
    share = at_hi + rank[frac] + d_at_0 / d_per_g
    x[frac] = np.clip(at_hi + (n - x.sum() - at_hi.sum()) * share / share.sum(), 0.0, 1.0)
    # breakpoints closer than the floats can tell apart can leave the sum off n;
    # the pieces next in line as nu moves take up the difference
    short = n - x.sum()
    line = stable_order(-nu_hi if short > 0 else nu_lo)
    room = (1.0 - x if short > 0 else x)[line]
    x[line] += np.sign(short) * np.clip(abs(short) - (np.cumsum(room) - room), 0.0, room)
    out = np.zeros(m)
    out[order] = x
    return out


def dependent_round(x: np.ndarray, n: int, seed, utilities: np.ndarray, *key: int) -> Selection:
    """Round a fractional selection to exactly n items, preserving marginals.

    Systematic sampling over a random permutation: lay the entries out as
    consecutive intervals, then sample the unit grid {u, u+1, ..., u+n-1}.
    Each item's inclusion probability is exactly x_i. The draws come from
    the stream (seed, *key), which a binary input never builds: its
    intervals end on whole numbers, so every grid point hits each 1-item
    once, whatever the permutation and u, and the input is returned as is.
    """
    x = np.asarray(x, dtype=float)
    one = x == 1.0
    binary = one | (x == 0.0)
    valid = binary | ((x > 0.0) & (x < 1.0))  # False for NaN and ±inf
    if not valid.all():
        raise ValueError(f"entries must lie in [0, 1], not {x[~valid][0]}")
    total = float(x.sum())
    if not abs(total - n) <= 1e-6:
        raise ValueError(f"entries sum to {total}, expected n={n}")
    if binary.all():
        return Selection.from_mask(one, utilities)
    rng = make_rng(seed, *key)
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
    """One selection problem, which ``select`` builds for its one algorithm.
    The imputed groups (ties drawn from the stream (seed, *imputed_key),
    (seed, 0) in ``select``) and the group-level instance are computed on
    first use. A sweep's grid point (``experiment._GridPoint``) keeps both in
    its trial's draw instead, where the trial's algorithms and grid points
    share them. Only Thrsh and MultObj read the fields after ``cs``."""

    inst: Instance
    cs: ConstraintSet
    target: Optional[np.ndarray] = None
    seed: object = 0
    imputed_key: tuple = ()
    lambda_: float = 0.0

    @cached_property
    def imputed(self) -> np.ndarray:
        return impute_bayes(self.inst.noise_matrix(0), self.seed, *self.imputed_key)

    @cached_property
    def group_level(self) -> Instance:
        return group_level_instance(self.inst)


@dataclass(frozen=True, eq=False)
class Algorithm:
    """``solve`` maps a Problem to a Selection or, if the algorithm has a
    ``rounding`` rule, to a fractional vector. ``reads`` names the sweep
    settings (``experiment.SWEEP_KINDS`` without ``_grid``) that reach the
    step: its output is the same at any two grid points of one draw that
    agree on them, so a sweep solves it once per value of them."""

    solve: Callable
    reads: frozenset
    rounding: Optional[str] = None


# The steps are lambdas so that each library function is looked up when the
# step runs; rebinding one (as perfbench/bench_trace.py does) then takes effect.
# τ reaches only FairExpecGrp, through the noisy labels of its group-level rows.
ALGORITHMS = {
    "Blind": Algorithm(lambda pb: blind(pb.inst), frozenset({"n"})),
    "FairExpec": Algorithm(lambda pb: denoised_bfs(pb.inst, pb.cs).x,
                           frozenset({"n", "alpha"}), CEIL),
    "FairExpecGrp": Algorithm(lambda pb: denoised_bfs(pb.group_level, pb.cs).x,
                              frozenset({"n", "alpha", "tau"}), CEIL),
    "Thrsh": Algorithm(lambda pb: thrsh(pb.inst, pb.cs, pb.imputed), frozenset({"n", "alpha"})),
    "MultObj": Algorithm(lambda pb: mult_obj(pb.inst, pb.target, pb.lambda_, pb.imputed),
                         frozenset({"n", "lambda"}), DEPENDENT),
}


def round_output(name: str, out, pb: Problem, round_key: tuple = (),
                 rounding: Optional[str] = None) -> Selection:
    """The selection that algorithm ``name``'s step output ``out`` on ``pb``
    gives: ``out`` itself, or a fractional ``out`` rounded with ``rounding``
    (CEIL, or DEPENDENT drawing from the stream (``pb.seed``, *``round_key``));
    None keeps the algorithm's own rule."""
    algo = ALGORITHMS[name]
    if algo.rounding is None:
        return out
    if (rounding or algo.rounding) == CEIL:
        return ceil_round(out, pb.inst.utilities)
    return dependent_round(out, pb.inst.n, pb.seed, pb.inst.utilities, *round_key)


def run_algorithm(name: str, pb: Problem, round_key: tuple = ()) -> Selection:
    """Run algorithm ``name`` on ``pb``, its step and then ``round_output`` with
    the algorithm's own rule; raises InfeasibleError like the step."""
    return round_output(name, ALGORITHMS[name].solve(pb), pb, round_key)


def fair_expec(inst: Instance, cs: ConstraintSet) -> Selection:
    """FairExpec as ``select`` runs it: the vertex of the relaxation,
    ceiling-rounded.

    The result never loses utility relative to the vertex and picks at
    most (number of fractional coordinates) extra items beyond n.
    """
    return run_algorithm("FairExpec", Problem(inst, cs))


def fair_expec_grp(inst: Instance, cs: ConstraintSet) -> Selection:
    """FairExpecGrp as ``select`` runs it: fair_expec on the group-level
    probability estimate, rounded with the instance's own utilities."""
    return run_algorithm("FairExpecGrp", Problem(inst, cs))
