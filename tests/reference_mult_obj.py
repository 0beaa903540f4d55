"""MultObj's objective, Frank-Wolfe on it with a full sort per step, and
the breakpoint bisection that evaluates the penalty's fill at every cut.

``selectors.mult_obj`` solves the same problem exactly, so the objective
of its x must be at least that of this loop's best iterate, after any
number of steps; ``tests/test_selectors.py`` checks that with hypothesis.
Frank-Wolfe is a lower bound here, not a reference for the bits.
``bisected_mult_obj`` is ``mult_obj`` as it was before integer counts
settled most cuts of its bisection, and is the reference for the bits:
``tests/test_selectors.py`` checks that both return the same bytes. This
is a test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.core import Instance, probability_vector, top_n
from fairselect.selectors import KL_EPSILON, _check_imputed, _group_ranks


def _top_n_mask(scores: np.ndarray, n: int) -> np.ndarray:
    """Indicator of the n largest scores, ties broken by lowest index."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    mask = np.zeros(len(scores), dtype=int)
    mask[order[:n]] = 1
    return mask


def _kl(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * np.log(a / b)))


def mult_obj_objective(x: np.ndarray, inst: Instance, target, lambda_: float,
                       imputed: np.ndarray) -> float:
    """Utility minus the scaled KL penalty between the distribution of x over
    the imputed groups (one label per item) and the target, both smoothed by
    KL_EPSILON."""
    t = np.asarray(target, dtype=float)
    p = len(t)
    eps = KL_EPSILON
    dist = np.eye(p)[imputed].T @ x / inst.n
    dist_s = (1 - eps) * dist + eps / p
    t_s = (1 - eps) * t + eps / p
    scale = float(inst.utilities.sum()) / inst.m
    return float(inst.utilities @ x) - lambda_ * _kl(dist_s, t_s) * scale


def reference_mult_obj(inst: Instance, target, lambda_: float, imputed: np.ndarray,
                       fw_iters: int = 500) -> np.ndarray:
    """Frank-Wolfe on the KL-penalized utility with a full sort per step."""
    t = np.asarray(target, dtype=float)
    if abs(t.sum() - 1.0) > 1e-9 or np.any(t < 0):
        raise ValueError("target must be a probability vector")
    if not 0.0 <= lambda_ < np.inf:
        raise ValueError("lambda_ must be finite and nonnegative")
    if fw_iters < 1:
        raise ValueError("fw_iters must be positive")
    w = inst.utilities
    n, p = inst.n, len(t)
    qprime = np.eye(p)[imputed]  # one-hot rows
    x = _top_n_mask(w, n).astype(float)
    if lambda_ == 0.0:
        return x
    eps = KL_EPSILON
    t_s = (1 - eps) * t + eps / p
    scale = lambda_ * (float(w.sum()) / inst.m) * (1 - eps) / n
    best_x, best_val = x, mult_obj_objective(x, inst, t, lambda_, imputed)
    for it in range(fw_iters):
        dist = qprime.T @ x / n
        dist_s = (1 - eps) * dist + eps / p
        grad = w - scale * (qprime @ (np.log(dist_s / t_s) + 1.0))
        vertex = _top_n_mask(grad, n)
        gamma = 2.0 / (it + 2.0)
        x = x + gamma * (vertex - x)
        val = mult_obj_objective(x, inst, t, lambda_, imputed)
        if val > best_val + 1e-12:
            best_x, best_val = x, val
    return best_x


def bisected_mult_obj(inst: Instance, target, lambda_: float, imputed: np.ndarray) -> np.ndarray:
    """``selectors.mult_obj`` with the penalty's fill computed at every cut
    the bisection tries. For finite utilities whose sum is finite."""
    t = probability_vector(target)
    w = inst.utilities
    m, n, p = inst.m, inst.n, len(t)
    groups = _check_imputed(imputed, m, p)
    eps = KL_EPSILON
    mean_w = float(w.sum()) / m
    scale = lambda_ * mean_w * (1 - eps) / n
    if scale == 0.0:  # no penalty
        x = np.zeros(m)
        x[top_n(w, n)] = 1.0
        return x
    order, rank = _group_ranks(w, groups, p)
    order, rank = order[rank < n], rank[rank < n]
    w_j = w[order]
    t_j = ((1 - eps) * t + eps / p)[groups[order]]
    d_per_g, d_at_0 = (1 - eps) / n, eps / p

    def h(g):
        return scale * (np.log((d_per_g * g + d_at_0) / t_j) + 1.0)

    nu_hi, nu_lo = w_j - h(rank), w_j - h(rank + 1)

    def fill(nu, pieces):
        d_s = t_j[pieces] * np.exp((w_j[pieces] - nu) / scale - 1.0)
        return (d_s - d_at_0) / d_per_g - rank[pieces]

    def total(nu):
        return np.count_nonzero(nu_lo >= nu) + fill(nu, (nu_lo < nu) & (nu < nu_hi)).sum()

    cuts = np.sort(np.concatenate([nu_lo, nu_hi, [np.inf]]))
    lo, hi = 0, cuts.size - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if total(cuts[mid]) >= n:
            lo = mid
        else:
            hi = mid
    full = nu_lo >= cuts[hi]
    frac = (nu_lo <= cuts[lo]) & (nu_hi >= cuts[hi])
    x = full.astype(float)
    at_hi = fill(cuts[hi], frac)
    share = at_hi + rank[frac] + d_at_0 / d_per_g
    x[frac] = np.clip(at_hi + (n - x.sum() - at_hi.sum()) * share / share.sum(), 0.0, 1.0)
    short = n - x.sum()
    line = np.argsort(-nu_hi if short > 0 else nu_lo, kind="stable")
    room = (1.0 - x if short > 0 else x)[line]
    x[line] += np.sign(short) * np.clip(abs(short) - (np.cumsum(room) - room), 0.0, room)
    out = np.zeros(m)
    out[order] = x
    return out
