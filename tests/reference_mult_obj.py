"""MultObj's objective, and Frank-Wolfe on it with a full sort per step.

``selectors.mult_obj`` solves the same problem exactly, so the objective
of its x must be at least that of this loop's best iterate, after any
number of steps; ``tests/test_selectors.py`` checks that with hypothesis.
Frank-Wolfe is a lower bound here, not a reference for the bits. This is a
test fixture, not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.core import Instance
from fairselect.selectors import KL_EPSILON


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
