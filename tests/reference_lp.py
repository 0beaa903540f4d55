"""The dual simplex as it stood before the ratio test ordered its columns
only up to the breakpoint.

Each iteration sorts every eligible column stably by dual ratio and
accumulates the bound-flip weights over the whole order. The library's
``lp.solve_bfs`` must return the same status and the same x, byte for byte;
``tests/test_lp.py`` checks that with hypothesis. This is a test fixture,
not a production path.
"""

from __future__ import annotations

import numpy as np

from fairselect.lp import COST_SHIFT, FEAS_TOL, OPT_TOL, PIVOT_TOL, BfsSolution, LinearProgram


def reference_solve_bfs(lp: LinearProgram) -> BfsSolution:
    """Optimal vertex of the LP, or Infeasible."""
    m, k = lp.num_vars, lp.num_rows
    # columns: [structural | slack]; every lower bound is 0
    A = np.hstack([lp.rows, np.eye(k)])
    c = np.concatenate([lp.objective, np.zeros(k)])
    ub = np.concatenate([np.ones(m), lp.row_upper - lp.row_lower])
    basis = np.arange(m, m + k)
    at_upper = c > 0  # nonbasic columns at their upper bound; False for basic ones
    shift = COST_SHIFT * (1.0 + np.abs(lp.objective)) * (1.0 + np.arange(m) / m)
    c[:m] += np.where(at_upper[:m], shift, -shift)
    for _ in range(20000 + 50 * (m + k)):
        B = A[:, basis]
        x_B = np.linalg.solve(B, lp.row_upper - A @ np.where(at_upper, ub, 0.0))
        below, above = -x_B, x_B - ub[basis]
        violation = np.maximum(below, above)
        r = int(np.argmax(violation))
        if violation[r] <= FEAS_TOL:
            break
        to_upper = above[r] > below[r]  # x_B[r] leaves at its upper bound, else at 0
        e_r = np.zeros(k)
        e_r[r] = 1.0
        alpha = np.linalg.solve(B.T, e_r) @ A  # row r of the tableau
        d = c - np.linalg.solve(B.T, c[basis]) @ A  # reduced costs
        # x_B[r] moves by -alpha_j per unit increase of column j, so raising
        # j moves it towards its box where `toward` is positive
        toward = alpha if to_upper else -alpha
        eligible = (ub > 0) & np.where(at_upper, toward < -PIVOT_TOL, toward > PIVOT_TOL)
        eligible[basis] = False
        cand = np.flatnonzero(eligible)
        dual_slack = np.where(at_upper[cand], d[cand], -d[cand])
        ratio = np.maximum(dual_slack, 0.0) / np.abs(alpha[cand])
        cand = cand[np.argsort(ratio, kind="stable")]
        reach = np.cumsum(np.abs(alpha[cand]) * ub[cand])
        q = int(np.searchsorted(reach, violation[r]))  # the first column that reaches the bound
        if q == cand.size:
            if violation[r] - reach.max(initial=0.0) > FEAS_TOL:
                return BfsSolution(x=None)
            at_upper[cand] = ~at_upper[cand]  # the flips alone close the row
            continue
        at_upper[cand[:q]] = ~at_upper[cand[:q]]
        at_upper[basis[r]] = to_upper
        at_upper[cand[q]] = False
        basis[r] = cand[q]
    else:  # pragma: no cover
        raise RuntimeError("simplex iteration limit exceeded")

    full = np.where(at_upper, ub, 0.0)
    full[basis] = x_B
    x = np.clip(full[:m], 0.0, 1.0)
    x[np.abs(x) < OPT_TOL] = 0.0
    x[np.abs(x - 1.0) < OPT_TOL] = 1.0

    activity = lp.rows @ x
    if (np.any(activity < lp.row_lower - FEAS_TOL)
            or np.any(activity > lp.row_upper + FEAS_TOL)):  # pragma: no cover
        raise RuntimeError("simplex returned an infeasible point")
    return BfsSolution(x=x)
