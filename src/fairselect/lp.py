"""Dense bounded-variable dual simplex over ranged rows.

The solver maximizes c'x subject to lo_r <= A_r x <= hi_r per row and
0 <= x <= 1 per variable, and always returns a vertex of the feasible
polytope (a basic feasible solution). Vertices matter here: the relaxation
of the expected-count selection program has one row per attribute value
plus one cardinality row, so a vertex has few fractional coordinates and
ceiling rounding stays cheap.

Implementation notes:

* Each ranged row gets one slack with box [0, hi - lo]; rows with lo == hi
  degenerate to equalities (slack fixed at 0). Keeping a row single-sided
  preserves the basis-size argument behind the fractional-count bound.
* Every column is boxed, so any basis is dual feasible once each nonbasic
  column sits at the bound its reduced cost asks for. The solve starts at
  the all-slack basis with duals y = 0, every variable with a positive
  objective at 1 and every other at 0, and the dual simplex then only
  repairs rows that lie outside their range: there is no Phase I.
* Each iteration picks the basic variable furthest outside its box (lowest
  row on ties) to leave. The bound-flipping ratio test sorts the eligible
  columns stably by dual ratio, flips each one whose full move still
  leaves that row short of its bound, and pivots in the first one that
  reaches it (Koberstein, "The dual simplex method", 2005, ch. 3; Kostina,
  "The long step rule in the bounded-variable dual simplex method", 2002).
  One iteration thus moves as many items as the row needs, so the
  iteration count grows with the row count, not with m or n.
* The row proves the program infeasible if even flipping every eligible
  column falls short by more than FEAS_TOL; if it falls short by less,
  the flips alone close the row.
* Equal utilities tie reduced costs, and ratio tests among ties can cycle
  (seen with integer utilities and L = U rows). Each item's cost is
  therefore pushed a little further towards its starting bound, by
  COST_SHIFT * (1 + |c_j|) * (1 + j/m): the start stays dual feasible, tied
  columns still meet the ratio test in index order, and the vertex found
  is optimal for the true costs to within the shifts.
* Basis systems are re-solved densely every iteration; row counts are tiny.

Tolerances are defined once below and used everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConstraintSet, Instance

FEAS_TOL = 1e-8    # row and box feasibility
OPT_TOL = 1e-9     # x entries this close to 0 or 1 are snapped to the bound
FRAC_TOL = 1e-7    # fractionality when counting non-integral entries
PIVOT_TOL = 1e-9   # smallest usable pivot magnitude in the ratio test
COST_SHIFT = 1e-11  # relative size of the cost perturbation that breaks ties


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective'x, s.t. row_lower <= rows @ x <= row_upper, 0 <= x <= 1."""

    num_vars: int
    objective: np.ndarray
    rows: np.ndarray        # (k, num_vars)
    row_lower: np.ndarray   # (k,)
    row_upper: np.ndarray   # (k,)

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "row_lower", np.asarray(self.row_lower, dtype=float))
        object.__setattr__(self, "row_upper", np.asarray(self.row_upper, dtype=float))
        k = self.rows.shape[0]
        if self.rows.shape != (k, self.num_vars):
            raise ValueError(f"rows shape {self.rows.shape} != ({k}, {self.num_vars})")
        if np.any(self.row_lower > self.row_upper + 1e-12):
            raise ValueError("row lower bound exceeds row upper bound")

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class BfsSolution:
    """Vertex solution: x plus its fractional support and solve status."""

    x: Optional[np.ndarray]
    objective_value: Optional[float]
    fractional_indices: frozenset
    status: SolveStatus


def build_denoised_lp(inst: Instance, cs: ConstraintSet) -> LinearProgram:
    """Relaxation rows: L-δn <= q_l'x <= U+δn per (k,l), plus 1'x = n.

    Negative row lower bounds are kept verbatim; they are vacuous because
    both q and x are nonnegative, and clamping them would change nothing.
    """
    slack = cs.delta * inst.n
    blocks, lowers, uppers = [], [], []
    for k in range(inst.s):
        blocks.append(inst.noise[k].T)
        lowers.append(cs.lower[k] - slack)
        uppers.append(cs.upper[k] + slack)
    blocks.append(np.ones((1, inst.m)))
    lowers.append(np.array([float(inst.n)]))
    uppers.append(np.array([float(inst.n)]))
    return LinearProgram(
        num_vars=inst.m,
        objective=inst.utilities,
        rows=np.vstack(blocks),
        row_lower=np.concatenate(lowers),
        row_upper=np.concatenate(uppers),
    )


def solve_bfs(lp: LinearProgram) -> BfsSolution:
    """Optimal vertex of the LP, or Infeasible.

    Deterministic: the pivot rules depend only on the LP data, so identical
    inputs give bit-identical solutions. Unboundedness cannot occur (every
    variable is boxed).
    """
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
                return BfsSolution(x=None, objective_value=None,
                                   fractional_indices=frozenset(), status=SolveStatus.INFEASIBLE)
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
    frac = frozenset(int(i) for i in np.flatnonzero((x > FRAC_TOL) & (x < 1.0 - FRAC_TOL)))
    return BfsSolution(
        x=x,
        objective_value=float(np.dot(lp.objective, x)),
        fractional_indices=frac,
        status=SolveStatus.OPTIMAL,
    )
