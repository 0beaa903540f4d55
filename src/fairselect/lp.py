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
  row on ties) to leave. The bound-flipping ratio test walks the eligible
  columns by ascending dual ratio (lowest index on ties), flips each one
  whose full move still leaves that row short of its bound, and pivots in
  the first one that reaches it (Koberstein, "The dual simplex method",
  2005, ch. 3; Kostina, "The long step rule in the bounded-variable dual
  simplex method", 2002). One iteration thus moves as many items as the
  row needs, so the iteration count grows with the row count, not with m
  or n.
* The walk is ordered only up to its breakpoint (``_ratio_order``). When
  every move is exactly 1 (the cardinality row) the breakpoint's depth is
  known and one partition splits the columns there; otherwise a block of
  the smallest ratios, grown 4× at a time, is sorted until its moves reach
  the row, which is usually within a few columns. Both give the columns,
  and the partial sums, of a full stable sort, bit for bit, so every
  pivot is the same. Walks of 1000 columns or fewer (there a partition
  costs more than it saves), walks that no block of under a quarter of the
  columns finishes, and walks that never reach the row still use the full
  stable sort.
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

from .core import ConstraintSet, Instance, smallest

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

    objective: np.ndarray   # (num_vars,)
    rows: np.ndarray        # (num_rows, num_vars)
    row_lower: np.ndarray   # (num_rows,)
    row_upper: np.ndarray   # (num_rows,)

    def __post_init__(self):
        for name in ("objective", "rows", "row_lower", "row_upper"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.rows.ndim != 2 or self.objective.shape != (self.rows.shape[1],):
            raise ValueError(f"objective shape {self.objective.shape} does not match "
                             f"rows shape {self.rows.shape}")
        if np.any(self.row_lower > self.row_upper + 1e-12):
            raise ValueError("row lower bound exceeds row upper bound")

    @property
    def num_vars(self) -> int:
        return self.rows.shape[1]

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class BfsSolution:
    """Vertex solution x, or None when the program is infeasible."""

    x: Optional[np.ndarray]

    @property
    def status(self) -> SolveStatus:
        return SolveStatus.INFEASIBLE if self.x is None else SolveStatus.OPTIMAL

    @property
    def fractional_indices(self) -> frozenset:
        """The coordinates of x strictly inside (0, 1), up to FRAC_TOL."""
        if self.x is None:
            return frozenset()
        return frozenset(np.flatnonzero((self.x > FRAC_TOL) & (self.x < 1.0 - FRAC_TOL)).tolist())


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
        objective=inst.utilities,
        rows=np.vstack(blocks),
        row_lower=np.concatenate(lowers),
        row_upper=np.concatenate(uppers),
    )


def _ratio_order(ratio: np.ndarray, weight: np.ndarray, target: float):
    """The ratio test's walk, ordered only as far as its breakpoint.

    The bound-flipping ratio test walks the columns in the order
    ``order = np.argsort(ratio, kind="stable")``, sums their positive
    ``weight`` into ``reach = np.cumsum(weight[order])`` and stops at the
    first column, ``q = np.searchsorted(reach, target)``, whose sum reaches
    ``target`` > 0. Returns ``(head, reach)``: ``reach`` is that cumsum's
    first ``len(head)`` entries, bit for bit, and ``len(head) > q``;
    ``head[:q]`` holds ``order[:q]`` in some order and ``head[q]`` is
    ``order[q]``. When no column reaches ``target``, ``head`` is ``order``
    and ``reach`` the whole cumsum.
    """
    size = ratio.size
    if size > 1000:  # a full sort of fewer is quicker than the partitions' fixed cost
        if np.all(weight == 1.0):
            # unit weights sum exactly, reach[i] = i + 1, so the breakpoint is known
            q = int(np.ceil(target)) - 1
            if q < size:
                return smallest(ratio, q + 1), np.arange(1.0, q + 2.0)
        else:
            # the breakpoint is usually a few columns deep: sort growing blocks
            count = 16
            while 4 * count < size:
                head = smallest(ratio, count)
                head = head[np.argsort(ratio[head], kind="stable")]
                reach = np.cumsum(weight[head])
                if reach[-1] >= target:
                    return head, reach
                count *= 4
    order = np.argsort(ratio, kind="stable")
    return order, np.cumsum(weight[order])


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
    ub = np.ones(m + k)
    ub[m:] = lp.row_upper - lp.row_lower
    has_room = ub > 0
    basis = np.arange(m, m + k)
    at_upper = c > 0  # nonbasic columns at their upper bound; False for basic ones
    shift = COST_SHIFT * (1.0 + np.abs(lp.objective)) * (1.0 + np.arange(m) / m)
    c[:m] += np.where(at_upper[:m], shift, -shift)
    for _ in range(20000 + 50 * (m + k)):
        B = A[:, basis]
        x_B = np.linalg.solve(B, lp.row_upper - A @ (ub * at_upper))
        below, above = -x_B, x_B - ub[basis]
        violation = np.maximum(below, above)
        r = int(np.argmax(violation))
        if violation[r] <= FEAS_TOL:
            break
        to_upper = above[r] > below[r]  # x_B[r] leaves at its upper bound, else at 0
        e_r = np.zeros(k)
        e_r[r] = 1.0
        alpha = np.linalg.solve(B.T, e_r) @ A  # row r of the tableau
        d = np.linalg.solve(B.T, c[basis]) @ A
        np.subtract(c, d, out=d)  # reduced costs
        # x_B[r] moves by -alpha_j per unit increase of column j; a column
        # may enter if moving it off its bound pushes x_B[r] towards its box
        eligible = np.where(at_upper != to_upper, alpha > PIVOT_TOL, alpha < -PIVOT_TOL)
        eligible &= has_room
        eligible[basis] = False
        cand = np.flatnonzero(eligible)
        step, ratio = np.abs(alpha[cand]), d[cand]
        np.negative(ratio, out=ratio, where=~at_upper[cand])  # dual slack: -d_j at 0
        np.maximum(ratio, 0.0, out=ratio)
        ratio /= step
        step *= ub[cand]  # how far x_B[r] moves when the column flips
        order, reach = _ratio_order(ratio, step, violation[r])
        cand = cand[order]
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

    full = ub * at_upper
    full[basis] = x_B
    x = np.clip(full[:m], 0.0, 1.0)  # so x and 1 - x are its distances to the bounds
    x[x < OPT_TOL] = 0.0
    x[1.0 - x < OPT_TOL] = 1.0

    activity = lp.rows @ x
    if (np.any(activity < lp.row_lower - FEAS_TOL)
            or np.any(activity > lp.row_upper + FEAS_TOL)):  # pragma: no cover
        raise RuntimeError("simplex returned an infeasible point")
    return BfsSolution(x=x)
