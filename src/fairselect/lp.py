"""Dense bounded-variable simplex over ranged rows.

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
* The simplex starts from a crash point: the variables listed in
  ``LinearProgram.start`` sit at their upper bound of 1 and every other
  variable at 0. ``build_denoised_lp`` lists the n highest-utility items
  (the blind selection), which already meets the cardinality row, so
  Phase I repairs at most the group rows instead of raising n variables
  one bound flip at a time (Bixby, "Implementing the simplex method: the
  initial basis", 1992). ``start=()`` is the cold start at x = 0.
* Phase I installs one artificial per row the start violates and
  maximizes minus their sum; it is skipped when the start meets every
  row. Artificials never re-enter once driven out.
* Pricing is Dantzig (most improving reduced cost, lowest index on ties)
  and switches to Bland's rule after a run of degenerate pivots, which
  guarantees termination; a nondegenerate step switches back.
* Basis systems are re-solved densely every iteration; row counts are tiny.

Tolerances are defined once below and used everywhere.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConstraintSet, Instance, top_n

FEAS_TOL = 1e-8    # row and box feasibility
OPT_TOL = 1e-9     # reduced-cost optimality
FRAC_TOL = 1e-7    # fractionality when counting non-integral entries
PIVOT_TOL = 1e-9   # smallest usable pivot magnitude in the ratio test

_AT_LOWER = 0
_AT_UPPER = 1
_BASIC = 2

_DEGENERATE_RUN_LIMIT = 40


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective'x, s.t. row_lower <= rows @ x <= row_upper, 0 <= x <= 1.

    ``start`` lists the variables that sit at their upper bound of 1 when
    the simplex starts; the others start at 0. It changes the pivots taken,
    not the optimum.
    """

    num_vars: int
    objective: np.ndarray
    rows: np.ndarray        # (k, num_vars)
    row_lower: np.ndarray   # (k,)
    row_upper: np.ndarray   # (k,)
    start: np.ndarray = ()  # distinct variable indices

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "row_lower", np.asarray(self.row_lower, dtype=float))
        object.__setattr__(self, "row_upper", np.asarray(self.row_upper, dtype=float))
        object.__setattr__(self, "start", np.asarray(self.start, dtype=int))
        k = self.rows.shape[0]
        if self.rows.shape != (k, self.num_vars):
            raise ValueError(f"rows shape {self.rows.shape} != ({k}, {self.num_vars})")
        if np.any(self.row_lower > self.row_upper + 1e-12):
            raise ValueError("row lower bound exceeds row upper bound")
        if (np.any((self.start < 0) | (self.start >= self.num_vars))
                or np.unique(self.start).size != self.start.size):
            raise ValueError("start must list distinct variable indices")

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
        start=top_n(inst.utilities, inst.n),  # the blind selection
    )


class _Tableau:
    """Mutable simplex state for one solve. Not shared across threads."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        m, k = lp.num_vars, lp.num_rows
        self.m, self.k = m, k
        rng_width = lp.row_upper - lp.row_lower
        # columns: [structural | slack | artificial]; every lower bound is 0
        self.A = np.hstack([lp.rows, np.eye(k), np.zeros((k, k))])
        self.ub = np.concatenate([np.ones(m), rng_width, np.zeros(k)])
        self.b = lp.row_upper.copy()
        self.status = np.full(m + 2 * k, _AT_LOWER, dtype=np.int8)
        self.status[lp.start] = _AT_UPPER
        self.basis = np.empty(k, dtype=int)
        self.artificial_start = m + k

        # what each row's slack must absorb at the start point
        residual = self.b - lp.rows[:, lp.start].sum(axis=1)
        for r in range(k):
            slack, art = m + r, m + k + r
            if -FEAS_TOL <= residual[r] <= rng_width[r] + FEAS_TOL:
                self.basis[r] = slack
                self.status[slack] = _BASIC
            else:
                at_upper = residual[r] > rng_width[r]
                self.status[slack] = _AT_UPPER if at_upper else _AT_LOWER
                self.A[r, art] = 1.0 if at_upper else -1.0
                self.ub[art] = np.inf
                self.basis[r] = art
                self.status[art] = _BASIC

    def nonbasic_values(self) -> np.ndarray:
        return np.where(self.status == _AT_UPPER, self.ub, 0.0)

    def basic_values(self, B: np.ndarray, vals: np.ndarray) -> np.ndarray:
        rhs = self.b - self.A @ vals
        return np.linalg.solve(B, rhs)

    def run(self, c: np.ndarray, max_iter: int) -> None:
        """Simplex loop for one phase; raises on iteration blowup."""
        bland = False
        degenerate_run = 0
        movable = self.ub > 0
        for _ in range(max_iter):
            B = self.A[:, self.basis]
            vals = self.nonbasic_values()
            try:
                x_B = self.basic_values(B, vals)
                y = np.linalg.solve(B.T, c[self.basis])
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise RuntimeError("singular basis in simplex") from exc
            reduced = c - y @ self.A
            eligible = movable & (
                ((self.status == _AT_LOWER) & (reduced > OPT_TOL))
                | ((self.status == _AT_UPPER) & (reduced < -OPT_TOL))
            )
            # entering an artificial is never useful
            eligible[self.artificial_start:] = False
            cand = np.flatnonzero(eligible)
            if cand.size == 0:
                return
            if bland:
                j = int(cand[0])
            else:
                j = int(cand[np.argmax(np.abs(reduced[cand]))])
            sigma = 1.0 if self.status[j] == _AT_LOWER else -1.0
            d = np.linalg.solve(B, self.A[:, j])
            step = sigma * d
            ubB = self.ub[self.basis]
            ratios = np.full(self.k, np.inf)
            pos = step > PIVOT_TOL
            neg = step < -PIVOT_TOL
            ratios[pos] = x_B[pos] / step[pos]
            ratios[neg] = (x_B[neg] - ubB[neg]) / step[neg]
            np.maximum(ratios, 0.0, out=ratios)
            t_flip = self.ub[j]
            t_min = min(float(ratios.min(initial=np.inf)), t_flip)
            if not np.isfinite(t_min):  # pragma: no cover
                raise RuntimeError("unbounded direction in box-bounded program")
            if t_min >= t_flip - 1e-12:
                # bound flip, basis unchanged
                self.status[j] = _AT_UPPER if self.status[j] == _AT_LOWER else _AT_LOWER
                degenerate_run = 0
                bland = False
                continue
            tied = np.flatnonzero(ratios <= t_min + 1e-9)
            if bland:
                r = int(tied[np.argmin(self.basis[tied])])
            else:
                r = int(tied[np.argmax(np.abs(step[tied]))])
            leaving = int(self.basis[r])
            self.status[leaving] = _AT_LOWER if step[r] > 0 else _AT_UPPER
            if leaving >= self.artificial_start:
                self.status[leaving] = _AT_LOWER
            self.basis[r] = j
            self.status[j] = _BASIC
            if t_min <= 1e-12:
                degenerate_run += 1
                if degenerate_run > _DEGENERATE_RUN_LIMIT:
                    bland = True
            else:
                degenerate_run = 0
                bland = False
        raise RuntimeError("simplex iteration limit exceeded")  # pragma: no cover

    def drive_out_artificials(self) -> None:
        for r in range(self.k):
            col = self.basis[r]
            if col < self.artificial_start:
                continue
            B = self.A[:, self.basis]
            e = np.zeros(self.k)
            e[r] = 1.0
            row = np.linalg.solve(B.T, e) @ self.A
            usable = np.abs(row) > PIVOT_TOL
            usable[self.basis] = False
            usable[self.artificial_start:] = False
            j = np.flatnonzero(usable)
            if j.size == 0:
                # redundant row: artificial stays basic, pinned at zero
                self.ub[col] = 0.0
                continue
            enter = int(j[0])
            self.basis[r] = enter
            self.status[enter] = _BASIC
            self.status[col] = _AT_LOWER
            self.ub[col] = 0.0

    def extract(self) -> np.ndarray:
        B = self.A[:, self.basis]
        vals = self.nonbasic_values()
        x_B = self.basic_values(B, vals)
        full = vals.copy()
        full[self.basis] = x_B
        x = full[: self.m]
        x = np.clip(x, 0.0, 1.0)
        x[np.abs(x) < OPT_TOL] = 0.0
        x[np.abs(x - 1.0) < OPT_TOL] = 1.0
        return x


def solve_bfs(lp: LinearProgram) -> BfsSolution:
    """Optimal vertex of the LP, or Infeasible.

    Deterministic: the pivot rules depend only on the LP data, so identical
    inputs give bit-identical solutions. Unboundedness cannot occur (every
    variable is boxed) and is treated as an internal error.
    """
    tab = _Tableau(lp)
    ncols = tab.A.shape[1]
    max_iter = 20000 + 50 * ncols

    if np.any(tab.basis >= tab.artificial_start):
        phase1 = np.zeros(ncols)
        phase1[tab.artificial_start:] = -1.0
        tab.run(phase1, max_iter)
        B = tab.A[:, tab.basis]
        x_B = tab.basic_values(B, tab.nonbasic_values())
        art_rows = tab.basis >= tab.artificial_start
        if float(np.abs(x_B[art_rows]).sum(initial=0.0)) > FEAS_TOL:
            return BfsSolution(x=None, objective_value=None,
                               fractional_indices=frozenset(), status=SolveStatus.INFEASIBLE)
        tab.drive_out_artificials()

    phase2 = np.zeros(ncols)
    phase2[: lp.num_vars] = lp.objective
    tab.run(phase2, max_iter)
    x = tab.extract()

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
