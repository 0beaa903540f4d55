import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from fairselect import lp as lp_module
from fairselect.core import Instance, make_constraints
from fairselect.lp import LinearProgram, SolveStatus, _ratio_order, build_denoised_lp, solve_bfs

from conftest import anchored_constraints, fact_one_constraints, fact_one_instance, random_instance
from reference_lp import reference_solve_bfs

TINY_LP_VALUE = 67.5 / 17  # verified against an independent solver
TINY_LP_X = np.array([1.0, 4.0 / 17.0, 0.0, 13.0 / 17.0])


def scipy_lp_value(lp: LinearProgram):
    """Independent check: same rows through scipy's HiGHS solver."""
    res = linprog(-lp.objective,
                  A_ub=np.vstack([lp.rows[:-1], -lp.rows[:-1]]),
                  b_ub=np.concatenate([lp.row_upper[:-1], -lp.row_lower[:-1]]),
                  A_eq=lp.rows[-1:], b_eq=lp.row_upper[-1:],
                  bounds=[(0, 1)] * lp.num_vars, method="highs")
    return (-res.fun if res.status == 0 else None)


def test_build_tiny_rows(tiny, tiny_constraints):
    lp = build_denoised_lp(tiny, tiny_constraints)
    assert lp.num_rows == 3
    assert np.allclose(lp.row_lower, [-0.2, -0.2, 2.0])
    assert np.allclose(lp.row_upper, [1.2, 1.2, 2.0])
    assert np.allclose(lp.rows[2], 1.0)
    assert np.allclose(lp.rows[0], tiny.noise[0][:, 0])


def test_build_zero_delta_bounds_verbatim(tiny):
    cs = make_constraints([np.zeros(2)], [np.ones(2)], delta=0.0, n=2)
    lp = build_denoised_lp(tiny, cs)
    assert np.allclose(lp.row_lower[:2], [0.0, 0.0])
    assert np.allclose(lp.row_upper[:2], [1.0, 1.0])


def test_build_row_count_multi_attribute():
    rng = np.random.default_rng(1)
    inst = Instance(n=3, p=(2, 3), utilities=rng.random(10),
                    noise=(rng.dirichlet([1, 1], 10), rng.dirichlet([1, 1, 1], 10)))
    cs = make_constraints([np.zeros(2), np.zeros(3)], [np.full(2, 3.0), np.full(3, 3.0)],
                          delta=0.1, n=3)
    lp = build_denoised_lp(inst, cs)
    assert lp.num_rows == 1 + 2 + 3


def test_build_copies_the_rows_once():
    # the noise blocks go straight into the [rows | I] buffer: at its peak the build
    # holds that buffer and the objective's copy, and less than a second k x m copy
    # of the rows beside them (a stacked copy alone would be one)
    m, k = 20000, 3
    rng = np.random.default_rng(0)
    q = rng.dirichlet(np.ones(k - 1), size=m)
    inst = Instance(n=10, p=(k - 1,), utilities=rng.random(m), noise=(q,))
    cs = make_constraints([np.zeros(k - 1)], [np.full(k - 1, 10.0)], delta=0.0, n=10)
    tracemalloc.start()
    try:
        lp = build_denoised_lp(inst, cs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp.augmented.nbytes + lp.objective.nbytes <= peak
    assert peak < lp.augmented.nbytes + lp.objective.nbytes + lp.rows.nbytes
    assert np.array_equal(lp.rows, np.vstack([q.T, np.ones((1, m))]))


def test_solve_tiny_optimal_vertex(tiny, tiny_constraints):
    lp = build_denoised_lp(tiny, tiny_constraints)
    sol = solve_bfs(lp)
    assert sol.status is SolveStatus.OPTIMAL
    assert lp.objective @ sol.x == pytest.approx(TINY_LP_VALUE, abs=1e-9)
    assert np.allclose(sol.x, TINY_LP_X, atol=1e-9)
    assert sol.fractional_indices == {1, 3}
    assert lp.objective @ sol.x == pytest.approx(scipy_lp_value(lp), abs=1e-8)


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_fact_one_exactly_p_fractional(p):
    inst = fact_one_instance(p)
    sol = solve_bfs(build_denoised_lp(inst, fact_one_constraints(p)))
    assert sol.status is SolveStatus.OPTIMAL
    assert inst.utilities @ sol.x == pytest.approx(p + 1, abs=1e-9)
    expected = np.array([1.0 - 1.0 / p] * p + [1.0])
    assert np.allclose(sol.x, expected, atol=1e-9)
    assert len(sol.fractional_indices) == p


def test_solve_infeasible_zero_upper(tiny):
    cs = make_constraints([np.zeros(2)], [np.zeros(2)], delta=0.0, n=2)
    sol = solve_bfs(build_denoised_lp(tiny, cs))
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.x is None


def test_fractional_bound_random_instances():
    rng = np.random.default_rng(2024)
    solved = 0
    for _ in range(300):
        inst = random_instance(rng)
        cs = anchored_constraints(rng, inst)
        sol = solve_bfs(build_denoised_lp(inst, cs))
        assert sol.status is SolveStatus.OPTIMAL
        bound = min(inst.m, 1 + sum(pk - 1 for pk in inst.p))
        assert len(sol.fractional_indices) <= bound
        solved += 1
    assert solved == 300


def test_optimal_value_matches_independent_solver():
    rng = np.random.default_rng(99)
    for _ in range(100):
        inst = random_instance(rng, m=int(rng.integers(6, 60)))
        cs = anchored_constraints(rng, inst)
        lp = build_denoised_lp(inst, cs)
        sol = solve_bfs(lp)
        reference = scipy_lp_value(lp)
        if sol.status is SolveStatus.OPTIMAL:
            assert reference is not None
            assert lp.objective @ sol.x == pytest.approx(reference, abs=1e-6)
        else:
            assert reference is None


def test_relaxation_dominates_integral_points():
    from itertools import combinations
    rng = np.random.default_rng(5)
    for _ in range(40):
        inst = random_instance(rng, m=int(rng.integers(6, 12)), s=1)
        inst = Instance(n=min(inst.n, 5), p=inst.p,
                        utilities=inst.utilities, noise=inst.noise)
        cs = anchored_constraints(rng, inst)
        lp = build_denoised_lp(inst, cs)
        sol = solve_bfs(lp)
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        slack = cs.delta * inst.n
        for subset in combinations(range(inst.m), inst.n):
            counts = inst.noise[0][list(subset)].sum(axis=0)
            if np.all(counts >= cs.lower[0] - slack - 1e-9) and \
               np.all(counts <= cs.upper[0] + slack + 1e-9):
                assert lp.objective @ sol.x >= inst.utilities[list(subset)].sum() - 1e-9


def test_feasibility_certificate():
    rng = np.random.default_rng(7)
    for _ in range(60):
        inst = random_instance(rng)
        cs = anchored_constraints(rng, inst)
        lp = build_denoised_lp(inst, cs)
        sol = solve_bfs(lp)
        assert sol.status is SolveStatus.OPTIMAL
        activity = lp.rows @ sol.x
        assert np.all(activity >= lp.row_lower - 1e-8)
        assert np.all(activity <= lp.row_upper + 1e-8)
        assert np.all(sol.x >= -1e-9) and np.all(sol.x <= 1 + 1e-9)


def test_solver_deterministic(tiny, tiny_constraints):
    lp = build_denoised_lp(tiny, tiny_constraints)
    a = solve_bfs(lp)
    b = solve_bfs(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert lp.objective @ a.x == lp.objective @ b.x


def test_vertex_basic_count_bounded_by_rows():
    # a vertex can have at most (row count) coordinates strictly inside the box
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = random_instance(rng)
        cs = anchored_constraints(rng, inst)
        lp = build_denoised_lp(inst, cs)
        sol = solve_bfs(lp)
        assert len(sol.fractional_indices) <= lp.num_rows


def test_rejects_crossed_row_bounds():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 1.0], rows=[[1.0, 1.0]],
                      row_lower=[3.0], row_upper=[2.0])


def expected_count_lp(p, m, n, seed, tied, one_hot_share, bounds):
    """An expected-count LP with one attribute per entry of ``p``, drawn from
    ``seed``: integer utilities in {0, 1, 2} if ``tied``, dirichlet noise rows
    of which ``one_hot_share`` are one-hot, and bounds that are "anchored",
    "equal" (L = U at delta 0) or "zero_upper" (infeasible)."""
    rng = np.random.default_rng(seed)
    utilities = rng.integers(0, 3, m).astype(float) if tied else rng.random(m)
    noise = []
    for pk in p:
        q = rng.dirichlet(np.ones(pk), size=m)
        one_hot = rng.random(m) < one_hot_share
        q[one_hot] = np.eye(pk)[rng.integers(0, pk, one_hot.sum())]
        noise.append(q)
    inst = Instance(n=n, p=tuple(p), utilities=utilities, noise=tuple(noise))
    if bounds == "anchored":
        cs = anchored_constraints(rng, inst)
    elif bounds == "equal":  # L = U = the expected counts of a random n-subset
        anchor = np.zeros(m)
        anchor[rng.choice(m, n, replace=False)] = 1.0
        counts = [q.T @ anchor for q in noise]
        cs = make_constraints(counts, counts, delta=0.0, n=n)
    else:  # every upper bound 0, which no selection of n >= 1 items meets
        zeros = [np.zeros(pk) for pk in p]
        cs = make_constraints(zeros, zeros, delta=0.0, n=n)
    return inst, build_denoised_lp(inst, cs)


@st.composite
def denoised_lps(draw, sizes=st.integers(2, 30)):
    """Expected-count LPs of the shapes that stress the solver: several
    attributes (each attribute's rows sum to the cardinality row, so the
    rows are linearly dependent), one-hot noise rows, L = U at delta 0,
    tied utilities, n = m, and systems with no feasible point."""
    s = draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(2, 4), min_size=s, max_size=s))
    m = draw(sizes)
    n = draw(st.integers(1, m))
    return expected_count_lp(p, m, n, seed=draw(st.integers(0, 2**32 - 1)),
                             tied=draw(st.booleans()),
                             one_hot_share=draw(st.sampled_from([0.0, 0.5, 1.0])),
                             bounds=draw(st.sampled_from(["anchored", "equal", "zero_upper"])))


def _equal_bounds_case(counts):
    """Three items, two groups, n = 2 and L = U = ``counts`` at delta 0."""
    inst = Instance(n=2, p=(2,), utilities=[1.0, 2.0, 3.0],
                    noise=(np.array([[0.1, 0.9], [0.1, 0.9], [0.2, 0.8]]),))
    return inst, build_denoised_lp(inst, make_constraints([counts], [counts], delta=0.0, n=2))


@functools.cache
def _survey_case(seed, draw):
    """Draw ``draw`` (from 0) of a survey of random LPs from ``default_rng(seed)``:
    m in [20, 2000), n up to m/4, and anchored bounds of spread 0, 0.05 or 0.2
    at delta 0 or 0.01. Replaying 1000 draws takes about a second."""
    rng = np.random.default_rng(seed)
    for _ in range(draw + 1):
        m = rng.integers(20, 2000)
        inst = random_instance(rng, m=m, n=rng.integers(1, max(2, m // 4)))
        cs = anchored_constraints(rng, inst, spread=rng.choice([0.0, 0.05, 0.2]),
                                  delta=rng.choice([0.0, 0.01]))
    return inst, build_denoised_lp(inst, cs)


@settings(max_examples=150, deadline=None)
@given(denoised_lps())
# items 0 and 1 are the only feasible pair; the flips that close the group
# row fall short of its violation by ~3e-17, inside FEAS_TOL, so the last
# walked column enters in a degenerate pivot
@example(_equal_bounds_case(np.array([0.2, 1.8])))
# the group row misses by 1e-6, well beyond FEAS_TOL
@example(_equal_bounds_case(np.array([0.2 - 1e-6, 1.8 + 1e-6])))
# tied utilities and L = U: without COST_SHIFT the ratio test cycles here
@example(expected_count_lp([4, 4], 151, 145, seed=1088449068, tied=True,
                           one_hot_share=0.0, bounds="equal"))
# the two of 4500 survey LPs (seeds 3, 4 and 5) that end a ratio test within
# FEAS_TOL: m=30, p=(5, 2) and m=50, p=(4, 4, 5), both at n=1
@example(_survey_case(3, 1096))
@example(_survey_case(4, 506))
def test_solver_matches_independent_solver(case):
    inst, lp = case
    reference = scipy_lp_value(lp)
    bound = min(inst.m, 1 + sum(pk - 1 for pk in inst.p))
    sol = solve_bfs(lp)
    if reference is None:
        assert sol.status is SolveStatus.INFEASIBLE
        return
    assert sol.status is SolveStatus.OPTIMAL
    assert lp.objective @ sol.x == pytest.approx(reference, abs=1e-8)
    assert len(sol.fractional_indices) <= bound


@settings(max_examples=150, deadline=None)
@given(denoised_lps(sizes=st.integers(2, 400) | st.integers(2000, 5000)))
@example(_equal_bounds_case(np.array([0.2, 1.8])))
@example(_equal_bounds_case(np.array([0.2 - 1e-6, 1.8 + 1e-6])))
@example(expected_count_lp([4, 4], 151, 145, seed=1088449068, tied=True,
                           one_hot_share=0.0, bounds="equal"))
@example(_survey_case(3, 1096))
@example(_survey_case(4, 506))
def test_solver_matches_the_full_sort_reference(case):
    # past 1000 eligible columns the ratio test orders only the columns up
    # to its breakpoint, which must not change a single pivot; and where the
    # flips close a row to within FEAS_TOL, the reference flips them all while
    # the solver pivots the last one in, which must not change x
    _, lp = case
    sol, ref = solve_bfs(lp), reference_solve_bfs(lp)
    assert sol.status is ref.status
    if ref.x is None:
        assert sol.x is None
    else:
        assert sol.x.tobytes() == ref.x.tobytes()


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 300) | st.integers(1001, 5000), seed=st.integers(0, 2**32 - 1),
       ratios=st.sampled_from(["tied", "distinct", "zero"]),
       weights=st.sampled_from(["unit", "tied", "distinct", "unit-but-one"]),
       where=st.sampled_from(["first", "middle", "last", "past"]), between=st.booleans())
def test_ratio_order_matches_the_full_sort(size, seed, ratios, weights, where, between):
    rng = np.random.default_rng(seed)
    if ratios == "tied":  # few distinct values, so most ratios are exact ties
        ratio = rng.integers(0, 4, size) / 3.0
    elif ratios == "zero":  # degenerate: most dual slacks are 0
        ratio = np.where(rng.random(size) < 0.8, 0.0, rng.random(size))
    else:
        ratio = rng.random(size)
    if weights == "distinct":
        weight = rng.random(size) + 1e-9
    elif weights == "tied":
        weight = rng.integers(1, 4, size) / 4.0
    else:
        weight = np.ones(size)
        if weights == "unit-but-one":
            weight[rng.integers(size)] = 0.5
    order = np.argsort(ratio, kind="stable")
    full = np.cumsum(weight[order])
    # the breakpoint at the first column, anywhere, at the last column or
    # past the end, with the target on a partial sum or between two of them
    j = {"first": 0, "middle": int(rng.integers(size)), "last": size - 1, "past": size}[where]
    if j == size:
        target = full[-1] + 1.0
    else:
        target = full[j] - (0.5 * weight[order[j]] if between else 0.0)
    q = int(np.searchsorted(full, target))
    assert q == j

    head, reach = _ratio_order(ratio, weight, target)
    assert reach.tobytes() == full[:len(reach)].tobytes()
    assert int(np.searchsorted(reach, target)) == q
    if q == size:
        assert np.array_equal(head, order)
    else:
        assert len(head) == len(reach) > q
        assert head[q] == order[q]
        assert sorted(head[:q]) == sorted(order[:q])


def _counted_solve(lp):
    """solve_bfs(lp), with the number of np.linalg.solve calls it made and the
    number of ratio tests it ran, one per pivot on a feasible program."""
    counts = {"solves": 0, "pivots": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", counted("solves", np.linalg.solve))
        patch.setattr(lp_module, "_ratio_order", counted("pivots", lp_module._ratio_order))
        sol = solve_bfs(lp)
    return sol, counts["solves"], counts["pivots"]


def test_a_solve_optimal_at_its_start_makes_no_linear_solve():
    # every objective entry is negative, so the start is x = 0, which meets the row
    lp = LinearProgram(objective=[-1.0, -2.0], rows=[[1.0, 1.0]], row_lower=[0.0],
                       row_upper=[1.0])
    sol, solves, pivots = _counted_solve(lp)
    assert (sol.x.tolist(), solves, pivots) == ([0.0, 0.0], 0, 0)


def test_the_first_pivot_makes_no_linear_solve(tiny, tiny_constraints):
    sol, solves, pivots = _counted_solve(build_denoised_lp(tiny, tiny_constraints))
    assert sol.status is SolveStatus.OPTIMAL
    assert pivots >= 1
    assert solves == 3 * pivots - 2


@settings(max_examples=60, deadline=None)
@given(denoised_lps())
def test_a_solve_of_i_pivots_makes_3i_minus_2_linear_solves(case):
    sol, solves, pivots = _counted_solve(case[1])
    if sol.status is SolveStatus.OPTIMAL:
        assert solves == max(0, 3 * pivots - 2)
