from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fairselect.core import Instance, InfeasibleError, UnsupportedError, make_constraints, constraints_from_alpha
from fairselect.selectors import (blind, ceil_round, dependent_round, denoised_bfs,
                                  estimate_group_level_q, fair_expec, fair_expec_grp,
                                  impute_bayes, mult_obj, thrsh)
from fairselect.seeding import make_rng, seed_sequence

from conftest import fact_one_constraints, fact_one_instance, random_instance, anchored_constraints
from reference_mult_obj import mult_obj_objective, reference_mult_obj
from reference_thrsh import reference_thrsh


# --- blind ------------------------------------------------------------

def test_blind_tiny(tiny):
    sel = blind(tiny)
    assert list(sel.indices) == [0, 1]
    assert sel.total_utility == 5.5


def test_blind_tie_rule():
    inst = Instance(n=2, p=(2,), utilities=[1.0, 1.0, 1.0, 1.0],
                    noise=(np.full((4, 2), 0.5),))
    assert list(blind(inst).indices) == [0, 1]


def test_blind_full_selection():
    inst = Instance(n=3, p=(2,), utilities=[3.0, 1.0, 2.0],
                    noise=(np.full((3, 2), 0.5),))
    assert list(blind(inst).indices) == [0, 1, 2]


# --- fair_expec -------------------------------------------------------

def test_fair_expec_tiny(tiny, tiny_constraints):
    # the vertex is (1, 4/17, 0, 13/17); ceiling rounds both fractionals up
    sel = fair_expec(tiny, tiny_constraints)
    assert list(sel.indices) == [0, 1, 3]
    assert sel.total_utility == 6.0
    assert sel.cardinality == 3


def test_fair_expec_fact_one():
    inst = fact_one_instance(2)
    sel = fair_expec(inst, fact_one_constraints(2))
    assert list(sel.chosen) == [1, 1, 1]
    assert sel.total_utility == 4.0
    assert sel.cardinality == 3 == inst.n + 1


def test_fair_expec_alpha_zero_equals_blind():
    # at alpha=0 only the cardinality row binds, so the optimal vertex is the blind top-n
    rng = np.random.default_rng(21)
    for _ in range(20):
        inst = random_instance(rng, s=1, p=[2])
        cs = constraints_from_alpha(inst.n, [0.5, 0.5], alpha=0.0, delta=0.1)
        assert fair_expec(inst, cs).total_utility == blind(inst).total_utility
        assert np.array_equal(fair_expec(inst, cs).chosen, blind(inst).chosen)
        assert denoised_bfs(inst, cs).fractional_indices == frozenset()


def test_fair_expec_dominates_vertex_and_bounds_cardinality():
    rng = np.random.default_rng(33)
    for _ in range(50):
        inst = random_instance(rng)
        cs = anchored_constraints(rng, inst)
        vertex = denoised_bfs(inst, cs)
        sel = fair_expec(inst, cs)
        assert sel.total_utility >= inst.utilities @ vertex.x - 1e-9
        assert np.all(sel.chosen >= np.floor(vertex.x + 1e-12))
        bound = min(inst.m, 1 + sum(pk - 1 for pk in inst.p))
        assert inst.n <= sel.cardinality <= inst.n + bound


def test_fair_expec_never_breaks_satisfied_lower_bounds():
    # rounding only adds items and q >= 0, so expected counts only grow:
    # every lower-bound row the vertex satisfies stays satisfied
    rng = np.random.default_rng(55)
    for _ in range(30):
        inst = random_instance(rng, s=1)
        cs = anchored_constraints(rng, inst, spread=0.3)
        vertex = denoised_bfs(inst, cs)
        sel = fair_expec(inst, cs)
        before = inst.noise[0].T @ vertex.x
        after = inst.noise[0].T @ sel.chosen
        assert np.all(after >= before - 1e-9)
        lo = cs.lower[0] - cs.delta * inst.n
        assert np.all(after >= lo - 1e-8)


def test_fair_expec_propagates_infeasible(tiny):
    cs = make_constraints([np.zeros(2)], [np.zeros(2)], delta=0.0, n=2)
    with pytest.raises(InfeasibleError):
        fair_expec(tiny, cs)


# --- group-level estimate --------------------------------------------

def test_group_level_single_class():
    q = np.array([[0.9, 0.1], [0.7, 0.3], [0.8, 0.2]])
    inst = Instance(n=1, p=(2,), utilities=np.ones(3), noise=(q,),
                    noisy_attrs=[[0], [0], [0]])
    qbar = estimate_group_level_q(inst)
    assert np.allclose(qbar, q.mean(axis=0))


def test_group_level_two_classes():
    q = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
    inst = Instance(n=1, p=(2,), utilities=np.ones(3), noise=(q,),
                    noisy_attrs=[[0], [0], [1]])
    qbar = estimate_group_level_q(inst)
    assert np.allclose(qbar[0], [0.8, 0.2])
    assert np.allclose(qbar[1], [0.8, 0.2])
    assert np.allclose(qbar[2], [0.2, 0.8])


def test_group_level_singleton_classes_identity():
    q = np.array([[0.9, 0.1], [0.2, 0.8]])
    inst = Instance(n=1, p=(2,), utilities=np.ones(2), noise=(q,),
                    noisy_attrs=[[0], [1]])
    assert np.allclose(estimate_group_level_q(inst), q)


def test_group_level_derives_labels_from_argmax():
    q = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
    inst = Instance(n=1, p=(2,), utilities=np.ones(3), noise=(q,))
    qbar = estimate_group_level_q(inst)
    assert np.allclose(qbar[0], [0.8, 0.2])
    assert np.allclose(qbar[2], [0.2, 0.8])


def test_group_level_rows_sum_to_one():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, s=1, p=[3], with_true=True)
    inst = replace(inst, noisy_attrs=inst.true_attrs)
    qbar = estimate_group_level_q(inst)
    assert np.allclose(qbar.sum(axis=1), 1.0)


def test_group_level_rejects_multi_attribute():
    rng = np.random.default_rng(4)
    inst = random_instance(rng, s=2, p=[2, 2])
    with pytest.raises(UnsupportedError):
        estimate_group_level_q(inst)


def test_fair_expec_grp_identical_when_classes_singleton():
    # every item its own noisy-label class -> the estimate is q itself
    rng = np.random.default_rng(61)
    q = rng.dirichlet(np.ones(4), 4)
    inst = Instance(n=2, p=(4,), utilities=[3.0, 2.5, 1.0, 0.5],
                    noise=(q,), noisy_attrs=[[0], [1], [2], [3]])
    assert np.allclose(estimate_group_level_q(inst), q)
    cs = make_constraints([np.zeros(4)], [np.ones(4)], delta=0.2, n=2)
    assert fair_expec_grp(inst, cs).total_utility == fair_expec(inst, cs).total_utility


def test_grp_tracks_fair_expec_when_noise_is_utility_independent():
    # iid utilities: the group-level estimate loses nothing, so both
    # routes land at nearly the same fairness level
    from fairselect.datagen import GeneratorSpec, KIND_DISPARATE_ERROR, gen_disparate_error
    from fairselect.metrics import risk_difference
    from fairselect.selectors import group_level_instance
    n = 60
    cs = constraints_from_alpha(n, [0.5, 0.5], alpha=1.0, delta=0.01)
    fe_vals, grp_vals = [], []
    for trial in range(500):
        spec = GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=300, n=n,
                             seed=seed_sequence(2025, trial))
        inst = gen_disparate_error(spec)
        z = inst.true_attrs[:, 0]
        for variant, acc in ((inst, fe_vals), (group_level_instance(inst), grp_vals)):
            vertex = denoised_bfs(variant, cs)
            sel = dependent_round(vertex.x, n, seed_sequence(3030, trial), inst.utilities)
            acc.append(risk_difference(sel.chosen, z, [0.5, 0.5], n))
    assert abs(np.mean(fe_vals) - np.mean(grp_vals)) <= 0.03


def test_grp_selects_fewer_minority_when_utilities_shifted():
    # two groups with shifted utilities: the group-level estimate is blind
    # to the within-class utility gradient and picks mostly majority items
    from scipy.stats import norm
    tau, gap, sigma = 0.3, 1.0, 0.6
    cs = constraints_from_alpha(40, [0.5, 0.5], alpha=1.0, delta=0.02)
    fe_mean = grp_mean = 0.0
    trials = 500
    for trial in range(trials):
        rng = make_rng(seed_sequence(99, trial))
        z = (rng.random(200) < 0.5).astype(int)  # 1 = lower-utility minority
        g = rng.normal(gap * (1 - z), sigma)
        w = np.exp(g)
        zhat = np.where(rng.random(200) < tau, 1 - z, z)
        like0 = norm.pdf(g, gap, sigma) * np.where(zhat == 0, 1 - tau, tau)
        like1 = norm.pdf(g, 0.0, sigma) * np.where(zhat == 1, 1 - tau, tau)
        q1 = like1 / (like0 + like1)
        inst = Instance(n=40, p=(2,), utilities=w,
                        noise=(np.column_stack([1 - q1, q1]),),
                        true_attrs=z[:, None], noisy_attrs=zhat[:, None])
        for fn, bucket in ((fair_expec, "fe"), (fair_expec_grp, "grp")):
            sel = fn(inst, cs)
            count = int(np.sum(inst.true_attrs[sel.chosen.astype(bool), 0] == 1))
            if bucket == "fe":
                fe_mean += count / trials
            else:
                grp_mean += count / trials
    assert grp_mean < fe_mean - 1.0


# --- impute_bayes -----------------------------------------------------

def test_impute_argmax():
    out = impute_bayes(np.array([[0.7, 0.3], [0.2, 0.8]]), seed=0)
    assert out.dtype.kind == "i" and list(out) == [0, 1]


def test_impute_one_hot_fixed_point():
    out = impute_bayes(np.array([[1.0, 0.0]]), seed=0)
    assert list(out) == [0]


def test_impute_tie_frequencies():
    hits = 0
    for i in range(10000):
        out = impute_bayes(np.array([[0.5, 0.5]]), seed=seed_sequence(7, i))
        hits += int(out[0] == 0)
    assert abs(hits / 10000 - 0.5) < 0.02


def test_impute_picks_a_row_maximum():
    rng = np.random.default_rng(8)
    q = rng.dirichlet([1, 1, 1], 50)
    q[:10] = [0.4, 0.4, 0.2]  # ties between the first two groups
    out = impute_bayes(q, seed=1)
    assert out.shape == (50,)
    assert np.all(q[np.arange(50), out] == q.max(axis=1))


# --- thrsh ------------------------------------------------------------

def test_thrsh_tiny(tiny, tiny_constraints):
    sel = thrsh(tiny, tiny_constraints, impute_bayes(tiny.noise[0], seed=0))
    assert list(sel.indices) == [0, 3]
    assert sel.total_utility == 3.5


def test_thrsh_alpha_zero_equals_blind():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inst = random_instance(rng, s=1, p=[2])
        cs = constraints_from_alpha(inst.n, [0.5, 0.5], alpha=0.0)
        imputed = impute_bayes(inst.noise[0], seed=0)
        assert thrsh(inst, cs, imputed).total_utility == blind(inst).total_utility


def test_thrsh_infeasible_lower_bound():
    q = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9]])
    inst = Instance(n=2, p=(2,), utilities=[3.0, 2.0, 1.0], noise=(q,))
    cs = make_constraints([[2.0, 0.0]], [[2.0, 2.0]], delta=0.0, n=2)
    with pytest.raises(InfeasibleError):
        thrsh(inst, cs, impute_bayes(q, seed=0))


def test_thrsh_matches_brute_force():
    from oracle import brute_force_target
    rng = np.random.default_rng(17)
    for _ in range(60):
        inst = random_instance(rng, s=1, m=int(rng.integers(6, 12)), with_true=True)
        imputed = impute_bayes(inst.noise[0], seed=seed_sequence(1, _))
        as_true = replace(inst, true_attrs=imputed[:, None])
        cs = anchored_constraints(rng, as_true, spread=0.4, delta=0.0)
        oracle = brute_force_target(as_true, cs)
        try:
            sel = thrsh(inst, cs, imputed)
        except InfeasibleError:
            assert not oracle.feasible
            continue
        assert oracle.feasible
        assert sel.total_utility == pytest.approx(oracle.best_utility, abs=1e-9)


@st.composite
def thrsh_cases(draw):
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, m))
    groups = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    if draw(st.booleans()):  # few distinct values, so the picks cut through ties
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
    else:
        w = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    # half-integer bounds test the rounding to integer counts; small caps bind
    share = st.integers(0, 2 * max(1, n // p))
    lower = np.array(draw(st.lists(share, min_size=p, max_size=p))) / 2.0
    upper = lower + np.array(draw(st.lists(st.integers(0, 2 * n), min_size=p, max_size=p))) / 2.0
    inst = Instance(n=n, p=(p,), utilities=w, noise=(np.eye(p)[groups],))
    return inst, make_constraints([lower], [upper], delta=0.0, n=n), groups


@settings(max_examples=300, deadline=None)
@given(thrsh_cases())
def test_thrsh_matches_the_greedy_reference(case):
    # the brute-force test compares utilities, so it cannot tell which of
    # several tied items was picked; the greedy fixes that choice
    try:
        expected = reference_thrsh(*case)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            thrsh(*case)
        return
    sel = thrsh(*case)
    assert sel.chosen.tobytes() == expected.chosen.tobytes()
    assert sel.total_utility == expected.total_utility


def test_thrsh_rejects_multi_attribute():
    rng = np.random.default_rng(19)
    inst = random_instance(rng, s=2, p=[2, 2])
    cs = make_constraints([np.zeros(2), np.zeros(2)],
                          [np.full(2, float(inst.n)), np.full(2, float(inst.n))],
                          delta=0.0, n=inst.n)
    with pytest.raises(UnsupportedError):
        thrsh(inst, cs, impute_bayes(inst.noise[0], seed=0))


# --- mult_obj ---------------------------------------------------------

def test_mult_obj_lambda_zero_is_blind(tiny):
    x = mult_obj(tiny, (0.5, 0.5), 0.0, impute_bayes(tiny.noise[0], seed=0))
    assert np.array_equal(x, blind(tiny).chosen.astype(float))


def test_mult_obj_huge_lambda_hits_target():
    rng = np.random.default_rng(23)
    m = 100
    w = rng.random(m)
    groups = (np.arange(m) >= m // 2).astype(int)
    qp = np.eye(2)[groups]
    inst = Instance(n=20, p=(2,), utilities=w, noise=(qp,))
    x = mult_obj(inst, (0.5, 0.5), 1e6, groups, fw_iters=500)
    dist = qp.T @ x / 20
    assert 0.5 * np.abs(dist - np.array([0.5, 0.5])).sum() <= 0.01


def test_mult_obj_tiny_beats_integral_vertices(tiny):
    from itertools import combinations
    imputed = impute_bayes(tiny.noise[0], seed=0)
    x = mult_obj(tiny, (0.5, 0.5), 1.0, imputed, fw_iters=500)
    fx = mult_obj_objective(x, tiny, (0.5, 0.5), 1.0, imputed)
    for subset in combinations(range(4), 2):
        vertex = np.isin(np.arange(4), subset).astype(float)
        assert fx >= mult_obj_objective(vertex, tiny, (0.5, 0.5), 1.0, imputed) - 0.05


def test_mult_obj_best_objective_nondecreasing(tiny):
    imputed = impute_bayes(tiny.noise[0], seed=0)
    best = -np.inf
    for iters in (1, 5, 20, 100, 400):
        x = mult_obj(tiny, (0.5, 0.5), 5.0, imputed, fw_iters=iters)
        val = mult_obj_objective(x, tiny, (0.5, 0.5), 5.0, imputed)
        assert val >= best - 1e-9
        best = max(best, val)


def test_mult_obj_keeps_cardinality():
    rng = np.random.default_rng(29)
    inst = random_instance(rng, s=1, p=[3])
    imputed = impute_bayes(inst.noise[0], seed=seed_sequence(0, 17))
    x = mult_obj(inst, (1 / 3, 1 / 3, 1 / 3), 10.0, imputed, fw_iters=200)
    assert x.sum() == pytest.approx(inst.n, abs=1e-6)
    assert np.all(x >= 0) and np.all(x <= 1)


@pytest.mark.parametrize("target, lambda_, fw_iters, message", [
    ((0.6, 0.6), 1.0, 10, "target must be a probability vector"),
    ((0.5, 0.5), float("nan"), 10, "lambda_ must be finite and nonnegative"),
    ((0.5, 0.5), -1.0, 10, "lambda_ must be finite and nonnegative"),
    ((0.5, 0.5), 0.0, 0, "fw_iters must be positive"),
    # finite, but the KL penalty's gradient overflows (numpy's warning fails the test)
    ((0.5, 0.5), 1e308, 10, r"lambda_=1e\+308 is too large"),
])
def test_mult_obj_rejects_bad_settings(tiny, target, lambda_, fw_iters, message):
    # checked before the lambda_ = 0 shortcut returns the blind indicator
    with pytest.raises(ValueError, match=message):
        mult_obj(tiny, target, lambda_, impute_bayes(tiny.noise[0], seed=0), fw_iters)


@pytest.mark.parametrize("imputed, message", [
    (np.array([0, 0, 1]), "one label per item"),
    (np.eye(2)[[0, 0, 0, 1]], "one label per item"),
    (np.array([0.0, 0.0, 0.0, 1.0]), "must be integer labels"),
    (np.array([0, 0, 1, 2]), "must lie in"),
    (np.array([0, -1, 0, 1]), "must lie in"),
])
def test_mult_obj_rejects_imputed_groups_it_cannot_use(tiny, tiny_constraints, imputed, message):
    # thrsh rejects the same label vectors
    with pytest.raises(ValueError, match=message):
        mult_obj(tiny, (0.5, 0.5), 1.0, imputed)
    with pytest.raises(ValueError, match=message):
        thrsh(tiny, tiny_constraints, imputed)


def test_mult_obj_breaks_a_rounded_gradient_tie_by_lowest_index():
    # Items 1 and 2 share group 1 and item 2 has the higher utility, but once
    # the group's penalty is subtracted their gradients round to the same
    # value. The tie goes to item 1, the lower index, not to the group's
    # utility leader.
    groups = np.array([0, 1, 1])
    inst = Instance(n=1, p=(2,), utilities=[2.0, 2.0, 2.0 + 2.0 ** -51], noise=(np.eye(2)[groups],))
    x = mult_obj(inst, (0.5, 0.5), 1000.0, groups, fw_iters=5)
    assert np.array_equal(x, reference_mult_obj(inst, (0.5, 0.5), 1000.0, groups, fw_iters=5))
    assert x[1] > 0.0 and x[2] == 0.0


@st.composite
def mult_obj_cases(draw):
    p = draw(st.integers(1, 4))
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, m))
    groups = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["tied", "near-tied", "continuous"]))
    if kind == "continuous":
        w = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    else:
        w = np.array(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)), dtype=float)
        if kind == "near-tied":  # a few ulps apart, so gradients can round together
            w += np.array(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))) * np.spacing(w)
    if draw(st.booleans()):
        target = np.full(p, 1.0 / p)
    else:
        raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)))
        assume(raw.sum() > 0)
        target = raw / raw.sum()
    lambda_ = 10.0 ** draw(st.floats(-2.0, 6.0))
    fw_iters = draw(st.integers(1, 300))
    inst = Instance(n=n, p=(p,), utilities=w, noise=(np.eye(p)[groups],))
    return inst, target, lambda_, groups, fw_iters


@settings(max_examples=200, deadline=None)
@given(mult_obj_cases())
def test_mult_obj_matches_the_full_sort_reference(case):
    assert np.array_equal(mult_obj(*case), reference_mult_obj(*case))


# --- rounding ---------------------------------------------------------

def test_ceil_round_fact_one():
    sel = ceil_round(np.array([0.5, 0.5, 1.0]), np.array([1.0, 1.0, 2.0]))
    assert list(sel.chosen) == [1, 1, 1]


def test_ceil_round_binary_unchanged():
    sel = ceil_round(np.array([1.0, 0.0, 1.0]), np.ones(3))
    assert list(sel.chosen) == [1, 0, 1]


def test_ceil_round_clamps_dust():
    sel = ceil_round(np.array([1e-9, 0.3]), np.ones(2))
    assert list(sel.chosen) == [0, 1]


def test_dependent_round_binary_identity():
    sel = dependent_round(np.array([1.0, 1.0, 0.0, 0.0]), 2, 0, np.ones(4))
    assert list(sel.chosen) == [1, 1, 0, 0]


def test_dependent_round_exact_cardinality_and_marginals():
    x = np.array([0.5, 0.5, 0.5, 0.5])
    hits = np.zeros(4)
    for i in range(10000):
        sel = dependent_round(x, 2, seed_sequence(1234, i), np.ones(4))
        assert sel.cardinality == 2
        hits += sel.chosen
    assert np.all(np.abs(hits / 10000 - 0.5) < 0.02)


def test_dependent_round_general_marginals_within_bands():
    rng = np.random.default_rng(31)
    m, n, trials = 12, 5, 8000
    x = rng.random(m)
    x *= n / x.sum()
    while np.any(x > 1):
        over = x > 1
        excess = (x[over] - 1).sum()
        x[over] = 1.0
        free = ~over
        x[free] += excess * x[free] / x[free].sum()
    hits = np.zeros(m)
    for i in range(trials):
        sel = dependent_round(x, n, seed_sequence(77, i), np.ones(m))
        hits += sel.chosen
    sigma = np.sqrt(x * (1 - x) / trials)
    assert np.all(np.abs(hits / trials - x) <= 3 * sigma + 1e-12)


def test_dependent_round_rejects_bad_sum():
    with pytest.raises(ValueError):
        dependent_round(np.array([0.5, 0.5]), 2, 0, np.ones(2))


def test_dependent_round_deterministic_given_seed():
    x = np.array([0.3, 0.7, 0.6, 0.4])
    a = dependent_round(x, 2, 42, np.ones(4))
    b = dependent_round(x, 2, 42, np.ones(4))
    assert np.array_equal(a.chosen, b.chosen)
