import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairselect.core import Instance, InfeasibleError, UnsupportedError, make_constraints, constraints_from_alpha
from fairselect.datagen import KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, GeneratorSpec
from fairselect import selectors
from fairselect.experiment import build_instance
from fairselect.selectors import (blind, ceil_round, dependent_round, denoised_bfs,
                                  estimate_group_level_q, fair_expec, fair_expec_grp,
                                  impute_bayes, mult_obj, thrsh, KL_EPSILON)
from fairselect.seeding import make_rng, seed_sequence

from conftest import fact_one_constraints, fact_one_instance, random_instance, anchored_constraints
from reference_impute import (reference_estimate_group_level_q, reference_group_ranks,
                              reference_impute_bayes)
from reference_mult_obj import bisected_mult_obj, mult_obj_objective, reference_mult_obj
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


@st.composite
def labelled_instances(draw):
    """An instance of p <= 6 groups whose noisy-label classes have 0, 1, 8,
    16 or at least 128 members, where numpy's sums change from one addition
    at a time to blocks of 8 and then to pairs of halves. Without labels,
    each row's argmax is its class."""
    p = draw(st.integers(1, 6))
    sizes = draw(st.lists(st.sampled_from([0, 1, 8, 16]) | st.integers(128, 260),
                          min_size=p, max_size=p))
    assume(sum(sizes) > 0)
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(np.arange(p), sizes))
    q = rng.random((labels.size, p))
    if draw(st.booleans()):
        return Instance(n=1, p=(p,), utilities=np.ones(labels.size),
                        noise=(q / q.sum(axis=1, keepdims=True),), noisy_attrs=labels[:, None])
    q[np.arange(labels.size), labels] += 1.0
    return Instance(n=1, p=(p,), utilities=np.ones(labels.size),
                    noise=(q / q.sum(axis=1, keepdims=True),))


@settings(max_examples=150, deadline=None)
@given(labelled_instances())
def test_group_level_estimate_matches_the_per_item_reference(inst):
    got, want = estimate_group_level_q(inst), reference_estimate_group_level_q(inst)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


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
            counts = np.bincount(z[sel.chosen], minlength=2)
            acc.append(risk_difference(counts, [0.5, 0.5], n))
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


def test_impute_without_a_tie_builds_no_generator(monkeypatch):
    def no_rng(*args):
        raise AssertionError("a generator was built for a q without ties")
    monkeypatch.setattr(selectors, "make_rng", no_rng)
    q = np.random.default_rng(5).dirichlet([1, 1, 1], 40)
    assert np.array_equal(impute_bayes(q, seed=seed_sequence(3, 3)), np.argmax(q, axis=1))


def test_impute_picks_a_row_maximum():
    rng = np.random.default_rng(8)
    q = rng.dirichlet([1, 1, 1], 50)
    q[:10] = [0.4, 0.4, 0.2]  # ties between the first two groups
    out = impute_bayes(q, seed=1)
    assert out.shape == (50,)
    assert np.all(q[np.arange(50), out] == q.max(axis=1))


@st.composite
def tied_rows(draw):
    """A q of up to 6 groups whose entries take at most four values, so
    that many rows tie, with more than two winners once p > 2, and at most
    one row of NaN."""
    p, m = draw(st.integers(1, 6)), draw(st.integers(0, 60))
    q = draw(arrays(float, (m, p), elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    if m and draw(st.booleans()):
        q[draw(st.integers(0, m - 1))] = np.nan
    return q


@settings(max_examples=300, deadline=None)
@given(q=tied_rows(), seed=st.integers(0, 2**32 - 1), key=st.lists(st.integers(0, 9), max_size=3))
@example(q=np.array([[0.25] * 4, [np.nan] * 4, [0.5, 0.5, 0.0, 0.5], [0.1, 0.9, 0.0, 0.0],
                     [1.0, 1.0, 1.0, 1.0]]), seed=0, key=[3])
def test_impute_draws_what_one_draw_per_tied_row_drew(q, seed, key):
    # one integers() call over every tied row must give the per-row loop's
    # draws; a numpy that draws otherwise changes every tie-broken output
    got, want = impute_bayes(q, seed, *key), reference_impute_bayes(q, seed, *key)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("groups, n, lower, upper, why", [
    ([0, 1, 1], 2, [2.0, 0.0], [2.0, 2.0],
     "in group 0, ceil(L) = 2 > the cap min(floor(U), imputed count) = 1"),
    ([0, 0, 1, 1], 2, [1.5, 1.0], [2.0, 2.0], "the ceil(L) sum to 3 > n = 2"),
    # the floors of U = (1.5, 1.5) sum to n - 1, as at alpha = 1 with L = 0
    ([0, 1, 1, 1], 3, [0.0, 0.0], [1.5, 1.5],
     "the caps min(floor(U), imputed count) sum to 2 < n = 3"),
], ids=["ceil-lower-past-cap", "ceil-lower-sum-past-n", "caps-sum-below-n"])
def test_an_infeasible_thrsh_says_which_check_failed(groups, n, lower, upper, why):
    q = np.eye(2)[groups]
    inst = Instance(n=n, p=(2,), utilities=np.arange(len(groups), 0.0, -1.0), noise=(q,))
    cs = make_constraints([lower], [upper], delta=0.0, n=n)
    with pytest.raises(InfeasibleError) as exc:
        thrsh(inst, cs, np.array(groups))
    assert str(exc.value) == f"imputed group bounds admit no size-n selection: {why}"


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


@settings(max_examples=200, deadline=None)
@given(thrsh_cases())
def test_group_ranks_match_the_one_hot_reference(case):
    inst, _, groups = case
    got = selectors._group_ranks(inst.utilities, groups, inst.p[0])
    want = reference_group_ranks(inst.utilities, groups, inst.p[0])
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
    x = mult_obj(inst, (0.5, 0.5), 1e6, groups)
    dist = qp.T @ x / 20
    assert 0.5 * np.abs(dist - np.array([0.5, 0.5])).sum() <= 0.01


def test_mult_obj_tiny_beats_integral_vertices(tiny):
    from itertools import combinations
    imputed = impute_bayes(tiny.noise[0], seed=0)
    x = mult_obj(tiny, (0.5, 0.5), 1.0, imputed)
    fx = mult_obj_objective(x, tiny, (0.5, 0.5), 1.0, imputed)
    for subset in combinations(range(4), 2):
        vertex = np.isin(np.arange(4), subset).astype(float)
        assert fx >= mult_obj_objective(vertex, tiny, (0.5, 0.5), 1.0, imputed) - 1e-12


def test_mult_obj_keeps_cardinality():
    rng = np.random.default_rng(29)
    inst = random_instance(rng, s=1, p=[3])
    imputed = impute_bayes(inst.noise[0], seed=seed_sequence(0, 17))
    x = mult_obj(inst, (1 / 3, 1 / 3, 1 / 3), 10.0, imputed)
    assert x.sum() == pytest.approx(inst.n, abs=1e-9)
    assert np.all(x >= 0) and np.all(x <= 1)


@pytest.mark.parametrize("target, lambda_, message", [
    ((0.6, 0.6), 1.0, "target must be a probability vector"),
    ((0.5, 0.5), float("nan"), "lambda must be finite, not nan"),
    ((0.5, 0.5), -1.0, r"lambda must lie in \[0, inf\], not -1.0"),
    # finite, but the KL penalty overflows; named as the flag and the config key name it
    ((0.5, 0.5), 1e308, r"lambda=1e\+308 is too large"),
    # NaN compares false both ways, so only a vector shown to be a distribution passes
    ((float("nan"), float("nan")), 10.0, "target must be a probability vector"),
    ((1.0, float("nan")), 0.0, "target must be a probability vector"),
    (((0.5, 0.5),), 1.0, "target must be a probability vector"),
    (1.0, 1.0, "target must be a probability vector"),
])
def test_mult_obj_rejects_bad_settings(tiny, target, lambda_, message):
    # checked before the lambda_ = 0 shortcut returns the blind indicator
    with pytest.raises(ValueError, match=message):
        mult_obj(tiny, target, lambda_, impute_bayes(tiny.noise[0], seed=0))


def test_mult_obj_names_utilities_that_sum_past_the_largest_float(tiny):
    # as validate_instance names them, and with no overflow warning on the way
    inst = replace(tiny, utilities=[1e308, 1e308, 1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="utilities sum past the largest float"):
            mult_obj(inst, (0.5, 0.5), 1.0, impute_bayes(tiny.noise[0], seed=0))


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


def _assert_exact_and_at_least_the_reference(inst, target, lambda_, groups, fw_iters=500):
    """mult_obj's x sums to n, has at most p fractional entries and scores at
    least as well as Frank-Wolfe's after ``fw_iters`` steps; returns x."""
    x = mult_obj(inst, target, lambda_, groups)
    assert abs(x.sum() - inst.n) <= 1e-9
    assert np.all((x >= 0) & (x <= 1))
    assert np.count_nonzero((x > 0) & (x < 1)) <= len(target)
    reference = reference_mult_obj(inst, target, lambda_, groups, fw_iters)
    if lambda_ == 0.0:  # both are the blind indicator, whose objective needs the utilities' sum
        assert np.array_equal(x, reference)
        return x
    f = mult_obj_objective(x, inst, target, lambda_, groups)
    assert f >= mult_obj_objective(reference, inst, target, lambda_, groups) - 1e-9 * max(1, abs(f))
    return x


def _labelled(w, groups, p):
    """An instance of utilities ``w`` with n = m/2 whose probability rows
    are one-hot on ``groups``, and the groups."""
    groups = np.asarray(groups)
    return Instance(n=len(w) // 2, p=(p,), utilities=w, noise=(np.eye(p)[groups],)), groups


@pytest.mark.parametrize("inst_groups, target, lambda_, expected", [
    # mean utility 0, so the penalty's scale is 0
    (_labelled(np.zeros(6), [0, 1, 1, 0, 1, 0], 2), (0.5, 0.5), 10.0, [1, 1, 1, 0, 0, 0]),
    # exp((w - nu) / scale) overflows for the pieces far from nu, so it is taken only
    # where a piece is partly filled
    (_labelled(np.array([10.0, 1e-3, 2e-3, 3e-3]), [0, 1, 0, 1], 2), (0.5, 0.5), 0.01, None),
    (_labelled(np.array([0.4, 0.9, 0.1, 0.7]), [0, 0, 0, 0], 1), (1.0,), 5.0, [0, 1, 0, 1]),
    # no item is imputed to group 1, so its target share cannot be met
    (_labelled(np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4]), [0, 0, 0, 0, 2, 2], 3),
     (1 / 3, 1 / 3, 1 / 3), 50.0, None),
    # tied utilities in one group fill from the lowest index
    (_labelled(np.ones(6), [1, 0, 0, 0, 1, 1], 2), (0.5, 0.5), 1.0, [1, 1, 0.5, 0, 0.5, 0]),
    # every breakpoint rounds to 1.0, so the pieces next in line take up all n
    (_labelled(np.ones(8), [0, 1, 0, 1, 1, 1, 1, 1], 2), (0.5, 0.5), 1e-17,
     [1, 1, 1, 1, 0, 0, 0, 0]),
    # lambda = 0 returns the blind indicator before the utilities are summed
    (_labelled(np.array([1e308, 1e308, 1.0, 0.0]), [0, 1, 0, 1], 2), (0.5, 0.5), 0.0,
     [1, 1, 0, 0]),
], ids=["zero-utilities", "small-lambda", "one-group", "empty-group", "tied-in-a-group",
        "breakpoints-below-resolution", "lambda-zero-utilities-summing-past-the-largest-float"])
def test_mult_obj_edge_cases(inst_groups, target, lambda_, expected):
    inst, groups = inst_groups
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _assert_exact_and_at_least_the_reference(inst, target, lambda_, groups)
    if expected is not None:
        assert x == pytest.approx(expected, abs=1e-12)


@st.composite
def mult_obj_cases(draw, p=st.integers(1, 10)):
    p = draw(p)
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, m))
    groups = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    kind = draw(st.sampled_from(["tied", "near-tied", "continuous"]))
    if kind == "continuous":
        w = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    else:
        w = np.array(draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)), dtype=float)
        if kind == "near-tied":  # a few ulps apart
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
def test_mult_obj_is_at_least_the_frank_wolfe_reference(case):
    _assert_exact_and_at_least_the_reference(*case)


@st.composite
def counted_cases(draw):
    """MultObj problems for the byte comparison with the plain bisection: p
    groups, n up to m, tied integer or spread utilities, targets with shares
    near 0 and lambda log-uniform over 22 decades."""
    p = draw(st.integers(1, 10))
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, m))
    groups = np.array(draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m)))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=float)
    else:
        spread = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 6.0), min_size=m, max_size=m)))
        w = spread * np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    shares = st.sampled_from([0.0, 1e-300, 1e-12, 1e-6]) | st.floats(0.0, 1.0)
    raw = np.array(draw(st.lists(shares, min_size=p, max_size=p)))
    assume(raw.sum() > 0)
    lambda_ = 10.0 ** draw(st.floats(-14.0, 8.0))
    inst = Instance(n=n, p=(p,), utilities=w, noise=(np.eye(p)[groups],))
    return inst, raw / raw.sum(), lambda_, groups


def _labelled_case(w, groups, p, lambda_, target=None):
    """A mult_obj case on ``_labelled``'s instance, with equal shares unless ``target``."""
    inst, groups = _labelled(np.asarray(w, dtype=float), groups, p)
    return inst, np.full(p, 1.0 / p) if target is None else np.asarray(target), lambda_, groups


# the counts settle cuts only above a guard on the penalty's scale, at which
# every computed fill is within 1/(4P) of its exact value
EIGHT = (np.arange(9, 1, -1) / 10, [0, 0, 0, 0, 1, 1, 1, 1], 2)
ABOVE_THE_GUARD = _labelled_case(*EIGHT, 2.0)
BELOW_THE_GUARD = _labelled_case(*EIGHT, 1e-13)


@settings(max_examples=400, deadline=None)
@given(counted_cases())
@example(ABOVE_THE_GUARD)
@example(BELOW_THE_GUARD)
# tied utilities, at about half and twice the guard's scale
@example(_labelled_case(np.ones(8), [0, 1, 0, 1, 1, 1, 1, 1], 2, 2e-13))
@example(_labelled_case(np.ones(8), [0, 1, 0, 1, 1, 1, 1, 1], 2, 1e-12))
# a share near 0 at the largest lambda drawn
@example(_labelled_case([3.0, 2.0, 2.0, 1.0, 0.0, 1.0], [0, 1, 2, 0, 1, 2], 3, 1e8,
                        (1e-12, 0.5, 0.5 - 1e-12)))
def test_mult_obj_keeps_the_bytes_of_the_plain_bisection(case):
    assert mult_obj(*case).tobytes() == bisected_mult_obj(*case).tobytes()


@pytest.mark.parametrize("case, fewer", [(ABOVE_THE_GUARD, True), (BELOW_THE_GUARD, False)],
                         ids=["above-the-guard", "below-the-guard"])
def test_the_counts_settle_cuts_only_above_the_guard(monkeypatch, case, fewer):
    # each fill the bisection computes takes one np.exp, and so does the last step
    calls = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
    bisected_mult_obj(*case)
    plain = len(calls)
    calls.clear()
    mult_obj(*case)
    assert (len(calls) < plain) is fewer and len(calls) <= plain


def _best_on_a_grid(inst, target, lambda_, groups, points=4001):
    """The best objective over ``points`` evenly spaced values of group 0's
    sum, each with the best x for it: both groups filled by utility."""
    w, n, eps = inst.utilities, inst.n, KL_EPSILON
    g0 = np.linspace(max(0, n - np.count_nonzero(groups == 1)),
                     min(n, np.count_nonzero(groups == 0)), points)
    utility = 0.0
    for label, g in ((0, g0), (1, n - g0)):
        prefix = np.concatenate([[0.0], np.cumsum(np.sort(w[groups == label])[::-1])])
        utility = utility + np.interp(g, np.arange(prefix.size), prefix)
    d_s = (1 - eps) * np.stack([g0, n - g0]) / n + eps / 2
    t_s = (1 - eps) * np.asarray(target)[:, None] + eps / 2
    return float(np.max(utility - lambda_ * (d_s * np.log(d_s / t_s)).sum(axis=0) * w.mean()))


@settings(max_examples=100, deadline=None)
@given(mult_obj_cases(p=st.just(2)))
def test_mult_obj_no_group_split_beats_it(case):
    inst, target, lambda_, groups, _ = case
    f = mult_obj_objective(mult_obj(inst, target, lambda_, groups), inst, target, lambda_, groups)
    # evaluating the objective rounds in proportion to lambda: ~1e-11 at the drawn lambda <= 1e6
    assert f >= _best_on_a_grid(inst, target, lambda_, groups) - 1e-9 * max(1, abs(f))


def _sweep_draw(kind, m, seed, tau=0.0):
    inst = build_instance(GeneratorSpec(kind=kind, m=m, n=100, seed=seed_sequence(seed)), tau, 20)
    return inst, impute_bayes(inst.noise_matrix(0), seed=seed_sequence(seed, 3))


def _small_group_draw(sizes):
    # the last group has 30 members, fewer than n, so it can be filled whole
    rng = make_rng(11)
    p = len(sizes)
    groups = rng.permutation(np.repeat(np.arange(p), sizes))
    inst = Instance(n=100, p=(p,), utilities=rng.random(sum(sizes)), noise=(np.eye(p)[groups],))
    return inst, groups


@pytest.mark.parametrize("draw, target, lambda_", [
    (lambda: _sweep_draw(KIND_DISPARATE_UTILITY, 1000, 5, tau=0.3), (0.5, 0.5), 500.0),
    (lambda: _sweep_draw(KIND_DISPARATE_ERROR, 500, 6), (0.5, 0.5), 2500.0),
    (lambda: _small_group_draw([400, 370, 30]), (0.2, 0.3, 0.5), 500.0),
    (lambda: _small_group_draw([90] * 8 + [30]), np.arange(1, 10) / 45, 500.0),
], ids=["disparate-utility-m1000", "disparate-error-m500", "p3-small-group", "p9-small-group"])
def test_mult_obj_beats_the_reference_at_sweep_sizes(draw, target, lambda_):
    inst, imputed = draw()
    x = _assert_exact_and_at_least_the_reference(inst, target, lambda_, imputed)
    assert x.tobytes() == bisected_mult_obj(inst, target, lambda_, imputed).tobytes()


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


def test_dependent_round_builds_no_stream_for_a_binary_input(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a binary input drew from a stream")

    monkeypatch.setattr(selectors, "make_rng", no_stream)
    x = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    sel = dependent_round(x, 3, 0, np.arange(5.0), 4, 2)
    assert sel.chosen.tolist() == [False, True, True, False, True]
    assert sel.total_utility == 7.0
    with pytest.raises(AssertionError, match="drew from a stream"):
        dependent_round(np.array([0.5, 0.5, 1.0]), 2, 0, np.ones(3))


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
