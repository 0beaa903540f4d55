import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from fairselect.core import Instance, UnsupportedError, validate_instance
from fairselect.datagen import (GeneratorSpec, KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY,
                                _cell_rates, _draw_cells, estimate_q_by_utility_bins,
                                gen_disparate_error, gen_disparate_utility, inject_flip_noise,
                                truncated_normal)
from fairselect.metrics import risk_difference
from fairselect.selectors import blind, impute_bayes
from fairselect.seeding import make_rng, seed_sequence

from reference_bins import reference_estimate_q_by_utility_bins
from reference_draws import reference_cells, reference_truncated_normal


def error_spec(m, seed=0, **params):
    return GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=m, n=min(100, m), seed=seed,
                         params=params)


def utility_spec(m, seed=0, **params):
    return GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=m, n=min(100, m), seed=seed,
                         params=params)


# --- disparate error rates ---------------------------------------------

def test_disparate_error_instances_validate():
    inst = gen_disparate_error(error_spec(500, seed=3))
    assert validate_instance(inst) == ()
    assert inst.true_attrs is not None


def test_disparate_error_minority_fraction():
    inst = gen_disparate_error(error_spec(100_000, seed=1))
    assert abs(inst.noise[0][:, 0].mean() - 0.40) < 0.01
    assert abs((inst.true_attrs[:, 0] == 0).mean() - 0.40) < 0.015


def test_disparate_error_fdr_gap():
    inst = gen_disparate_error(error_spec(100_000, seed=2))
    imputed = impute_bayes(inst.noise[0], seed=0)
    z = inst.true_attrs[:, 0]
    fdr_minority = np.mean(z[imputed == 0] != 0)
    fdr_majority = np.mean(z[imputed == 1] != 1)
    assert abs(fdr_minority - 0.40) < 0.03
    assert abs(fdr_majority - 0.10) < 0.03


def test_disparate_error_zero_std_degenerates():
    inst = gen_disparate_error(error_spec(2000, seed=4, component_stds=(0.0, 0.0)))
    q0 = inst.noise[0][:, 0]
    assert set(np.round(q0, 12)) == {0.05, 0.6}


def test_disparate_error_unbiased_given_row():
    # binned by q, the empirical membership frequency tracks q itself
    inst = gen_disparate_error(error_spec(200_000, seed=5))
    q0 = inst.noise[0][:, 0]
    is0 = (inst.true_attrs[:, 0] == 0).astype(float)
    for lo in np.arange(0.0, 1.0, 0.1):
        members = (q0 >= lo) & (q0 < lo + 0.1)
        count = members.sum()
        if count < 500:
            continue
        centre = q0[members].mean()
        sigma = np.sqrt(centre * (1 - centre) / count)
        assert abs(is0[members].mean() - centre) <= 3 * sigma + 1e-3


def test_generators_bit_reproducible():
    a = gen_disparate_error(error_spec(1000, seed=9))
    b = gen_disparate_error(error_spec(1000, seed=9))
    assert a.utilities.tobytes() == b.utilities.tobytes()
    assert a.noise[0].tobytes() == b.noise[0].tobytes()
    assert a.true_attrs.tobytes() == b.true_attrs.tobytes()
    c = gen_disparate_utility(utility_spec(1000, seed=9))
    d = gen_disparate_utility(utility_spec(1000, seed=9))
    assert c.utilities.tobytes() == d.utilities.tobytes()


def test_truncated_normal_support_and_zero_std():
    rng = make_rng(0)
    draws = truncated_normal(rng, 0.05, 0.05, 20000)
    assert np.all((draws >= 0) & (draws <= 1))
    assert truncated_normal(make_rng(1), 0.6, 0.0, 5)[0] == 0.6


def _unit_values(m):
    """m values in [0, 1], zeros mixed in."""
    return arrays(float, m, elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))


@given(st.integers(0, 2**128), st.data())
def test_truncated_normal_matches_the_full_length_loop(seed, data):
    m = data.draw(st.integers(1, 600), label="m")
    mean, std = data.draw(_unit_values(m), label="mean"), data.draw(_unit_values(m), label="std")
    rng, ref = make_rng(seed), make_rng(seed)
    got, want = truncated_normal(rng, mean, std, m), reference_truncated_normal(ref, mean, std, m)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@given(st.integers(0, 2**128), st.integers(1, 600), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0))
def test_cell_draw_matches_choice(seed, m, minority, no_experience, joint_share):
    # joint_rate anywhere in its feasible range; the spec rejects what rounding breaks
    lo, hi = max(0.0, minority + no_experience - 1.0), min(minority, no_experience)
    rates = {"minority_rate": minority, "no_experience_rate": no_experience,
             "joint_rate": lo + joint_share * (hi - lo)}
    try:
        spec = utility_spec(m, **rates)
    except ValueError:
        assume(False)
    p = _cell_rates(spec.merged_params())
    rng, ref = make_rng(seed), make_rng(seed)
    assert _draw_cells(rng, p, m).tobytes() == reference_cells(ref, p, m).tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@given(st.integers(0, 2**128), st.integers(0, 600),
       st.lists(st.sampled_from([0.0, 0.1, 0.37, 1.0]), min_size=4, max_size=4))
def test_cell_draw_is_the_searchsorted_lookup(seed, m, weights):
    # a zero rate repeats a cdf entry, and a zero last rate leaves cdf entries at 1
    assume(sum(weights) > 0)
    rates = [v / sum(weights) for v in weights]
    rng, ref = make_rng(seed), make_rng(seed)
    cdf = np.cumsum(rates)
    cdf /= cdf[-1]
    want = cdf.searchsorted(ref.random(m), side="right")
    assert _draw_cells(rng, rates, m).tobytes() == want.tobytes()


# --- disparate utilities -----------------------------------------------

# With these params each item's utility is its cell 2z + a1 (group z, experience
# flag a1), and the draw takes the same random stream as at the defaults.
CELL_UTILITIES = {"utility_means": ((0.0, 1.0), (2.0, 3.0)), "feature_weight": 0.0,
                  "utility_std": 0.0}


def test_disparate_utility_rates():
    inst = gen_disparate_utility(utility_spec(10_000, seed=6, **CELL_UTILITIES))
    z = inst.true_attrs[:, 0]
    a1 = inst.utilities % 2
    assert abs((z == 0).mean() - 0.37) < 0.01
    assert abs((a1 == 0).mean() - 0.37) < 0.015
    assert abs(((z == 0) & (a1 == 0)).mean() - 0.137) < 0.01


def test_disparate_utility_group_gap_is_large():
    inst = gen_disparate_utility(utility_spec(10_000, seed=7))
    z = inst.true_attrs[:, 0]
    w = inst.utilities
    gap = w[z == 1].mean() - w[z == 0].mean()
    se = np.sqrt(w[z == 1].var() / (z == 1).sum() + w[z == 0].var() / (z == 0).sum())
    assert gap / se > 5.0


def test_disparate_utility_identical_means_proportional_blind():
    flat = ((2.0, 2.0), (2.0, 2.0))
    vals = []
    for trial in range(200):
        spec = GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=10_000, n=2000,
                             seed=seed_sequence(1000, trial),
                             params={"utility_means": flat})
        inst = gen_disparate_utility(spec)
        z = inst.true_attrs[:, 0]
        t = np.bincount(z, minlength=2) / inst.m
        sel = blind(inst)
        vals.append(risk_difference(np.bincount(z[sel.chosen], minlength=2), t, inst.n))
    assert abs(np.mean(vals) - 1.0) < 0.02


def test_disparate_utility_means_are_indexed_by_group_then_experience():
    inst = gen_disparate_utility(utility_spec(200, seed=7, **CELL_UTILITIES))
    # the group picks the row of utility_means, the experience flag the column
    assert np.array_equal(inst.utilities // 2, inst.true_attrs[:, 0])
    assert set(inst.utilities % 2) == {0.0, 1.0}


def test_disparate_utility_nonnegative():
    inst = gen_disparate_utility(utility_spec(20_000, seed=8))
    assert np.all(inst.utilities >= 0)


# --- flip noise ---------------------------------------------------------

def test_flip_noise_tau_zero_identity():
    inst = gen_disparate_utility(utility_spec(5000, seed=10))
    noisy = inject_flip_noise(inst, 0.0, seed=0)
    assert np.array_equal(noisy.noisy_attrs, inst.true_attrs)


def test_flip_noise_half_is_uninformative():
    inst = gen_disparate_utility(utility_spec(10_000, seed=11))
    noisy = inject_flip_noise(inst, 0.5, seed=12)
    z = noisy.true_attrs[:, 0].astype(float)
    zh = noisy.noisy_attrs[:, 0].astype(float)
    corr = np.corrcoef(z, zh)[0, 1]
    assert abs(corr) < 0.03


def test_flip_noise_fraction():
    inst = gen_disparate_utility(utility_spec(10_000, seed=13))
    noisy = inject_flip_noise(inst, 0.2, seed=14)
    flipped = (noisy.noisy_attrs != noisy.true_attrs).mean()
    assert abs(flipped - 0.20) < 0.01


def test_flip_noise_requires_binary():
    rng = np.random.default_rng(15)
    inst = Instance(n=2, p=(3,), utilities=rng.random(10),
                    noise=(rng.dirichlet([1, 1, 1], 10),),
                    true_attrs=rng.integers(0, 3, (10, 1)))
    with pytest.raises(UnsupportedError):
        inject_flip_noise(inst, 0.1, seed=0)


# --- utility binning ------------------------------------------------------

def test_utility_bins_single_bin_global_frequency():
    inst = gen_disparate_utility(utility_spec(1000, seed=16))
    q = estimate_q_by_utility_bins(inst, 1, train=inst)
    base = (inst.true_attrs[:, 0] == 0).mean()
    assert np.allclose(q[:, 0], base)
    assert np.allclose(q.sum(axis=1), 1.0)


def test_utility_bins_pure_bins():
    inst = Instance(n=2, p=(2,), utilities=[1.0, 2.0, 3.0, 4.0],
                    noise=None, true_attrs=[[0], [0], [1], [1]])
    q = estimate_q_by_utility_bins(inst, 2, train=inst)
    assert np.allclose(q[0], [1.0, 0.0]) and np.allclose(q[1], [1.0, 0.0])
    assert np.allclose(q[2], [0.0, 1.0]) and np.allclose(q[3], [0.0, 1.0])


def test_utility_bins_independent_labels_near_base_rate():
    rng = make_rng(17)
    m = 20_000
    w = rng.random(m)
    z = (rng.random(m) < 0.63).astype(int)  # label 0 has rate 0.37
    inst = Instance(n=100, p=(2,), utilities=w, noise=None,
                    true_attrs=z[:, None])
    q = estimate_q_by_utility_bins(inst, 20, train=inst)
    assert np.all(np.abs(q[:, 0] - 0.37) < 0.05)


def test_utility_bins_last_bin_absorbs_remainder():
    inst = Instance(n=2, p=(2,), utilities=np.arange(7, dtype=float),
                    noise=None, true_attrs=[[0]] * 3 + [[1]] * 4)
    q = estimate_q_by_utility_bins(inst, 3, train=inst)
    # bins of sizes 2, 2, 3 over sorted utilities
    assert np.allclose(q[6], q[4])


def test_utility_bins_transfer_to_fresh_instance():
    train = gen_disparate_utility(utility_spec(4000, seed=18))
    fresh = gen_disparate_utility(utility_spec(4000, seed=19))
    q = estimate_q_by_utility_bins(fresh, 20, train=train)
    assert q.shape == (4000, 2)
    assert np.allclose(q.sum(axis=1), 1.0)
    # low-utility items must look more likely minority than high-utility ones
    order = np.argsort(fresh.utilities)
    assert q[order[:400], 0].mean() > q[order[-400:], 0].mean() + 0.2


@given(st.integers(2, 12), st.integers(1, 8), st.integers(1, 3), st.data())
def test_utility_bins_match_the_per_bin_loop(b, per_bin, p, data):
    # m % b != 0, so the last bin absorbs a remainder; utilities are few
    # integers, so ties straddle the bin edges, and the fresh instance's
    # half-integers fall on, between and outside the training range
    m = b * per_bin + data.draw(st.integers(1, b - 1))
    w = data.draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    z = data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    fresh_w = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=20))
    train = Instance(n=1, p=(p,), utilities=w, noise=None, true_attrs=[[v] for v in z])
    fresh = Instance(n=1, p=(p,), utilities=np.array(fresh_w) / 2.0, noise=None)
    got = estimate_q_by_utility_bins(fresh, b, train=train)
    want = reference_estimate_q_by_utility_bins(fresh, b, train=train)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("b", [1, 7, 20, 200])
def test_utility_bins_are_the_searchsorted_lookup_with_clamped_zeros(b):
    # at b=200 a bin holds 5 items, so more than 5 clamped training zeros put the first
    # edge at 0.0, which the fresh zeros are looked up on
    train = gen_disparate_utility(utility_spec(1000, seed=21))
    fresh = gen_disparate_utility(utility_spec(1000, seed=22))
    assert np.count_nonzero(train.utilities == 0.0) > 1000 // 200
    assert np.count_nonzero(fresh.utilities == 0.0) > 1
    got = estimate_q_by_utility_bins(fresh, b, train=train)
    want = reference_estimate_q_by_utility_bins(fresh, b, train=train)
    assert got.tobytes() == want.tobytes()


def test_utility_bins_rejects_too_many_bins():
    inst = gen_disparate_utility(utility_spec(10, seed=20))
    with pytest.raises(ValueError):
        estimate_q_by_utility_bins(inst, 11, train=inst)


def test_utility_bins_read_the_bin_count_as_a_config_does():
    # a config reads "bins": 3.0 as 3; a fraction or a boolean is no bin count
    inst = gen_disparate_utility(utility_spec(10, seed=20))
    want = estimate_q_by_utility_bins(inst, 3, train=inst)
    for b in (3.0, np.int64(3)):
        assert estimate_q_by_utility_bins(inst, b, train=inst).tobytes() == want.tobytes()
    for b in (2.5, True):
        with pytest.raises(ValueError, match=f"bins must be an integer, not {b!r}"):
            estimate_q_by_utility_bins(inst, b, train=inst)


def test_generator_spec_rejects_unknown_params():
    with pytest.raises(ValueError, match=r"disparate_error generator params: \['mixture_weight'\]"):
        error_spec(10, mixture_weight=(0.5, 0.5))
    # each kind takes only its own parameters
    with pytest.raises(ValueError, match=r"\['component_means'\]"):
        utility_spec(10, component_means=(0.6, 0.05))
