import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from fairselect import metrics
from fairselect.core import Instance, Selection, target_vector
from fairselect.metrics import (compute_report, dcg, ndcg, ndcg_for_selection,
                                risk_difference, selection_lift, selection_rates,
                                utility_ratio)

import reference_count_metrics
import reference_metrics


def test_risk_difference_balanced():
    assert risk_difference([5, 5], [0.5, 0.5], 10) == 1.0


def test_risk_difference_max_disparity():
    assert risk_difference([10, 0], [0.5, 0.5], 10) == 0.0


def test_risk_difference_partial():
    assert risk_difference([7, 3], [0.5, 0.5], 10) == pytest.approx(0.6)


def test_risk_difference_rejects_zero_target():
    with pytest.raises(ValueError):
        risk_difference([5, 5], [1.0, 0.0], 10)


def test_risk_difference_requires_size_n():
    with pytest.raises(ValueError):
        risk_difference([5, 4], [0.5, 0.5], 10)


@given(st.permutations(range(4)))
def test_risk_difference_invariant_under_relabeling(perm):
    counts = np.array([4.0, 3.0, 2.0, 1.0])
    t = np.array([0.4, 0.3, 0.2, 0.1])
    base = risk_difference(counts, t, 10)
    counts_perm, t_perm = np.empty(4), np.empty(4)
    counts_perm[list(perm)] = counts
    t_perm[list(perm)] = t
    assert risk_difference(counts_perm, t_perm, 10) == pytest.approx(base)


def test_risk_difference_one_iff_proportional_to_target():
    t = np.array([0.6, 0.3, 0.1])
    assert risk_difference([6, 3, 1], t, 10) == pytest.approx(1.0)
    assert selection_lift([6, 3, 1], t, 10) == pytest.approx(1.0)


def test_selection_lift_balanced():
    assert selection_lift([5, 5], [0.5, 0.5], 10) == 1.0


def test_selection_lift_partial():
    assert selection_lift([7, 3], [0.5, 0.5], 10) == pytest.approx(3 / 7)


def test_selection_lift_zero_convention():
    assert selection_lift([10, 0], [0.5, 0.5], 10) == 0.0


def test_selection_rate_proportional_is_one():
    assert selection_rates([4, 6], [40, 60], 10, 100) == pytest.approx((1.0, 1.0))


def test_selection_rate_formula():
    rates = selection_rates([4, 6], [40, 60], 10, 100)
    assert rates[0] == pytest.approx((4 / 10) * (100 / 40))


def test_selection_rate_zero_count():
    assert selection_rates([0, 10], [40, 60], 10, 100)[0] == 0.0


def test_selection_rates_of_an_empty_group_are_none():
    rates = selection_rates([10, 0, 0, 0], [20, 20, 0, 0], 10, 40)
    assert rates == (2.0, 0.0, None, None)
    assert all(type(r) is float for r in rates[:2])


def test_selection_rate_equal_iff_lift_one_under_proportional_target():
    rates = selection_rates([4, 6], [40, 60], 10, 100)
    assert rates[0] == pytest.approx(rates[1])
    assert selection_lift([4, 6], [0.4, 0.6], 10) == pytest.approx(1.0)


def test_utility_ratio():
    assert utility_ratio(5.5, 5.5) == 1.0
    assert utility_ratio(3.5, 5.5) == pytest.approx(0.636364, abs=1e-6)
    assert utility_ratio(0.0, 5.5) == 0.0
    with pytest.raises(ValueError):
        utility_ratio(1.0, 0.0)


def test_ndcg_identity():
    assert ndcg([3.0, 2.5], [3.0, 2.5]) == 1.0


def test_ndcg_zero_gains():
    assert ndcg([0.0, 0.0], [3.0, 2.5]) == 0.0


def test_ndcg_two_item_example():
    # gains (3, 1) against ideal (3, 2.5) under log2(rank+1) discounts
    expected = (3.0 + 1.0 / math.log2(3)) / (3.0 + 2.5 / math.log2(3))
    assert ndcg([3.0, 1.0], [3.0, 2.5]) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.7932428311875702, abs=1e-12)


def test_ndcg_for_selection_orders_by_utility():
    utilities = np.array([1.0, 3.0, 2.5, 0.5])
    assert ndcg_for_selection(utilities, [0, 1, 1, 0]) == 1.0
    got = ndcg_for_selection(utilities, [1, 1, 0, 0])
    expected = dcg([3.0, 1.0]) / dcg([3.0, 2.5])
    assert got == pytest.approx(expected)


def test_metrics_mean_of_trials_equals_trial_mean():
    # metrics are pure, so averaging commutes with evaluation
    rng = np.random.default_rng(0)
    vals = []
    for _ in range(20):
        vals.append(risk_difference(rng.multinomial(10, [0.5, 0.5]), [0.5, 0.5], 10))
    assert np.mean(vals) == pytest.approx(sum(vals) / len(vals))


def test_compute_report_refuses_missing_true_attrs():
    inst = Instance(n=2, p=(2,), utilities=[3.0, 2.5, 1.0, 0.5],
                    noise=(np.full((4, 2), 0.5),))
    sel = Selection.from_mask([1, 1, 0, 0], inst.utilities)
    with pytest.raises(ValueError):
        compute_report(inst, sel, [0.5, 0.5], 5.5)


def test_compute_report_fields(tiny):
    sel = Selection.from_mask([1, 0, 0, 1], tiny.utilities)
    report = compute_report(tiny, sel, [0.5, 0.5], 5.5, with_ndcg=True)
    assert report.risk_difference == pytest.approx(1.0)
    assert report.utility_ratio == pytest.approx(3.5 / 5.5)
    assert len(report.selection_rates) == 2
    assert 0.0 <= report.ndcg <= 1.0


@st.composite
def labelled_selections(draw):
    """(selection mask, true group labels, p): some groups empty, some
    selected in full, at least one item selected."""
    p = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(0, 6), min_size=p, max_size=p))
    counts = [draw(st.sampled_from([0, size]) | st.integers(0, size)) for size in sizes]
    assume(sum(counts) > 0)
    groups = np.repeat(np.arange(p), sizes)
    mask = np.concatenate([np.arange(size) < count for size, count in zip(sizes, counts)])
    order = np.array(draw(st.permutations(range(len(groups)))), dtype=int)
    return mask[order], groups[order], p


def _bits(value):
    return None if value is None else float(value).hex()


@given(labelled_selections(), st.booleans())
def test_compute_report_matches_the_mask_reference(drawn, proportional):
    mask, groups, p = drawn
    m, n = len(groups), int(mask.sum())
    inst = Instance(n=n, p=(p,), utilities=np.arange(m, 0, -1.0), noise=None,
                    true_attrs=groups[:, None])
    sel = Selection.from_mask(mask, inst.utilities)
    t = target_vector(inst, proportional)
    u_blind = float(inst.utilities[:n].sum())
    try:
        expected = (reference_metrics.risk_difference(mask, groups, t, n),
                    reference_metrics.selection_lift(mask, groups, t, n))
    except ValueError as exc:  # a proportional target with an empty group
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            compute_report(inst, sel, t, u_blind)
        return
    report = compute_report(inst, sel, t, u_blind, with_ndcg=True)
    rates = reference_metrics.reference_rates(mask, groups, p, n, m)
    assert [_bits(report.risk_difference), _bits(report.selection_lift)] == \
        [_bits(v) for v in expected]
    assert [_bits(r) for r in report.selection_rates] == [_bits(r) for r in rates]
    assert _bits(report.utility_ratio) == _bits(utility_ratio(sel.total_utility, u_blind))
    assert _bits(report.ndcg) == _bits(ndcg_for_selection(inst.utilities, mask))


# a target entry: NaN, infinity, zero and negatives beside ordinary shares
TARGET_ENTRIES = st.sampled_from([np.nan, np.inf, 0.0, -0.5, 5e-324, 0.25, 0.5, 1.0]) | \
    st.floats(1e-3, 1.0)


@st.composite
def count_vectors(draw):
    """(counts, sizes, t, n, m) for p = 1..8 groups and n >= 1: counts that
    sum to n or not, as ints or floats, with a NaN or a negative count now
    and then."""
    p = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 30), min_size=p, max_size=p))
    sizes = [c + draw(st.integers(0, 20)) for c in counts]
    n = draw(st.just(max(sum(counts), 1)) | st.integers(1, 100))
    if draw(st.booleans()):
        counts = [float(c) for c in counts]
        counts[draw(st.integers(0, p - 1))] = draw(st.sampled_from([np.nan, -1.0, 0.5, 0.0]))
    t = draw(st.lists(TARGET_ENTRIES, min_size=p, max_size=p))
    as_array = draw(st.booleans())
    return (np.array(counts) if as_array else counts, sizes, np.array(t) if as_array else t,
            n, sum(sizes) + draw(st.integers(0, 50)))


def _outcome(metric, *args):
    """The bits of metric(*args), or its ValueError's message."""
    try:
        with np.errstate(all="ignore"):
            value = metric(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    return [_bits(v) for v in value] if isinstance(value, tuple) else _bits(value)


@given(count_vectors())
def test_count_metrics_match_the_numpy_reference(drawn):
    counts, sizes, t, n, m = drawn
    for name, args in [("risk_difference", (counts, t, n)), ("selection_lift", (counts, t, n)),
                       ("selection_rates", (counts, sizes, n, m))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the Python-float path warns on nothing
            got = _outcome(getattr(metrics, name), *args)
        assert got == _outcome(getattr(reference_count_metrics, name), *args), name
