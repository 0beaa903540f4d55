import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairselect.core import Instance, Selection
from fairselect.metrics import (compute_report, dcg, ndcg, ndcg_for_selection,
                                risk_difference, selection_lift, selection_rate,
                                utility_ratio)


def mask_with_counts(counts, per_group):
    """Selection mask and group column realizing the given per-group counts."""
    groups = np.concatenate([np.full(size, g) for g, size in enumerate(per_group)])
    mask = np.zeros(len(groups), dtype=int)
    start = 0
    for g, size in enumerate(per_group):
        mask[start:start + counts[g]] = 1
        start += size
    return mask, groups


def test_risk_difference_balanced():
    mask, groups = mask_with_counts([5, 5], [20, 20])
    assert risk_difference(mask, groups, [0.5, 0.5], 10) == 1.0


def test_risk_difference_max_disparity():
    mask, groups = mask_with_counts([10, 0], [20, 20])
    assert risk_difference(mask, groups, [0.5, 0.5], 10) == 0.0


def test_risk_difference_partial():
    mask, groups = mask_with_counts([7, 3], [20, 20])
    assert risk_difference(mask, groups, [0.5, 0.5], 10) == pytest.approx(0.6)


def test_risk_difference_rejects_zero_target():
    mask, groups = mask_with_counts([5, 5], [20, 20])
    with pytest.raises(ValueError):
        risk_difference(mask, groups, [1.0, 0.0], 10)


def test_risk_difference_requires_size_n():
    mask, groups = mask_with_counts([5, 4], [20, 20])
    with pytest.raises(ValueError):
        risk_difference(mask, groups, [0.5, 0.5], 10)


@given(st.permutations(range(4)))
def test_risk_difference_invariant_under_relabeling(perm):
    counts = [4, 3, 2, 1]
    t = np.array([0.4, 0.3, 0.2, 0.1])
    mask, groups = mask_with_counts(counts, [10, 10, 10, 10])
    base = risk_difference(mask, groups, t, 10)
    perm = list(perm)
    relabeled = np.array([perm[g] for g in groups])
    t_perm = np.empty(4)
    for old, new in enumerate(perm):
        t_perm[new] = t[old]
    assert risk_difference(mask, relabeled, t_perm, 10) == pytest.approx(base)


def test_risk_difference_one_iff_proportional_to_target():
    mask, groups = mask_with_counts([6, 3, 1], [20, 20, 20])
    t = np.array([0.6, 0.3, 0.1])
    assert risk_difference(mask, groups, t, 10) == pytest.approx(1.0)
    assert selection_lift(mask, groups, t, 10) == pytest.approx(1.0)


def test_selection_lift_balanced():
    mask, groups = mask_with_counts([5, 5], [20, 20])
    assert selection_lift(mask, groups, [0.5, 0.5], 10) == 1.0


def test_selection_lift_partial():
    mask, groups = mask_with_counts([7, 3], [20, 20])
    assert selection_lift(mask, groups, [0.5, 0.5], 10) == pytest.approx(3 / 7)


def test_selection_lift_zero_convention():
    mask, groups = mask_with_counts([10, 0], [20, 20])
    assert selection_lift(mask, groups, [0.5, 0.5], 10) == 0.0


def test_selection_rate_proportional_is_one():
    mask, groups = mask_with_counts([4, 6], [40, 60])
    for g in range(2):
        assert selection_rate(mask, groups, g, 10, 100) == pytest.approx(1.0)


def test_selection_rate_formula():
    mask, groups = mask_with_counts([4, 6], [40, 60])
    assert selection_rate(mask, groups, 0, 10, 100) == pytest.approx((4 / 10) * (100 / 40))


def test_selection_rate_zero_count():
    mask, groups = mask_with_counts([0, 10], [40, 60])
    assert selection_rate(mask, groups, 0, 10, 100) == 0.0


def test_selection_rate_empty_group_rejected():
    mask, groups = mask_with_counts([10, 0], [20, 20])
    with pytest.raises(ValueError):
        selection_rate(mask, groups, 3, 10, 40)


def test_selection_rate_equal_iff_lift_one_under_proportional_target():
    m = 100
    mask, groups = mask_with_counts([4, 6], [40, 60])
    t = np.array([0.4, 0.6])
    rates = [selection_rate(mask, groups, g, 10, m) for g in range(2)]
    assert rates[0] == pytest.approx(rates[1])
    assert selection_lift(mask, groups, t, 10) == pytest.approx(1.0)


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
        counts = rng.multinomial(10, [0.5, 0.5])
        mask, groups = mask_with_counts(counts, [20, 20])
        vals.append(risk_difference(mask, groups, [0.5, 0.5], 10))
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
