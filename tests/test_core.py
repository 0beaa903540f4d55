import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairselect.core import (Instance, Selection, constraints_from_alpha,
                             instance_from_dict, instance_to_dict, load_instance,
                             make_constraints, save_instance, smallest, top_n, validate_instance,
                             violation_report)

from conftest import fact_one_constraints, fact_one_instance


def test_validate_tiny_ok(tiny):
    assert validate_instance(tiny) == ()


def test_validate_bad_row_sum():
    inst = Instance(n=1, p=(2,), utilities=[1.0, 1.0],
                    noise=([[0.6, 0.6], [0.5, 0.5]],))
    violations = validate_instance(inst)
    assert any("sums to" in v for v in violations)


def test_validate_n_exceeds_m():
    inst = Instance(n=5, p=(2,), utilities=np.ones(4),
                    noise=(np.full((4, 2), 0.5),))
    violations = validate_instance(inst)
    assert any("exceeds item count" in v for v in violations)


def test_validate_negative_utility():
    inst = Instance(n=1, p=(2,), utilities=[1.0, -0.5],
                    noise=(np.full((2, 2), 0.5),))
    assert validate_instance(inst) == ("negative utility at item 1",)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_non_finite_utility(bad):
    inst = Instance(n=1, p=(2,), utilities=[1.0, bad],
                    noise=(np.full((2, 2), 0.5),))
    violations = validate_instance(inst)
    assert violations == ("non-finite utility at item 1",)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_non_finite_noise(bad):
    inst = Instance(n=1, p=(2,), utilities=[1.0, 2.0, 3.0],
                    noise=([[0.5, 0.5], [0.5, 0.5], [bad, 0.5]],))
    violations = validate_instance(inst)
    assert violations == ("non-finite noise entry (item 2, attribute 0)",)


def test_rows_renormalized_on_ingestion():
    q = np.array([[0.5, 0.5 + 5e-10], [0.3, 0.7]])
    inst = Instance(n=1, p=(2,), utilities=[1.0, 1.0], noise=(q,))
    assert np.all(np.abs(inst.noise[0].sum(axis=1) - 1.0) < 1e-15)


@pytest.mark.parametrize("p", [2, 9])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rows_renormalized_as_summed_in_the_input_layout(p, order):
    # a by-column file gives an F-order q; from p = 8 on, numpy adds up its
    # rows in another order than a C-order copy's, and the bits can differ
    rng = np.random.default_rng(p)
    q = rng.dirichlet(np.ones(p), 500)
    q[::2] *= 1.0 + 4e-10  # inside the tolerance, so these rows are divided
    q = np.asarray(q, order=order)
    sums = q.sum(axis=1)
    expected = q / np.where(np.abs(sums - 1.0) <= 1e-9, sums, 1.0)[:, None]
    stored = Instance(n=1, p=(p,), utilities=np.ones(500), noise=(q,)).noise[0]
    assert stored.tobytes() == np.ascontiguousarray(expected).tobytes()
    assert stored.flags.c_contiguous and q.flags.writeable


def test_instance_immutable(tiny):
    with pytest.raises(ValueError):
        tiny.utilities[0] = 99.0


def test_constraints_from_alpha_endpoints():
    cs0 = constraints_from_alpha(100, [0.5, 0.5], alpha=0.0)
    assert np.allclose(cs0.upper[0], [100.0, 100.0])
    cs1 = constraints_from_alpha(100, [0.5, 0.5], alpha=1.0)
    assert np.allclose(cs1.upper[0], [50.0, 50.0])


def test_constraints_from_alpha_midpoint():
    cs = constraints_from_alpha(100, [0.25] * 4, alpha=0.5)
    assert np.allclose(cs.upper[0], [62.5] * 4)
    assert np.allclose(cs.lower[0], 0.0)


def test_constraints_from_alpha_rejects_bad_target():
    with pytest.raises(ValueError):
        constraints_from_alpha(10, [0.5, 0.6], alpha=0.5)


@pytest.mark.parametrize("t", [[[0.5, 0.5]], [float("nan"), 1.0], [float("nan")] * 2],
                         ids=["2-d", "one-nan", "all-nan"])
def test_constraints_from_alpha_rejects_a_target_that_is_not_a_vector_of_shares(t):
    # a 2-d target gave (1, 2) upper bounds; a NaN surfaced as a non-finite bound
    with pytest.raises(ValueError, match="target must be a probability vector"):
        constraints_from_alpha(10, t, alpha=0.5)


@given(st.integers(2, 6), st.floats(0, 1), st.floats(0, 1))
def test_constraints_from_alpha_monotone(p, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    t = np.full(p, 1.0 / p)
    u_loose = constraints_from_alpha(50, t, alpha=lo).upper[0]
    u_tight = constraints_from_alpha(50, t, alpha=hi).upper[0]
    assert np.all(u_loose >= u_tight - 1e-12)


def test_make_constraints_clamps_to_n():
    cs = make_constraints([[0.0, 0.0]], [[7.0, 2.0]], delta=0.0, n=5)
    assert np.allclose(cs.upper[0], [5.0, 2.0])


def test_constraints_reject_crossed_bounds():
    with pytest.raises(ValueError):
        make_constraints([[3.0]], [[2.0]], delta=0.0, n=5)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=40), st.data())
def test_top_n_matches_a_stable_sort(scores, data):
    # few distinct values, so most cuts fall inside a run of ties
    s = np.array(scores, dtype=float)
    n = data.draw(st.integers(0, s.size))
    picked = top_n(s, n)
    expected = np.argsort(-s, kind="stable")[:n]
    assert set(picked.tolist()) == set(expected.tolist())
    count = data.draw(st.integers(1, s.size))
    # the ratio test reads the order's count-th entry off the end
    assert smallest(s, count)[-1] == np.argsort(s, kind="stable")[count - 1]


def test_selection_consistency(tiny):
    sel = Selection.from_mask([1, 0, 0, 1], tiny.utilities)
    assert sel.total_utility == 3.5
    assert sel.cardinality == 2
    assert sel.chosen.dtype == bool and list(sel.indices) == [0, 3]


def test_violation_report_feasible_point(tiny, tiny_constraints):
    rep = violation_report([1, 0, 0, 1], tiny, tiny_constraints, attrs="true")
    assert rep.max_violation == 0.0
    assert rep.cardinality_excess == 0.0
    assert all(np.all(v == 0) for v in rep.fairness)


def test_violation_report_cardinality_excess(tiny, tiny_constraints):
    rep = violation_report([1, 1, 0, 1], tiny, tiny_constraints, attrs="true")
    assert rep.cardinality_excess == 1.0


def test_violation_report_fact_one_rounded():
    inst = fact_one_instance(2)
    cs = fact_one_constraints(2)
    rep = violation_report([1, 1, 1], inst, cs, attrs="expected")
    assert rep.cardinality_excess == 1.0
    assert all(np.all(v <= 1.0) for v in rep.fairness)
    assert rep.max_violation == pytest.approx(0.5)


def test_violation_report_requires_true_attrs():
    inst = fact_one_instance(2)
    with pytest.raises(ValueError):
        violation_report([1, 1, 0], inst, fact_one_constraints(2), attrs="true")


def test_violation_report_matches_recount(tiny, tiny_constraints):
    rng = np.random.default_rng(0)
    for _ in range(50):
        mask = (rng.random(4) < 0.5).astype(int)
        rep = violation_report(mask, tiny, tiny_constraints, attrs="true")
        counts = np.bincount(tiny.true_attrs[mask > 0, 0], minlength=2)
        expect = np.maximum(0, np.maximum(tiny_constraints.lower[0] - counts,
                                          counts - tiny_constraints.upper[0]))
        assert np.allclose(rep.fairness[0], expect)


def test_instance_json_roundtrip(tiny, tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(tiny, path)
    loaded = load_instance(path)
    assert loaded.m == tiny.m and loaded.n == tiny.n and loaded.p == tiny.p
    assert np.array_equal(loaded.utilities, tiny.utilities)
    assert np.array_equal(loaded.noise[0], tiny.noise[0])
    assert np.array_equal(loaded.true_attrs, tiny.true_attrs)


def test_instance_json_field_names(tiny):
    data = instance_to_dict(tiny)
    assert set(data) == {"n", "p", "w", "q", "z"}
    assert data["w"] == [3.0, 2.5, 1.0, 0.5]
    assert data["z"] == [[0, 0, 0, 1]]
    again = instance_from_dict(json.loads(json.dumps(data)))
    assert np.array_equal(again.noise[0], tiny.noise[0])


def test_instance_json_optional_fields_roundtrip(tmp_path):
    inst = Instance(n=1, p=(2,), utilities=[1.0, 2.0],
                    noise=(np.full((2, 2), 0.5),),
                    noisy_attrs=[[1], [0]])
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.noisy_attrs, inst.noisy_attrs)
    assert loaded.true_attrs is None


def test_instance_file_stores_matrices_by_group_value():
    q0 = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    inst = Instance(n=2, p=(3, 2), utilities=np.arange(5.0),
                    noise=(q0, np.full((5, 2), 0.5)),
                    true_attrs=[[0, 1], [1, 0], [2, 1], [0, 0], [1, 1]])
    assert validate_instance(inst) == ()
    data = instance_to_dict(inst)
    for k, pk in enumerate(inst.p):
        assert len(data["q"][k]) == pk
        for value in range(pk):
            assert data["q"][k][value] == inst.noise[k][:, value].tolist()
    assert data["z"] == [[0, 1, 2, 0, 1], [1, 0, 1, 0, 1]]
    # a file in the earlier one-row-per-item layout loads transposed and fails validation
    rows = {**data, "q": [np.transpose(q).tolist() for q in data["q"]]}
    assert "noise block 0 shape (3, 5) != (5, 3)" in validate_instance(instance_from_dict(rows))


@st.composite
def saved_instances(draw):
    """Instances with any finite utilities, dyadic probability rows (they
    sum to exactly 1, so loading does not renormalize them) and z and zhat
    each present or absent; m = p_k is drawn on purpose."""
    s = draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))
    m = draw(st.one_of(st.sampled_from(p), st.integers(1, 50)))
    w = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=m, max_size=m))
    scale = 2 ** 20
    noise = []
    for pk in p:
        cuts = draw(arrays(np.int64, (m, pk - 1), elements=st.integers(0, scale)))
        edges = np.hstack([np.zeros((m, 1), np.int64), np.sort(cuts, axis=1),
                           np.full((m, 1), scale)])
        noise.append(np.diff(edges, axis=1) / scale)
    attrs = st.one_of(st.none(), st.tuples(*(arrays(np.int64, m, elements=st.integers(0, pk - 1))
                                             for pk in p)).map(np.column_stack))
    return Instance(n=draw(st.integers(1, m)), p=p, utilities=w, noise=noise,
                    true_attrs=draw(attrs), noisy_attrs=draw(attrs))


@settings(max_examples=150, deadline=None)
@given(saved_instances())
def test_instance_file_roundtrip_is_exact(tmp_path_factory, inst):
    path = tmp_path_factory.mktemp("roundtrip") / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert (loaded.m, loaded.n, loaded.s, loaded.p) == (inst.m, inst.n, inst.s, inst.p)
    for before, after in [(inst.utilities, loaded.utilities), *zip(inst.noise, loaded.noise),
                          (inst.true_attrs, loaded.true_attrs),
                          (inst.noisy_attrs, loaded.noisy_attrs)]:
        if before is None:
            assert after is None
            continue
        assert (after.dtype, after.shape) == (before.dtype, before.shape)
        assert after.tobytes() == before.tobytes()


def test_package_exports_resolve():
    import fairselect
    assert [name for name in fairselect.__all__ if not hasattr(fairselect, name)] == []
