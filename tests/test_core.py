import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from fairselect.core import (ROW_SUM_TOL, ConstraintSet, Instance, Selection, ViolationReport,
                             _renormalized, constraints_from_alpha, instance_from_dict,
                             instance_to_dict, load_instance, make_constraints, save_instance,
                             smallest, stable_order, top_n, validate_instance,
                             violation_report)
from fairselect.lp import BfsSolution, LinearProgram
from fairselect.seeding import make_rng

from conftest import fact_one_constraints, fact_one_instance
from reference_bookkeeping import (reference_constraints_from_alpha, reference_make_constraints,
                                   reference_validate_instance, reference_violation_report)


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
    assert validate_instance(inst) == ("n must lie in [1, m=4], not 5",)


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


def _file_data(q, **fields):
    """An instance file's data holding the (m, p) rows ``q`` and m unit utilities."""
    return {"n": 1, "p": [q.shape[1]], "w": [1.0] * len(q), "q": [q.T.tolist()], **fields}


def test_rows_renormalized_on_ingestion():
    q = np.array([[0.5, 0.5 + 5e-10], [0.3, 0.7]])
    inst = instance_from_dict(_file_data(q))
    assert np.all(np.abs(inst.noise[0].sum(axis=1) - 1.0) < 1e-15)


@pytest.mark.parametrize("p", [2, 9])
@pytest.mark.parametrize("order", ["C", "F"])
def test_rows_renormalized_as_summed_in_the_input_layout(p, order):
    # a file gives an F-order q, one list per group value; from p = 8 on, numpy adds up
    # its rows in another order than a C-order copy's, and the bits can differ
    rng = np.random.default_rng(p)
    q = rng.dirichlet(np.ones(p), 500)
    q[::2] *= 1.0 + 4e-10  # inside the tolerance, so these rows are divided
    q = np.asarray(q, order=order)
    sums = q.sum(axis=1)
    expected = np.ascontiguousarray(q / np.where(np.abs(sums - 1.0) <= 1e-9, sums, 1.0)[:, None])
    assert np.ascontiguousarray(_renormalized(q.copy(order="K"))).tobytes() == expected.tobytes()
    if order == "F":  # the layout a file is read in
        stored = instance_from_dict(_file_data(q)).noise[0]
        assert stored.tobytes() == expected.tobytes() and stored.flags.c_contiguous


def test_an_instance_keeps_its_rows_as_given():
    # rows off 1 by up to ROW_SUM_TOL were divided again on each construction, and a
    # divided row can still miss 1 by an ulp, so each rebuild moved q's last bits
    rng = np.random.default_rng(5)
    q = rng.dirichlet(np.ones(3), 300)
    q *= 1.0 + rng.uniform(-0.5, 0.5, (300, 1)) * ROW_SUM_TOL
    inst = Instance(n=1, p=(3,), utilities=np.ones(300), noise=(q,),
                    true_attrs=np.zeros((300, 1), dtype=int))
    rebuilt = [inst, replace(inst, n=2), replace(inst, noisy_attrs=np.ones((300, 1), dtype=int))]
    assert validate_instance(inst) == ()
    assert all(other.noise[0].tobytes() == q.tobytes() for other in rebuilt)


def test_instance_immutable(tiny):
    with pytest.raises(ValueError):
        tiny.utilities[0] = 99.0


def _stored_arrays(obj):
    """Every array a frozen type keeps; a LinearProgram's rows are a view of its augmented."""
    if isinstance(obj, Instance):
        return [obj.utilities, *obj.noise, obj.true_attrs, obj.noisy_attrs]
    if isinstance(obj, Selection):
        return [obj.chosen]
    if isinstance(obj, LinearProgram):
        assert obj.rows.base is obj.augmented
        return [obj.objective, obj.augmented, obj.row_lower, obj.row_upper]
    if isinstance(obj, BfsSolution):
        return [obj.x]
    if isinstance(obj, ViolationReport):
        return [*obj.fairness]
    return [*obj.lower, *obj.upper]


# each builds a frozen type from the arrays it is given: as they are, or as views of them
BUILDS = {
    "instance": lambda a: Instance(n=1, p=(2,), utilities=a["w"], noise=(a["q"],),
                                   true_attrs=a["z"], noisy_attrs=a["zhat"]),
    "constraints": lambda a: ConstraintSet(lower=(a["lo"],), upper=(a["hi"],), delta=0.0),
    "selection": lambda a: Selection(chosen=a["mask"], total_utility=1.0),
    "from-mask": lambda a: Selection.from_mask(a["mask"], a["w"]),
    "linear-program": lambda a: LinearProgram(objective=a["w"], rows=a["q"], row_lower=a["lo"],
                                              row_upper=a["hi"]),
    "linear-program-blocks": lambda a: LinearProgram(
        objective=a["w"], rows=(a["q"][:1], a["q"][1:]), row_lower=a["lo"], row_upper=a["hi"]),
    "bfs-solution": lambda a: BfsSolution(x=a["w"]),
    "violation-report": lambda a: ViolationReport(fairness=(a["lo"], a["hi"]),
                                                  cardinality_excess=0.0, max_violation=0.0),
}


def _caller_arrays():
    return {"w": np.array([1.0, 2.0]), "q": np.array([[0.5, 0.5], [0.25, 0.75]]),
            "z": np.array([[0], [1]]), "zhat": np.array([[1], [1]]), "lo": np.zeros(2),
            "hi": np.ones(2), "mask": np.array([True, False])}


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
@pytest.mark.parametrize("view", [False, True], ids=["arrays", "views"])
def test_a_frozen_type_keeps_its_own_copy_of_each_array(build, view):
    given = _caller_arrays()
    obj = build({key: a[:] if view else a for key, a in given.items()})
    kept = [(a.tobytes(), a.flags.writeable, a.flags.c_contiguous) for a in _stored_arrays(obj)]
    assert all(not writeable and contiguous for _, writeable, contiguous in kept)
    assert all(a.flags.writeable for a in given.values())  # the caller's keep their flags
    for a in given.values():  # written through the base of each view that was passed
        a[...] = 7 if a.dtype.kind in "iuf" else False
    assert [(a.tobytes(), a.flags.writeable, a.flags.c_contiguous)
            for a in _stored_arrays(obj)] == kept


def test_a_constraint_set_keeps_the_bound_it_checked():
    lo = np.zeros(2)
    cs = ConstraintSet(lower=(lo[:],), upper=(np.ones(2),), delta=0.0)
    lo[0] = -5.0
    assert cs.lower[0].tolist() == [0.0, 0.0]


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


# keys that comparisons treat apart: ±0.0 are equal, NaN equals nothing, and ±inf and
# subnormals sit at the ends of the float range
SPECIAL_KEYS = (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.0**-1030, np.nan)


@st.composite
def sort_keys(draw):
    """A 1-D array of 0 to 3000 keys in one of the shapes below, negated or not."""
    size = draw(st.integers(0, 3000), label="size")
    shape = draw(st.sampled_from(("distinct", "few runs", "integers", "pairs", "special")))
    rng = make_rng(draw(st.integers(0, 2**64), label="seed"))
    a = rng.random(size)
    if shape == "few runs":  # a few tied runs among distinct keys
        for value in rng.random(draw(st.integers(1, 3), label="runs")):
            a[rng.random(size) < 0.03] = value
    elif shape == "integers":  # every key tied with about size / distinct others
        a = rng.integers(0, draw(st.integers(1, 3000), label="distinct"), size).astype(float)
    elif shape == "pairs":  # every key appears exactly twice (once if size is odd)
        a = rng.permutation(np.repeat(rng.random((size + 1) // 2), 2))[:size]
    elif shape == "special":
        picked = sorted(draw(st.sets(st.integers(0, len(SPECIAL_KEYS) - 1), min_size=1)))
        share = draw(st.floats(0.0, 1.0), label="share")
        where = rng.random(size) < share
        a[where] = rng.choice(np.array(SPECIAL_KEYS)[picked], np.count_nonzero(where))
    return -a if draw(st.booleans(), label="negated") else a


@settings(max_examples=300, deadline=None)
@given(sort_keys())
def test_stable_order_is_the_stable_argsort(a):
    got, want = stable_order(a), np.argsort(a, kind="stable")
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


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


# --- bookkeeping on p-sized values: the same bits as the numpy reference ---

# zeros of both signs, NaN, the infinities, the snap and slack tolerances and the
# smallest subnormal on either side of 0
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-12, -1e-12, 5e-13, 5e-324,
                  -5e-324, 1.0]


def _reals(low: float, high: float, *ends: float):
    """Floats in [low, high], the special values, and each of ``ends`` with its
    nearest neighbours."""
    near = [v for end in ends for v in (math.nextafter(end, -math.inf), end,
                                        math.nextafter(end, math.inf))]
    return st.one_of(st.sampled_from(SPECIAL_FLOATS + near), st.floats(low, high))


def _outcome(call):
    """What ``call`` returns, or the type and message of the exception it raises."""
    try:
        return call()
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


def _bound_bits(cs):
    """A constraint set's bounds and delta as bytes, or the exception raised instead."""
    if isinstance(cs, tuple):
        return cs
    return ([(a.shape, a.tobytes(), a.flags.writeable) for a in cs.lower],
            [(a.shape, a.tobytes(), a.flags.writeable) for a in cs.upper],
            np.float64(cs.delta).tobytes())


DELTAS = _reals(0.0, 1.0, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(-1, 40), delta=DELTAS, data=st.data())
def test_make_constraints_matches_the_clip_reference(n, delta, data):
    values = _reals(-5.0, 50.0, 0.0, float(n))
    s = data.draw(st.integers(1, 3), label="s")
    p = data.draw(st.lists(st.integers(0, 9), min_size=s, max_size=s), label="p")
    lower = [data.draw(st.lists(values, min_size=pk, max_size=pk)) for pk in p]
    upper = []
    for pk in p:
        size = max(pk - data.draw(st.sampled_from([0] * 5 + [1])), 0)  # now and then one short
        upper.append(data.draw(st.lists(values, min_size=size, max_size=size)))
    as_arrays = data.draw(st.booleans(), label="as arrays")
    if as_arrays:
        lower, upper = ([np.array(a, dtype=float) for a in bounds] for bounds in (lower, upper))
    got = _outcome(lambda: make_constraints(lower, upper, delta=delta, n=n))
    want = _outcome(lambda: reference_make_constraints(lower, upper, delta=delta, n=n))
    assert _bound_bits(got) == _bound_bits(want)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 500), alpha=_reals(0.0, 1.0, 0.0, 1.0), delta=DELTAS, data=st.data())
def test_constraints_from_alpha_matches_the_numpy_reference(n, alpha, delta, data):
    p = data.draw(st.integers(1, 9), label="p")
    shares = data.draw(st.lists(_reals(0.0, 1.0, 0.0), min_size=p, max_size=p), label="shares")
    total = sum(shares)
    if data.draw(st.booleans(), label="normalised") and math.isfinite(total) and total > 0:
        shares = [v / total for v in shares]
    got = _outcome(lambda: constraints_from_alpha(n, shares, alpha, delta=delta))
    want = _outcome(lambda: reference_constraints_from_alpha(n, shares, alpha, delta=delta))
    assert _bound_bits(got) == _bound_bits(want)


@st.composite
def instances_and_masks(draw):
    """(inst, cs, x): an instance with m in 0..25, s in 1..2 and p in 1..9 per
    attribute, bounds in [0, n], and x a bool mask, a 0/1 int array, a 0/1 or
    fractional float vector (NaN now and then) or a list of floats. One noise
    entry is NaN now and then."""
    m = draw(st.integers(0, 25), label="m")
    s = draw(st.integers(1, 2), label="s")
    p = draw(st.lists(st.integers(1, 9), min_size=s, max_size=s), label="p")
    n = draw(st.integers(0, max(m, 1)), label="n")
    unit = st.floats(0.0, 1.0)
    noise = tuple(np.array(draw(st.lists(st.lists(unit, min_size=pk, max_size=pk),
                                         min_size=m, max_size=m)), dtype=float).reshape(m, pk)
                  for pk in p)
    if m and draw(st.booleans()):  # one NaN entry: that group's count, and its violation, is NaN
        noise[0][draw(st.integers(0, m - 1)), draw(st.integers(0, p[0] - 1))] = math.nan
    true_attrs = np.column_stack([draw(arrays(np.int64, m, elements=st.integers(0, pk - 1)))
                                  for pk in p]) if m else np.zeros((0, s), dtype=int)
    inst = Instance(n=n, p=p, utilities=np.ones(m), noise=noise, true_attrs=true_attrs)
    bound = _reals(0.0, float(n), 0.0, float(n))
    lower = [draw(st.lists(bound, min_size=pk, max_size=pk)) for pk in p]
    upper = [draw(st.lists(bound, min_size=pk, max_size=pk)) for pk in p]
    lower = [[lo if math.isfinite(lo) else 0.0 for lo in row] for row in lower]
    upper = [[max(hi, lo) if math.isfinite(hi) else float(n) for lo, hi in zip(los, his)]
             for los, his in zip(lower, upper)]
    cs = make_constraints(lower, upper, delta=0.0, n=n)
    kind = draw(st.sampled_from(["bool", "int", "float", "fractional", "list"]), label="x")
    mask = draw(arrays(bool, m))
    if kind == "bool":
        x = mask
    elif kind == "int":
        x = mask.astype(int)
    elif kind == "float":
        x = mask.astype(float)
    else:
        x = draw(st.lists(st.one_of(unit, st.sampled_from([math.nan, -0.0, 0.5])),
                          min_size=m, max_size=m))
        x = np.array(x, dtype=float) if kind == "fractional" else x
    return inst, cs, x


def _report_bits(report):
    if isinstance(report, tuple):
        return report
    return ([(v.dtype, v.shape, v.tobytes()) for v in report.fairness],
            np.float64(report.cardinality_excess).tobytes(),
            np.float64(report.max_violation).tobytes())


@settings(max_examples=300, deadline=None)
@given(drawn=instances_and_masks(), attrs=st.sampled_from(["true", "expected", "noisy"]))
def test_violation_report_matches_the_float_mask_reference(drawn, attrs):
    inst, cs, x = drawn
    got = _outcome(lambda: violation_report(x, inst, cs, attrs=attrs))
    want = _outcome(lambda: reference_violation_report(x, inst, cs, attrs=attrs))
    assert _report_bits(got) == _report_bits(want)


@st.composite
def checkable_instances(draw):
    """Instances with each of validate_instance's faults now and then: m = 0,
    n out of range, p < 1, a non-finite or negative utility, a non-finite,
    off-sum or out-of-range noise entry, a wrong block count or shape, and
    attribute values outside [0, p)."""
    m = draw(st.integers(0, 8), label="m")
    s = draw(st.integers(0, 3), label="s")
    p = draw(st.lists(st.integers(-1, 4), min_size=s, max_size=s), label="p")
    n = draw(st.integers(-1, 10), label="n")
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from(
        [math.nan, math.inf, -math.inf, -1e-8, 1 + 1e-8, -0.0, 2.0, 0.5]))
    utilities = draw(st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from(
        [math.nan, math.inf, -math.inf, -1.0, -0.0, 1e308])), min_size=m, max_size=m))
    noise = None
    if draw(st.booleans()):
        blocks = s + draw(st.sampled_from([0] * 5 + [-1, 1]))
        noise = []
        for k in range(max(blocks, 0)):
            width = max(p[k] if k < s else 2, 0) + draw(st.sampled_from([0] * 5 + [1]))
            rows = draw(st.lists(st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width),
                                 min_size=m, max_size=m))
            q = np.array(rows, dtype=float).reshape(m, width)
            if q.size and draw(st.booleans()):
                q = q / q.sum(axis=1, keepdims=True)
            if q.size and draw(st.booleans()):
                q[draw(st.integers(0, m - 1)), draw(st.integers(0, width - 1))] = draw(entry)
            noise.append(q)
    attrs = [None]
    if s:
        attrs.append(arrays(np.int64, (m, s), elements=st.integers(-1, 4)))
        attrs.append(arrays(np.int64, (m, s + 1), elements=st.integers(0, 3)))
    true_attrs = draw(st.sampled_from(attrs))
    true_attrs = true_attrs if true_attrs is None else draw(true_attrs)
    return Instance(n=n, p=p, utilities=utilities, noise=noise, true_attrs=true_attrs)


@settings(max_examples=400, deadline=None)
@given(inst=checkable_instances())
def test_validate_instance_matches_the_mask_reference(inst):
    assert validate_instance(inst) == reference_validate_instance(inst)


def test_validate_instance_reports_an_empty_instance_without_raising():
    inst = Instance(n=1, p=(2,), utilities=[], noise=(np.zeros((0, 2)),),
                    true_attrs=np.zeros((0, 1), dtype=int))
    assert validate_instance(inst) == ("m must be positive", "n must lie in [1, m=0], not 1")
