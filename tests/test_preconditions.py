"""The library's own preconditions: one row per check, with the call, what it
raises (or returns) and the message it raises with."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairselect.core import (RANGES, ConstraintSet, Instance, constraints_from_alpha,
                             validate_instance, violation_report)
from fairselect.datagen import (KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, GeneratorSpec,
                                estimate_q_by_utility_bins, gen_disparate_error,
                                gen_disparate_utility, inject_flip_noise)
from fairselect.experiment import ResultTable, check_setting, write_results
from fairselect.lp import BfsSolution, LinearProgram
from fairselect.metrics import ndcg
from fairselect.selectors import dependent_round, mult_obj

BARE = Instance(n=1, p=(2,), utilities=[1.0, 2.0], noise=None)  # no rows, no true attributes
LABELLED = Instance(n=1, p=(2,), utilities=[1.0, 2.0], noise=None, true_attrs=[[0], [1]])
BOUNDS = ConstraintSet(lower=([0.0, 0.0],), upper=([1.0, 1.0],), delta=0.0)


# max x_0 + x_1 s.t. 0 <= x_0 + x_1 <= 1
LP_FIELDS = {"objective": [1.0, 1.0], "rows": [[1.0, 1.0]], "row_lower": [0.0], "row_upper": [1.0]}


def _with(field, bad):
    """``field`` (a list, or a list of one row) with its last entry replaced by ``bad``."""
    if isinstance(field[0], list):
        return [field[0][:-1] + [bad]]
    return field[:-1] + [bad]


def bounds(lower, upper, delta=0.0):
    return lambda: ConstraintSet(lower=(lower,), upper=(upper,), delta=delta)


# id: (call, the exception it raises or the value it returns, the exception's message)
PRECONDITIONS = {
    "noise-matrix-without-rows": (lambda: BARE.noise_matrix(0), ValueError,
                                  "instance carries no noise information"),
    "constraints-delta-one": (bounds([0.0], [1.0], delta=1.0), ValueError,
                              "delta must lie in [0, 1), not 1.0"),
    "constraints-delta-negative": (bounds([0.0], [1.0], delta=-0.1), ValueError,
                                   "delta must lie in [0, 1), not -0.1"),
    "constraints-bound-shapes": (bounds([0.0], [1.0, 1.0]), ValueError,
                                 "bound shapes differ for attribute 0"),
    "constraints-negative-bound": (bounds([-1.0, 0.0], [1.0, 1.0]), ValueError,
                                   "negative bound for attribute 0"),
    **{f"alpha-{alpha}": (lambda alpha=alpha: constraints_from_alpha(2, [0.5, 0.5], alpha),
                          ValueError, f"alpha must lie in [0, 1], not {alpha}")
       for alpha in (-0.5, 1.5)},
    # a setting that is not a number is named, not compared with its range
    **{f"{key}-{bad!r}": (call, ValueError, f"{key} must hold numbers only")
       for bad in ("0.1", None) for key, call in [
           ("delta", bounds([0.0], [1.0], delta=bad)),
           ("alpha", lambda bad=bad: constraints_from_alpha(2, [0.5, 0.5], bad)),
           ("lambda", lambda bad=bad: mult_obj(LABELLED, (0.5, 0.5), bad, np.array([0, 1]))),
           ("tau", lambda bad=bad: inject_flip_noise(LABELLED, bad, 0))]},
    "validate-instance-n-fraction": (
        lambda: validate_instance(Instance(n=1.5, p=(2,), utilities=[1.0, 2.0], noise=None)),
        ("n must be an integer, not 1.5",), None),
    "violation-report-attrs": (
        lambda: violation_report([1.0, 0.0], LABELLED, BOUNDS, attrs="noisy"), ValueError,
        "attrs must be 'true' or 'expected', got 'noisy'"),
    "gen-error-given-a-utility-spec": (
        lambda: gen_disparate_error(GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=4, n=2)),
        ValueError, "spec kind is 'disparate_utility'"),
    "gen-utility-given-an-error-spec": (
        lambda: gen_disparate_utility(GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=4, n=2)),
        ValueError, "spec kind is 'disparate_error'"),
    "flip-noise-without-true-attributes": (lambda: inject_flip_noise(BARE, 0.1, 0), ValueError,
                                           "flip noise requires true attributes"),
    **{f"flip-noise-tau-{tau}": (lambda tau=tau: inject_flip_noise(LABELLED, tau, 0), ValueError,
                                 f"tau must lie in [0, 0.5], not {tau}") for tau in (-0.1, 0.6)},
    "bins-train-without-true-attributes": (
        lambda: estimate_q_by_utility_bins(LABELLED, 1, train=BARE), ValueError,
        "the training instance must carry true attributes"),
    "bins-zero": (lambda: estimate_q_by_utility_bins(LABELLED, 0, train=LABELLED), ValueError,
                  "bins must lie in [1, m=2], not 0"),
    **{f"dependent-round-entry-{bad}": (
        lambda bad=bad: dependent_round(np.array([bad, 1.0, 0.0]), 1, 0, np.ones(3)), ValueError,
        f"entries must lie in [0, 1], not {bad}") for bad in (math.nan, math.inf, -math.inf)},
    # sums to n, so only the range check stops it from being rounded
    "dependent-round-entries-outside-the-unit-interval": (
        lambda: dependent_round(np.array([1.5, -0.5, 1, 1, 1, 1, 0, 0, 0, 0]), 5, 0, np.ones(10)),
        ValueError, "entries must lie in [0, 1], not 1.5"),
    "dependent-round-n-nan": (
        lambda: dependent_round(np.array([0.5, 0.5]), math.nan, 0, np.ones(2)), ValueError,
        "entries sum to 1.0, expected n=nan"),
    "lp-objective-length": (
        lambda: LinearProgram(objective=[1.0, 1.0], rows=np.ones((1, 3)), row_lower=[0.0],
                              row_upper=[1.0]),
        ValueError, "objective shape (2,) does not match rows shape (1, 3)"),
    **{f"lp-row-bound-shape-{name}": (
        lambda given=given: LinearProgram(**{**LP_FIELDS, **given}), ValueError,
        f"row bound shapes {shapes} do not match rows shape (1, 2)")
       for name, given, shapes in [
           ("scalar", {"row_lower": 0.0}, "() and (1,)"),
           ("long", {"row_upper": [1.0, 1.0]}, "(1,) and (2,)")]},
    # a non-finite entry ends the simplex in an IndexError, or in a wrong vertex
    **{f"lp-non-finite-{name}-{bad}": (
        lambda name=name, bad=bad: LinearProgram(**{**LP_FIELDS, name: _with(LP_FIELDS[name], bad)}),
        ValueError, f"{name} must be finite")
       for name in LP_FIELDS for bad in (math.nan, math.inf, -math.inf)},
    "bfs-infeasible-has-no-fractional-indices": (
        lambda: BfsSolution(x=None).fractional_indices, frozenset(), None),
    "write-results-format": (
        lambda: write_results(ResultTable(rows=()), os.devnull, format="xml"), ValueError,
        "unknown format 'xml'"),
    # an ideal DCG of 0: only a selection of no gain matches it
    "ndcg-ideal-zero": (lambda: ndcg([0.0, 0.0], [0.0, 0.0]), 1.0, None),
    "ndcg-ideal-zero-ranked-gain": (lambda: ndcg([1.0], [0.0]), 0.0, None),
}


@pytest.mark.parametrize("call, outcome, message", PRECONDITIONS.values(),
                         ids=PRECONDITIONS.keys())
def test_a_precondition_raises_or_returns_as_stated(call, outcome, message):
    if message is None:
        assert call() == outcome
        return
    with pytest.raises(outcome, match=f"^{re.escape(message)}$"):
        call()


# --- each setting's range: the library call that reads it agrees with check_setting ---

def _edges(key: str, m: int) -> list:
    """Each end of ``key``'s range, the nearest values on either side of each end, NaN
    and ±inf; the ends of n and bins are 1 and m."""
    low, high, _ = RANGES[key]
    if high == "m":
        ends = [low - 1, low, low + 1, m - 1, m, m + 1]
    else:
        ends = [v for end in (low, high) for v in (math.nextafter(end, -math.inf), end,
                                                   math.nextafter(end, math.inf))]
    return [*ends, math.nan, math.inf, -math.inf]


def _library_call(key: str, value, m: int):
    """The library entry point that checks setting ``key``, given ``value``."""
    train = Instance(n=1, p=(2,), utilities=np.arange(m, dtype=float), noise=None,
                     true_attrs=np.zeros((m, 1), dtype=int))
    return {
        "delta": lambda: ConstraintSet(lower=([0.0],), upper=([1.0],), delta=value),
        "alpha": lambda: constraints_from_alpha(2, [0.5, 0.5], value),
        "lambda": lambda: mult_obj(LABELLED, (0.5, 0.5), value, np.array([0, 1])),
        "tau": lambda: inject_flip_noise(LABELLED, value, 0),
        "n": lambda: GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=m, n=value),
        "bins": lambda: estimate_q_by_utility_bins(train, value, train=train),
    }[key]


def _rejection(call):
    """The message of the ValueError ``call`` raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("key", RANGES)
@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 60), data=st.data())
def test_the_library_and_check_setting_agree_on_each_setting(key, m, data):
    value = data.draw(st.sampled_from(_edges(key, m)), label="value")
    expected = _rejection(lambda: check_setting(key, value, KIND_DISPARATE_UTILITY, m))
    got = _rejection(_library_call(key, value, m))
    if key == "lambda" and expected is None and value > 1e300:
        # past the bound that keeps LABELLED's KL penalty finite: mult_obj's own check
        assert got == f"lambda={value:g} is too large: the KL penalty overflows"
    else:
        assert got == expected
