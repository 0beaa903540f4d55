import argparse
import json
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fairselect import cli, experiment, selectors
from fairselect.cli import _build_parser, main
from fairselect.core import (InfeasibleError, Instance, constraints_from_alpha, instance_to_dict,
                             load_instance, save_instance)
from fairselect.datagen import KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, GeneratorSpec
from fairselect.experiment import build_instance
from fairselect.selectors import ALGORITHMS, fair_expec, fair_expec_grp
from fairselect.seeding import seed_sequence

TINY_LP_CEIL_UTILITY = 6.0  # ceiling-rounded vertex (1, 4/17, 0, 13/17)


@pytest.fixture
def tiny_path(tiny, tmp_path):
    path = tmp_path / "tiny.json"
    save_instance(tiny, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_select_fair_expec_tiny(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path,
                           "--algorithm", "FairExpec", "--alpha", "1.0",
                           "--delta", "0.1", "--target", "equal")
    assert code == 0
    payload = json.loads(out)
    assert payload["indices"] == [1, 2, 4]  # 1-based
    assert payload["utility"] == pytest.approx(TINY_LP_CEIL_UTILITY)
    assert payload["cardinality"] == 3
    assert payload["expected_violations"]["cardinality_excess"] == 1.0
    assert payload["true_violations"]["max_violation"] >= 0.0


def test_select_alpha_zero_matches_blind(tiny_path, capsys):
    code_b, out_b, _ = run_cli(capsys, "select", "--instance", tiny_path,
                               "--algorithm", "Blind")
    code_f, out_f, _ = run_cli(capsys, "select", "--instance", tiny_path,
                               "--algorithm", "FairExpec", "--alpha", "0.0",
                               "--delta", "0.1")
    assert code_b == code_f == 0
    assert json.loads(out_b)["indices"] == json.loads(out_f)["indices"]


def test_select_infeasible_exit_code(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path,
                           "--algorithm", "FairExpec",
                           "--lower", "0,0", "--upper", "0,0")
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_select_thrsh_and_multobj(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path,
                           "--algorithm", "Thrsh", "--alpha", "1.0")
    assert code == 0
    assert json.loads(out)["indices"] == [1, 4]
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path,
                           "--algorithm", "MultObj", "--lambda", "0.0")
    assert code == 0
    assert json.loads(out)["indices"] == [1, 2]


def test_metrics_command(tiny_path, capsys):
    code, out, _ = run_cli(capsys, "metrics", "--instance", tiny_path,
                           "--indices", "1,4", "--target", "equal", "--ndcg")
    assert code == 0
    payload = json.loads(out)
    assert payload["risk_difference"] == pytest.approx(1.0)
    assert payload["utility_ratio"] == pytest.approx(3.5 / 5.5)
    assert "ndcg" in payload


def test_metrics_with_an_empty_true_group(tiny, tmp_path, capsys):
    # every item is in group 0: group 1's selection rate is undefined, the
    # other metrics are not
    path = tmp_path / "one_group.json"
    save_instance(replace(tiny, true_attrs=np.zeros((4, 1), dtype=int)), path)
    code, out, _ = run_cli(capsys, "metrics", "--instance", str(path), "--indices", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["selection_rates"] == [1.0, None]
    assert payload["risk_difference"] == 0.0
    assert payload["selection_lift"] == 0.0
    assert payload["utility_ratio"] == 1.0


def test_gen_select_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "gen.json"
    code, out, _ = run_cli(capsys, "gen", "--kind", "disparate-error",
                           "--m", "80", "--n", "10", "--seed", "4",
                           "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["m"] == 80
    code, out, _ = run_cli(capsys, "select", "--instance", str(out_path),
                           "--algorithm", "FairExpec", "--alpha", "1.0",
                           "--delta", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] >= 10


def test_select_prints_the_indices_as_one_int_per_item_did(tmp_path, capsys):
    # n = 2000, so the indices are nearly all of stdout
    path = tmp_path / "big.json"
    spec = GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=2500, n=2000, seed=seed_sequence(2))
    save_instance(build_instance(spec, 0.0, None), path)
    code, out, _ = run_cli(capsys, "select", "--instance", str(path), "--algorithm", "Blind")
    assert code == 0
    indices = [int(i) + 1 for i in selectors.blind(load_instance(path)).indices]
    assert len(indices) == 2000
    assert f'"indices": {json.dumps(indices)}, "utility": '.encode() in out.encode()


def test_gen_disparate_utility_has_noise(tmp_path, capsys):
    out_path = tmp_path / "du.json"
    code, out, _ = run_cli(capsys, "gen", "--kind", "disparate-utility",
                           "--m", "200", "--n", "20", "--seed", "1",
                           "--tau", "0.2", "--out", str(out_path))
    assert code == 0
    inst = load_instance(str(out_path))
    assert inst.noise is not None
    assert inst.noisy_attrs is not None
    flipped = (inst.noisy_attrs != inst.true_attrs).mean()
    assert 0.1 < flipped < 0.3


def experiment_config(**generator):
    return {
        "generator": {"kind": "disparate_error", "params": {}, **generator},
        "sweep": {"alpha_grid": [0.0, 1.0]},
        "algorithms": ["Blind", "FairExpec"],
        "trials": 3, "n": 10, "m": 50,
        "target": "EqualRepresentation", "delta": 0.05, "seed": 3,
    }


@st.composite
def small_instances(draw):
    """An instance of up to 12 items in 2 or 3 groups, with random probability
    rows and, half the time, observed labels. n = m half the time: every item
    is then selected, so a tight alpha and delta leave the relaxation infeasible."""
    m, p = draw(st.integers(2, 12)), draw(st.integers(2, 3))
    unit = st.floats(0.01, 1.0)
    rows = np.array(draw(st.lists(st.lists(unit, min_size=p, max_size=p), min_size=m, max_size=m)))
    labels = draw(st.none() | st.lists(st.integers(0, p - 1), min_size=m, max_size=m))
    return Instance(n=draw(st.just(m) | st.integers(1, m)), p=(p,),
                    utilities=draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)),
                    noise=(rows / rows.sum(axis=1, keepdims=True),),
                    noisy_attrs=None if labels is None else [[v] for v in labels])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inst=small_instances(), alpha=st.floats(0.0, 1.0), delta=st.floats(0.0, 0.3))
# both items lean group 0, so its expected count 1.8 exceeds its cap of 1
@example(inst=Instance(n=2, p=(2,), utilities=[1.0, 2.0], noise=([[0.9, 0.1], [0.9, 0.1]],)),
         alpha=1.0, delta=0.0)
def test_select_runs_the_public_fair_expec_functions(tmp_path, capsys, inst, alpha, delta):
    path = tmp_path / "instance.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    cs = constraints_from_alpha(loaded.n, np.full(loaded.p[0], 1.0 / loaded.p[0]), alpha,
                                delta=delta)
    for name, fn in (("FairExpec", fair_expec), ("FairExpecGrp", fair_expec_grp)):
        code, out, _ = run_cli(capsys, "select", "--instance", str(path), "--algorithm", name,
                               "--alpha", repr(alpha), "--delta", repr(delta))
        if code == 2:
            with pytest.raises(InfeasibleError):
                fn(loaded, cs)
            continue
        assert code == 0
        payload, sel = json.loads(out), fn(loaded, cs)
        assert payload["indices"] == [int(i) + 1 for i in sel.indices]
        assert payload["utility"].hex() == sel.total_utility.hex()


def test_experiment_command(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(experiment_config()))
    out_path = tmp_path / "results.csv"
    per_trial = tmp_path / "per_trial.csv"
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                           "--out", str(out_path), "--per-trial", str(per_trial))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "grid,algorithm,metric,mean,sem"
    assert len(lines) == 1 + 2 * 2 * 5
    assert per_trial.exists()


def run_module(*argv):
    # only a real process shows its exit code and what reaches stderr
    return subprocess.run([sys.executable, "-m", "fairselect.cli", *argv],
                          capture_output=True, text=True)


def test_console_script_help():
    proc = run_module("--help")
    assert proc.returncode == 0
    assert "select" in proc.stdout and "experiment" in proc.stdout


def test_cli_module_entry(tiny_path):
    proc = run_module("select", "--instance", tiny_path, "--algorithm", "Blind")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["indices"] == [1, 2]


def test_cli_module_entry_rejects_a_malformed_flag(tiny_path):
    proc = run_module("select", "--instance", tiny_path, "--algorithm", "FairExpec",
                      "--lambda", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "--lambda must lie in [0, inf], not -1.0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_gen_seed_is_the_root_of_a_trial_seed_tree(tmp_path, capsys):
    out_path = tmp_path / "du.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", "disparate-utility", "--m", "120",
                         "--n", "12", "--seed", "9", "--tau", "0.1", "--bins", "6",
                         "--out", str(out_path))
    assert code == 0
    spec = GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=120, n=12, seed=seed_sequence(9))
    expect = tmp_path / "expect.json"
    save_instance(build_instance(spec, 0.1, 6), expect)
    assert out_path.read_bytes() == expect.read_bytes()


# --- bad input is rejected with exit code 1 ----------------------------------

def tiny_with(**fields):
    """A function from the tiny instance's file to one with ``fields`` replaced."""
    return lambda data: {**data, **fields}


TINY = tiny_with()
TWO_ATTRS = tiny_with(p=[2, 2], z=[[0, 0, 0, 1], [0, 1, 0, 1]],
                      q=[[[0.9, 0.95, 0.8, 0.1], [0.1, 0.05, 0.2, 0.9]],
                         [[0.5, 0.2, 0.7, 0.4], [0.5, 0.8, 0.3, 0.6]]])
CONFIG = experiment_config()
UTILITY_CONFIG = experiment_config(kind="disparate_utility")
BLIND = "select --instance {input} --algorithm Blind"
FAIR = "select --instance {input} --algorithm FairExpec"
METRICS = "metrics --instance {input}"
MULT_OBJ = "select --instance {input} --algorithm MultObj"
EXPERIMENT = "experiment --config {input} --out {out}"
GEN = "gen --kind disparate-error --m 10 --n 2 --out {out}"
GEN_UTILITY = "gen --kind disparate-utility --m 10 --n 2 --out {out}"
INTEGERS_PAST_INT64 = "must hold integers in [-2**63, 2**63)"

# The tests of bad input, keyed by test id: (argv, input file, message on
# stderr). The input file is JSON for a dict or list, the bytes themselves, a
# callable's value on the tiny instance's file, or absent for None. {input}
# and {out} in argv and message are paths. Each id is the one its case has
# always run under, so a case's history follows it; a new case is a row of
# test_bad_input_exits_1_naming_it.
MALFORMED_INSTANCE = "test_select_rejects_malformed_instance_file"
NEW = "test_bad_input_exits_1_naming_it"
BAD_INPUT = {
    # flags
    "test_usage_error_exit_code": ("select --algorithm NotAnAlgorithm --instance {input}", TINY,
                                   "argument --algorithm: invalid choice"),
    "test_a_negative_seed_is_rejected_by_name[gen-argument --seed:]": (
        GEN + " --seed -1", None, "argument --seed: must be a non-negative integer, not -1"),
    "test_a_negative_seed_is_rejected_by_name[select-argument --seed:]": (
        BLIND + " --seed -1", TINY, "argument --seed: must be a non-negative integer, not -1"),
    "test_gen_rejects_tau_out_of_range": (GEN_UTILITY + " --tau 0.7", None,
                                          "--tau must lie in [0, 0.5], not 0.7"),
    f"{NEW}[gen-tau-past-half]": ("gen --kind disparate-utility --m 40 --n 5 --tau 0.7 --out {out}",
                                  None, "--tau must lie in [0, 0.5], not 0.7"),
    # only the disparate-utility kind reads these two; the first one given is named
    f"{NEW}[gen-tau-unread]": (GEN + " --tau 0.4", None,
                               "the disparate_error generator reads no --tau"),
    f"{NEW}[gen-bins-unread]": (GEN + " --bins -5 --tau 0.4", None,
                                "the disparate_error generator reads no --tau"),
    f"{NEW}[gen-bins-unread-alone]": (GEN + " --bins 7", None,
                                      "the disparate_error generator reads no --bins"),
    # 20 utility bins, the default, cannot split a draw of 10 items
    f"{NEW}[gen-bins-default-past-m]": (GEN_UTILITY, None,
                                        "--bins must lie in [1, m=10], not 20 (its default)"),
    **{f"test_a_malformed_flag_is_rejected_by_name[{argv.split()[0]}-flags{i}-{message}]":
       (argv, content, message) for i, (argv, content, message) in enumerate([
           (METRICS + " --indices 1,x", TINY,
            "argument --indices: must be comma-separated integers, not '1,x'"),
           (METRICS + " --indices ''", TINY,
            "argument --indices: must be comma-separated integers, not ''"),
           (METRICS + " --indices 1.5,2", TINY,
            "argument --indices: must be comma-separated integers, not '1.5,2'"),
           (FAIR + " --lower 1,x --upper 2,2", TINY,
            "argument --lower: must be comma-separated numbers, not '1,x'"),
           (FAIR + " --lower 0,0 --upper 2,", TINY,
            "argument --upper: must be comma-separated numbers, not '2,'"),
           (EXPERIMENT + " --workers 0", CONFIG,
            "argument --workers: must be a positive integer, not 0"),
           (EXPERIMENT + " --workers -3", CONFIG,
            "argument --workers: must be a positive integer, not -3"),
       ])},
    # FairExpec never reads these two; they are checked all the same, as a config's lambda is
    "test_a_malformed_flag_is_rejected_by_name[select-flags7-argument --lambda: must be a finite "
    "non-negative number, not 'nan']": (FAIR + " --lambda nan", TINY,
                                        "--lambda must be finite, not nan"),
    "test_a_malformed_flag_is_rejected_by_name[select-flags8-argument --lambda: must be a finite "
    "non-negative number, not -1.0]": (FAIR + " --lambda -1", TINY,
                                       "--lambda must lie in [0, inf], not -1.0"),
    # MultObj is solved exactly, so it takes no step count
    "test_a_malformed_flag_is_rejected_by_name[select-flags9-argument --fw-iters: must be a "
    "positive integer, not 0]": (FAIR + " --fw-iters 0", TINY, "unrecognized arguments: --fw-iters 0"),
    **{f"test_metrics_rejects_repeated_or_miscounted_indices[{indices}-{message}]":
       (METRICS + " --indices " + indices, TINY, message)
       for indices, message in [("1,1", "--indices repeats an item"),
                                ("1,3,4", "--indices needs exactly n=2 items, got 3"),
                                ("2", "--indices needs exactly n=2 items, got 1")]},
    "test_select_rejects_non_finite_flags[flags0]": (FAIR + " --lower nan,0 --upper 1,1", TINY,
                                                     "non-finite bound for attribute 0"),
    "test_select_rejects_non_finite_flags[flags1]": (FAIR + " --lower 0,0 --upper nan,1", TINY,
                                                     "non-finite bound for attribute 0"),
    "test_select_rejects_non_finite_flags[flags2]": (MULT_OBJ + " --lambda nan", TINY,
                                                     "--lambda must be finite, not nan"),
    "test_select_rejects_non_finite_flags[flags3]": (MULT_OBJ + " --lambda inf", TINY,
                                                     "--lambda must be finite, not inf"),
    # named as the flag and the config key name it
    "test_select_rejects_a_lambda_whose_penalty_overflows": (
        MULT_OBJ + " --lambda 1e308", TINY, "lambda=1e+308 is too large: the KL penalty overflows"),
    "test_select_rejects_bounds_of_wrong_length": (
        FAIR + " --lower 0 --upper 1", TINY, "--lower and --upper need one bound per group (p=2)"),
    f"{NEW}[select-delta-past-one]": (FAIR + " --delta 1.5", TINY,
                                      "--delta must lie in [0, 1), not 1.5"),
    f"{NEW}[select-alpha-past-one]": (FAIR + " --alpha 2", TINY,
                                      "--alpha must lie in [0, 1], not 2.0"),
    # the flags are checked before the instance file is opened: here there is none
    **{f"{NEW}[select-{flag}-{value}-before-the-file]": (
        f"{FAIR} --{flag} {value}", None, f"--{flag} must {message}")
       for flag, value, message in [("alpha", "nan", "be finite, not nan"),
                                    ("alpha", "2", "lie in [0, 1], not 2.0"),
                                    ("delta", "1.5", "lie in [0, 1), not 1.5"),
                                    ("lambda", "-1", "lie in [0, inf], not -1.0"),
                                    ("lambda", "nan", "be finite, not nan")]},
    # explicit bounds leave alpha unread, so giving it is an error whatever its value
    **{f"{NEW}[select-alpha-{alpha}-with-bounds]": (
        f"{FAIR} --alpha {alpha} --lower 0,0 --upper 5,5", TINY,
        "select reads no --alpha with --lower and --upper") for alpha in ("0.5", "7")},
    f"{NEW}[gen-bins-zero]": ("gen --kind disparate-utility --m 40 --n 5 --bins 0 --out {out}",
                              None, "--bins must lie in [1, m=40], not 0"),
    # instance files
    "test_select_missing_file_exit_code": (BLIND, None, "No such file or directory"),
    "test_select_malformed_instance_exit_code": (BLIND, b"{not json",
                                                 "malformed instance file {input}: "),
    **{f"test_a_file_that_is_not_json_is_named[{argv.split()[0]}-{what}-{name}]":
       (argv, content, f"malformed {what} file {{input}}: ")
       for what, argv in [("instance", BLIND), ("config", EXPERIMENT)]
       for name, content in [("empty", b""), ("not-utf-8", b"\xff\xfe{"),
                             ("nested-too-deeply", b"[" * 100_000 + b"]" * 100_000)]},
    "test_input_file_errors_name_the_field[instance-list]": (
        BLIND, [1, 2], "instance must be a JSON object, not list"),
    "test_input_file_errors_name_the_field[p-scalar]": (
        BLIND, {"n": 2, "p": 2, "w": [3.0, 2.5, 1.0, 0.5]}, "p must be a list"),
    "test_input_file_errors_name_the_field[z-scalar]": (
        BLIND, {"n": 2, "p": [2], "w": [3.0, 2.5, 1.0, 0.5], "z": 0}, "z must be a list"),
    **{f"{MALFORMED_INSTANCE}[{name}]": (BLIND, content, message) for name, content, message in [
        ("per-item-file",
         {"m": 4, "n": 2, "s": 1, "p": [2], "items": [{"w": 3.0, "q": [[0.9, 0.1]], "z": [0]}]},
         "unknown instance keys: ['items', 'm', 's']"),
        ("unknown-key", lambda data: {**data, "weights": data["w"]},
         "unknown instance keys: ['weights']"),
        ("w-missing", lambda data: {key: data[key] for key in data if key != "w"},
         "missing instance keys: ['w']"),
        ("n-p-missing", lambda data: {"w": data["w"]}, "missing instance keys: ['n', 'p']"),
        ("w-q-lengths", tiny_with(q=[[[0.9, 0.95, 0.8], [0.1, 0.05, 0.2]]]),
         "noise block 0 shape (3, 2) != (4, 2)"),
        ("p-not-a-list", tiny_with(p=2), "malformed instance file"),
        ("w-scalar", tiny_with(w=3, q=[[[0.9, 0.95, 0.8, 0.1]]]), "w must be a list"),
        ("w-nested", tiny_with(w=[[3.0], [2.5], [1.0], [0.5]]), "utilities must be 1-D"),
        ("n-fraction", tiny_with(n=1.9), "n must be an integer, not 1.9"),
        ("p-fraction", tiny_with(p=[2.5]), "p must hold integers only"),
        ("z-fraction", tiny_with(z=[[0], [0], [0.7], [1.2]]), "z must hold integers only"),
        ("zhat-fraction", tiny_with(zhat=[[0], [0.5], [0], [1]]), "zhat must hold integers only"),
        ("w-strings", tiny_with(w=["3.0", "2.5", "1.0", "0.5"]), "w must hold numbers only"),
        ("w-booleans", tiny_with(w=[True, False, True, False]), "w must hold numbers only"),
        # numpy reads a false among floats as 0.0, here the list's only 0, so the list is scanned
        ("w-false-the-only-zero", tiny_with(w=[3.0, 2.5, False, 0.5]), "w must hold numbers only"),
        # an integer list is always scanned: numpy reads a true among integers as 1
        ("zhat-true", tiny_with(zhat=[[0, True, 0, 1]]), "zhat must hold integers only"),
        ("q-string", tiny_with(q=[[["0.9", 0.95, 0.8, 0.1], [0.1, 0.05, 0.2, 0.9]]]),
         "q[0] must hold numbers only"),
        ("q-boolean", tiny_with(q=[[[True, 0.95, 0.8, 0.1], [0.0, 0.05, 0.2, 0.9]]]),
         "q[0] must hold numbers only"),
        ("q-ragged", tiny_with(q=[[[0.9, 0.95, 0.8, 0.1], [0.1, 0.05, 0.2]]]), "q[0] is ragged"),
        ("z-ragged", tiny_with(z=[[0, 0, 0, 1], [0]]), "z is ragged"),
        # one level too deep, one too shallow: the field is named, not numpy's conversion
        ("p-nested", tiny_with(p=[[2]]), "p must be a flat list of integers, one per attribute"),
        ("q-flat", tiny_with(q=[0.9, 0.95, 0.8, 0.1]),
         "malformed instance file {input}: q[0] must be a list, not float"),
        # integers past int64: a float would wrap in the cast with a numpy warning, an int is
        # uint64
        ("p-huge", tiny_with(p=[1e19]), "p " + INTEGERS_PAST_INT64),
        ("z-huge", tiny_with(z=[[0, 1e19, 0, 1]]), "z " + INTEGERS_PAST_INT64),
        ("p-huge-integer", tiny_with(p=[10**19]), "p " + INTEGERS_PAST_INT64),
    ]},
    **{f"test_select_rejects_non_finite_input[{name}]": (FAIR + " --alpha 1.0", content, "non-finite")
       for name, content in [
           ("w-nan", tiny_with(w=[3.0, float("nan"), 1.0, 0.5])),
           ("w-inf", tiny_with(w=[3.0, float("inf"), 1.0, 0.5])),
           ("q-nan", tiny_with(q=[[[0.9, 0.95, 0.8, 0.1], [float("nan"), 0.05, 0.2, 0.9]]]))]},
    # each utility is finite but their sum is not, so a selection's utility
    # would print as Infinity and a utility ratio as NaN
    **{f"test_rejects_utilities_whose_sum_overflows[argv{i}]":
       (argv, tiny_with(w=[1e308] * 4), "utilities sum past the largest float")
       for i, argv in enumerate([BLIND, FAIR, METRICS + " --indices 1,2 --ndcg"])},
    **{f"test_select_rejects_two_attributes[{algorithm}]": (
        f"select --instance {{input}} --algorithm {algorithm} --alpha 1.0 --delta 0.1",
        TWO_ATTRS, "select handles one protected attribute") for algorithm in sorted(ALGORITHMS)},
    "test_metrics_unsupported_shape_exit_code": (
        METRICS + " --indices 1,2", TWO_ATTRS,
        "the metrics report covers single-attribute instances"),
    **{f"{NEW}[instance-{name}]": (argv, content, message) for name, argv, content, message in [
        ("no-items", BLIND, {"n": 1, "p": [2], "w": []}, "m must be positive"),
        ("n-zero", BLIND, tiny_with(n=0), "n must lie in [1, m=4], not 0"),
        ("no-attributes", BLIND, tiny_with(p=[]), "s must be at least 1"),
        ("p-zero", BLIND, tiny_with(p=[0]), "attribute 0 has p=0 < 1"),
        ("q-two-blocks", BLIND, lambda data: {**data, "q": data["q"] * 2},
         "noise has 2 attribute blocks, expected 1"),
        ("q-outside-unit", BLIND, tiny_with(q=[[[1.5, 0.95, 0.8, 0.1], [-0.5, 0.05, 0.2, 0.9]]]),
         "noise entries outside [0,1] in attribute 0"),
        ("z-two-rows", BLIND, tiny_with(z=[[0, 0, 0, 1], [0, 0, 0, 1]]),
         "true_attrs shape (4, 2) != (4, 1)"),
        ("z-out-of-range", BLIND, tiny_with(z=[[0, 0, 0, 2]]), "true_attrs column 0 outside [0, 2)"),
        ("zhat-out-of-range", BLIND, tiny_with(zhat=[[0, 0, 0, 2]]),
         "noisy_attrs column 0 outside [0, 2)"),
        ("q-missing", BLIND, lambda data: {key: data[key] for key in data if key != "q"},
         "instance file carries no probability rows"),
        ("proportional-without-z", BLIND + " --target proportional",
         lambda data: {key: data[key] for key in data if key != "z"},
         "a proportional target needs true attributes in the instance file"),
        ("lower-alone", FAIR + " --lower 0,0", TINY, "--lower and --upper must be given together")]},
    # config files
    **{f"test_input_file_errors_name_the_field[{name}]": (EXPERIMENT, content, message)
       for name, content, message in [
           ("config-list", [1, 2], "config must be a JSON object, not list"),
           ("config-trials-missing", {k: v for k, v in CONFIG.items() if k != "trials"},
            "missing config keys: ['trials']"),
           ("sweep-list", {**CONFIG, "sweep": ["alpha_grid"]},
            "sweep must be a JSON object, not list"),
           ("grid-scalar", {**CONFIG, "sweep": {"alpha_grid": 1.0}}, "alpha_grid must be a list"),
           ("algorithms-string", {**CONFIG, "algorithms": "Blind"}, "algorithms must be a list")]},
    f"{NEW}[config-algorithms-repeat]": (
        EXPERIMENT, {**CONFIG, "algorithms": ["Blind", "Thrsh", "Blind"]},
        "algorithms repeats ['Blind']"),
    "test_a_negative_seed_is_rejected_by_name[experiment-seed]": (
        EXPERIMENT, {**CONFIG, "seed": -1}, "seed must be a non-negative integer, not -1"),
    **{f"test_experiment_rejects_non_integral_numbers[{field}-{value}]": (
        EXPERIMENT, {**UTILITY_CONFIG, field: value}, f"{field} must be an integer, not {value}")
       for field, value in [("m", 50.5), ("n", 9.9), ("trials", 2.5), ("seed", 3.2),
                            ("bins", 19.5)]},
    # int() would draw every instance at n=10 while the CSV says 10.7
    "test_experiment_rejects_a_non_integral_n_grid": (
        EXPERIMENT, {**CONFIG, "sweep": {"n_grid": [10.7]}}, "n_grid must be an integer, not 10.7"),
    # caught when the config is built, before any grid point runs
    "test_experiment_rejects_an_n_grid_outside_one_to_m[n_grid0-60]": (
        EXPERIMENT, {**CONFIG, "sweep": {"n_grid": [10, 60]}},
        "n_grid values must lie in [1, m=50], not 60"),
    "test_experiment_rejects_an_n_grid_outside_one_to_m[n_grid1-0]": (
        EXPERIMENT, {**CONFIG, "sweep": {"n_grid": [0, 10]}},
        "n_grid values must lie in [1, m=50], not 0"),
    **{f"test_experiment_rejects_bad_generator_section[{name}]": (EXPERIMENT, config, message)
       for name, config, message in [
           ("seed-typo", experiment_config(sed=3), "unknown generator keys: ['sed']"),
           ("m", experiment_config(m=50), "unknown generator keys: ['m']"),
           ("tau-bins", experiment_config(tau=0.0, bins=20),
            "unknown generator keys: ['bins', 'tau']"),
           ("params-typo", experiment_config(params={"mixture_weight": [0.5, 0.5]}),
            "unknown disparate_error generator params: ['mixture_weight']"),
           ("params-not-an-object", experiment_config(params=5),
            "params must be a JSON object, not int")]},
    **{f"{NEW}[generator-{name}]": (EXPERIMENT, experiment_config(**generator), message)
       for name, generator, message in [
           # dict() would read no params, or a list of pairs as a mapping
           ("params-list", {"params": []}, "params must be a JSON object, not list"),
           ("params-pairs", {"params": [["mixture_weights", [0.5, 0.5]]]},
            "params must be a JSON object, not list"),
           ("mixture-weights-null", {"params": {"mixture_weights": None}},
            "mixture_weights must hold numbers only"),
           ("mixture-weights-short", {"params": {"mixture_weights": [0.5]}},
            "mixture_weights must have shape (2,), not (1,)"),
           ("minority-rate-string", {"kind": "disparate_utility", "params": {"minority_rate": "x"}},
            "minority_rate must hold numbers only"),
           ("feature-weight-null", {"kind": "disparate_utility", "params": {"feature_weight": None}},
            "feature_weight must hold numbers only"),
           ("utility-means-scalar", {"kind": "disparate_utility", "params": {"utility_means": 5}},
            "utility_means must have shape (2, 2), not ()"),
           # a std past 1 can leave truncated_normal rejecting every draw, forever
           ("component-stds-huge", {"params": {"component_stds": [1e308, 0.05]}},
            "component_stds must lie in [0, 1], not [1e+308, 0.05]"),
           ("component-stds-negative", {"params": {"component_stds": [-1, 0.05]}},
            "component_stds must lie in [0, 1], not [-1, 0.05]"),
           ("component-means-nan", {"params": {"component_means": [float("nan"), 0.05]}},
            "component_means must be finite, not [nan, 0.05]"),
           ("mixture-weights-nan", {"params": {"mixture_weights": [float("nan"), 0.5]}},
            "mixture_weights must be finite, not [nan, 0.5]"),
           ("mixture-weights-negative", {"params": {"mixture_weights": [2.0, -1.0]}},
            "mixture_weights must lie in [0, 1], not [2.0, -1.0]"),
           ("mixture-weights-sum", {"params": {"mixture_weights": [0.3, 0.3]}},
            "mixture_weights must sum to 1, not [0.3, 0.3]"),
           ("utility-means-nan", {"kind": "disparate_utility",
                                  "params": {"utility_means": [[float("nan"), 1.6], [1.6, 2.6]]}},
            "utility_means must be finite"),
           ("feature-weight-infinite", {"kind": "disparate_utility",
                                        "params": {"feature_weight": float("inf")}},
            "feature_weight must be finite, not inf"),
           ("utility-std-negative", {"kind": "disparate_utility", "params": {"utility_std": -1}},
            "utility_std must lie in [0, inf], not -1"),
           ("rates-inconsistent", {"kind": "disparate_utility", "params": {"joint_rate": 0.5}},
            "inconsistent group rates: need joint_rate <= minority_rate"),
           ("kind-unknown", {"kind": "disparate"}, "unknown generator kind 'disparate'"),
           # checked for a string before it is looked up, which would hash it;
           # a message's {{ is str.format's escaped {
           ("kind-list", {"kind": ["disparate_error"]},
            "unknown generator kind ['disparate_error']"),
           ("kind-object", {"kind": {"disparate_error": 1}},
            "unknown generator kind {{'disparate_error': 1}}")]},
    **{f"{NEW}[config-{name}]": (EXPERIMENT, config, message) for name, config, message in [
        ("two-grids", {**CONFIG, "sweep": {"alpha_grid": [0.0], "tau_grid": [0.0]}},
         "the sweep section must contain exactly one grid"),
        ("target-unknown", {**CONFIG, "target": "Equal"},
         "target must be EqualRepresentation or Proportional"),
        ("algorithms-nested-list", {**CONFIG, "algorithms": [["Blind"]]},
         "unknown algorithms: [['Blind']]"),
        ("algorithms-object", {**CONFIG, "algorithms": [{"Blind": 1}]},
         "unknown algorithms: [{{'Blind': 1}}]"),
        # each real setting and grid value is a finite JSON number in its range, checked
        # before the first trial; CONFIG runs no MultObj, which reads lambda
        ("alpha-boolean", {**CONFIG, "alpha": True}, "alpha must hold numbers only"),
        ("alpha-grid-booleans", {**CONFIG, "sweep": {"alpha_grid": [True, False]}},
         "alpha_grid must hold numbers only"),
        ("alpha-grid-strings", {**CONFIG, "sweep": {"alpha_grid": ["0", "1"]}},
         "alpha_grid must hold numbers only"),
        ("delta-numeric-string", {**CONFIG, "delta": "0.05"}, "delta must hold numbers only"),
        ("delta-string", {**CONFIG, "delta": "x"}, "delta must hold numbers only"),
        ("delta-one", {**CONFIG, "delta": 1}, "delta must lie in [0, 1), not 1"),
        ("lambda-nan", {**CONFIG, "lambda": float("nan")}, "lambda must be finite, not nan"),
        ("lambda-grid-negative", {**CONFIG, "sweep": {"lambda_grid": [-1.0]}},
         "lambda_grid must lie in [0, inf], not [-1.0]"),
        ("alpha-grid-past-one", {**CONFIG, "sweep": {"alpha_grid": [0.0, 2.0]}},
         "alpha_grid must lie in [0, 1], not [0.0, 2.0]"),
        ("tau-grid-past-half", {**UTILITY_CONFIG, "sweep": {"tau_grid": [0.0, 0.7]}},
         "tau_grid must lie in [0, 0.5], not [0.0, 0.7]"),
        # only the disparate-utility kind reads tau and bins
        ("tau-grid-unread", {**CONFIG, "sweep": {"tau_grid": [0.0, 0.3]}},
         "the disparate_error generator reads no tau_grid"),
        ("tau-unread", {**CONFIG, "tau": 0.1}, "the disparate_error generator reads no tau"),
        ("bins-unread", {**CONFIG, "bins": 7}, "the disparate_error generator reads no bins"),
        ("bins-default-past-m", {**UTILITY_CONFIG, "m": 10, "n": 2},
         "bins must lie in [1, m=10], not 20 (its default)"),
        ("n-past-m", {**CONFIG, "n": 60}, "n must lie in [1, m=50], not 60"),
        # null would read as the default, which leaving the key out gives
        ("alpha-null", {**CONFIG, "alpha": None}, "alpha must be a number, not null"),
        # the sweep would overwrite the fixed value at every grid point
        ("alpha-fixed-and-swept", {**CONFIG, "alpha": 0.5},
         "the config fixes alpha and sweeps alpha_grid: drop one"),
        ("lambda-fixed-and-swept", {**CONFIG, "sweep": {"lambda_grid": [0.0, 10.0]}, "lambda": 1},
         "the config fixes lambda and sweeps lambda_grid: drop one"),
        ("tau-fixed-and-swept", {**UTILITY_CONFIG, "sweep": {"tau_grid": [0.0, 0.3]}, "tau": 0.1},
         "the config fixes tau and sweeps tau_grid: drop one"),
        # MultObj is solved exactly, so it takes no step count
        ("fw-iters-zero", {**CONFIG, "fw_iters": 0}, "unknown config keys: ['fw_iters']"),
        # rejected in the first trial: the bound depends on the drawn utilities
        ("lambda-overflows", {**CONFIG, "algorithms": ["MultObj"], "lambda": 1e308},
         "lambda=1e+308 is too large: the KL penalty overflows"),
        ("bins-zero", {**UTILITY_CONFIG, "bins": 0}, "bins must lie in [1, m=50], not 0"),
        ("bins-past-m", {**UTILITY_CONFIG, "bins": 51},
         "bins must lie in [1, m=50], not 51")]},
    # both output paths are checked before the first trial, and neither file is written
    **{f"{NEW}[experiment-{flag}-in-no-directory]": (
        EXPERIMENT + extra, CONFIG, f"--{flag} must name a file in an existing directory, not {path}")
       for flag, extra, path in [
           ("out", "/r.csv", "{out}/r.csv"),
           ("per-trial", " --per-trial {out}/t.csv", "{out}/t.csv")]},
    f"{NEW}[gen-n-past-m]": ("gen --kind disparate-error --m 5 --n 10 --out {out}", None,
                             "--n must lie in [1, m=5], not 10"),
    **{f"{NEW}[gen-bins-{name}]": (f"gen --kind disparate-utility --m 20 --n 4 --bins {bins} "
                                   "--out {out}", None, f"--bins must lie in [1, m=20], not {bins}")
       for name, bins in [("negative", -3), ("past-m", 50)]},
    # checked before the draw, with the message experiment's output paths get
    **{f"{NEW}[gen-out-{name}]": (
        f"gen --kind disparate-utility --m 20 --n 4 --out {path}", None,
        f"--out must name a file in an existing directory, not {path}")
       for name, path in [("in-no-directory", "{out}/g.json"), ("is-a-directory", ".")]},
}
# the cases rejected inside the first trial, which may run: all the others are
# rejected before the sweep starts
IN_A_TRIAL = {f"{NEW}[config-lambda-overflows]"}


def _no_trial(*args):
    pytest.fail("a trial ran on bad input")


def _no_draw(*args):
    pytest.fail("an instance was drawn from bad input")


def _exits_1_naming_it(tiny, tmp_path, capsys, monkeypatch, argv, content, message,
                       in_a_trial=False):
    path, out = tmp_path / "input.json", tmp_path / "out"
    if not in_a_trial:
        monkeypatch.setattr(experiment, "run_trial", _no_trial)  # rejected before the sweep starts
    monkeypatch.setattr(cli, "build_instance", _no_draw)  # gen draws only from good input
    if callable(content):
        content = content(instance_to_dict(tiny))
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(json.dumps(content))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning on the way fails the case
        try:
            code = main([arg.format(input=path, out=out) for arg in shlex.split(argv)])
        except SystemExit as exc:  # argparse exits on a bad flag
            code = exc.code
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert message.format(input=path, out=out) in captured.err
    assert not out.exists()


def _bad_input_test(cases):
    """A test of ``cases``, keyed by case id: a plain test for the one id ''."""
    if list(cases) == [""]:
        def test(tiny, tmp_path, capsys, monkeypatch):
            _exits_1_naming_it(tiny, tmp_path, capsys, monkeypatch, *cases[""])
        return test

    @pytest.mark.parametrize("argv, content, message, in_a_trial", list(cases.values()),
                             ids=list(cases))
    def test(tiny, tmp_path, capsys, monkeypatch, argv, content, message, in_a_trial):
        _exits_1_naming_it(tiny, tmp_path, capsys, monkeypatch, argv, content, message,
                           in_a_trial)
    return test


def _bad_input_tests():
    by_name = {}
    for test_id, row in BAD_INPUT.items():
        name, _, case = test_id.partition("[")
        by_name.setdefault(name, {})[case.removesuffix("]")] = (*row, test_id in IN_A_TRIAL)
    return {name: _bad_input_test(cases) for name, cases in by_name.items()}


globals().update(_bad_input_tests())


# --- a config with one bad number -------------------------------------------------

# a valid config that sets every optional key, so it sweeps the one setting none of them fixes
FUZZ_BASE = {**UTILITY_CONFIG, "sweep": {"n_grid": [5, 10]}, "alpha": 0.5, "lambda": 10.0,
             "tau": 0.1, "bins": 10}
# each key's (lowest, highest) valid value; None for no upper end. delta must stay below 1
FUZZ_RANGES = {"delta": (0.0, float(np.nextafter(1.0, 0.0))), "alpha": (0.0, 1.0),
               "lambda": (0.0, None), "tau": (0.0, 0.5), "bins": (1, 50)}


def _beyond(bound, way):
    """The nearest value past ``bound`` in direction ``way``, +1 or -1."""
    return bound + way if isinstance(bound, int) else float(np.nextafter(bound, way * np.inf))


@st.composite
def one_bad_number(draw):
    """(key, config): FUZZ_BASE with one setting, or one grid value, made a
    boolean, a numeric string, null, a non-finite number or a value just
    outside its range."""
    key = draw(st.sampled_from([*FUZZ_RANGES, "alpha_grid", "lambda_grid", "tau_grid"]))
    setting = key.removesuffix("_grid")
    low, high = FUZZ_RANGES[setting]
    outside = [_beyond(low, -1)] + ([] if high is None else [_beyond(high, 1)])
    bad = draw(st.sampled_from([True, False, None, str(low), float("nan"), float("inf"),
                                -float("inf"), *outside]))
    config = dict(FUZZ_BASE)
    if key == setting:
        config[key] = bad
    else:
        grid = draw(st.lists(st.floats(low, 1e6 if high is None else high), max_size=3))
        grid.insert(draw(st.integers(0, len(grid))), bad)
        config["sweep"] = {key: grid}
    return key, config


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=one_bad_number())
def test_a_bad_number_in_a_config_is_rejected_before_any_trial(tiny, tmp_path, capsys,
                                                                 monkeypatch, case):
    key, config = case
    _exits_1_naming_it(tiny, tmp_path, capsys, monkeypatch, EXPERIMENT, config,
                       f"error: {key} must")


def test_the_fuzzed_config_is_valid():
    experiment.ExperimentConfig.from_dict(FUZZ_BASE)


def _settings_named(message: str, names=("n", "tau", "bins")) -> set:
    """Which of ``names`` an error message names, as a key or as a flag."""
    return set(re.findall(rf"(?<![\w-])-{{0,2}}({'|'.join(names)})\b", message))


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["disparate_error", "disparate_utility"]), m=st.integers(1, 60),
       n=st.integers(-1, 62), tau=st.none() | st.floats(-0.1, 0.6),
       bins=st.none() | st.integers(-1, 62))
# the default of 20 bins past m=10
@example(kind="disparate_utility", m=10, n=2, tau=None, bins=None)
def test_gen_and_a_config_check_n_tau_and_bins_alike(tmp_path, capsys, kind, m, n, tau, bins):
    # one check owns these settings: gen and a sweep config accept the same
    # values and reject the same ones naming the same setting
    out = tmp_path / "gen.json"
    out.unlink(missing_ok=True)
    fixed = {key: value for key, value in (("tau", tau), ("bins", bins)) if value is not None}
    code, stdout, err = run_cli(capsys, "gen", "--kind", kind.replace("_", "-"), f"--m={m}",
                                f"--n={n}", *(f"--{key}={value!r}" for key, value in fixed.items()),
                                "--out", str(out))
    try:
        experiment.ExperimentConfig.from_dict({**experiment_config(kind=kind), "m": m, "n": n,
                                               **fixed})
    except ValueError as exc:
        assert code == 1 and stdout == "" and not out.exists(), (err, exc)
        assert len(_settings_named(str(exc))) == 1
        assert _settings_named(err) == _settings_named(str(exc)), (err, exc)
    else:
        assert code == 0 and out.exists(), err


# a value of alpha, delta or lambda: None leaves it out, else in or near [0, 1], non-finite,
# or large, which only lambda accepts
SELECT_SETTING = st.none() | st.floats(-0.5, 1.5) | st.floats(1.0, 1e300) | st.sampled_from(
    [0.0, 1.0, float(np.nextafter(1.0, 0.0)), float("nan"), float("inf"), -float("inf")])


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(alpha=SELECT_SETTING, delta=SELECT_SETTING, lambda_=SELECT_SETTING)
@example(alpha=2.0, delta=1.0, lambda_=float("nan"))  # all three out: the first is named
def test_select_and_a_config_check_alpha_delta_and_lambda_alike(tiny_path, capsys, alpha,
                                                                 delta, lambda_):
    # one check owns these settings: select and a sweep config accept the same
    # values and reject the same ones naming the same setting
    names = ("alpha", "delta", "lambda")
    fixed = {key: value for key, value in zip(names, (alpha, delta, lambda_)) if value is not None}
    code, stdout, err = run_cli(capsys, "select", "--instance", tiny_path, "--algorithm", "Blind",
                                *(f"--{key}={value!r}" for key, value in fixed.items()))
    try:  # a config requires delta, which select defaults to 0
        experiment.ExperimentConfig.from_dict({**CONFIG, "sweep": {"n_grid": [10]}, "delta": 0.0,
                                               **fixed})
    except ValueError as exc:
        assert code == 1 and stdout == "", (err, exc)
        assert len(_settings_named(str(exc), names)) == 1
        assert _settings_named(err, names) == _settings_named(str(exc), names), (err, exc)
    else:
        assert code == 0, err


@pytest.mark.parametrize("seed", [0, 5])
def test_every_algorithm_in_select_imputes_from_one_stream(tmp_path, capsys, monkeypatch, seed):
    # ten exactly tied rows, so the labels tell the tie-breaking streams apart
    q = np.array([[0.5, 0.5]] * 10 + [[0.9, 0.1], [0.2, 0.8]])
    inst = Instance(n=4, p=(2,), utilities=np.linspace(1.0, 2.0, 12), noise=(q,))
    path = tmp_path / "tied.json"
    save_instance(inst, path)
    seen = {}
    for name in ("thrsh", "mult_obj"):  # both take the imputed labels last
        def spy(*args, real=getattr(selectors, name), name=name):
            seen[name] = args[-1]
            return real(*args)
        monkeypatch.setattr(selectors, name, spy)
    for algorithm in ("Thrsh", "MultObj"):
        code, _, err = run_cli(capsys, "select", "--instance", str(path), "--algorithm", algorithm,
                               "--seed", str(seed), "--lambda", "1")
        assert code == 0, err
    assert np.array_equal(seen["thrsh"], selectors.impute_bayes(q, seed, 0))
    assert np.array_equal(seen["mult_obj"], seen["thrsh"])


def test_stdout_is_strict_json(tiny_path, capsys, monkeypatch):
    # RFC 8259 has no NaN: a value that slips through is an error, not output
    real = cli.compute_report
    monkeypatch.setattr(cli, "compute_report",
                        lambda *args, **kw: replace(real(*args, **kw), utility_ratio=float("nan")))
    code, out, err = run_cli(capsys, "metrics", "--instance", tiny_path, "--indices", "1,2")
    assert code == 1
    assert out == ""
    assert "JSON" in err


def test_a_key_error_in_a_verb_is_a_bug_and_not_bad_input(tiny_path, monkeypatch):
    # every lookup on a key from the input is checked first, so main lets a KeyError through
    def lookup(args):
        return {}["x"]
    monkeypatch.setattr(cli, "cmd_metrics", lookup)
    with pytest.raises(KeyError):
        main(["metrics", "--instance", tiny_path, "--indices", "1,2"])


@pytest.mark.parametrize("verb, flags, code, message", [
    ("metrics", ["--indices", "-1,2"], 1, "indices out of range (they are 1-based)"),
    ("select", ["--algorithm", "FairExpec", "--lower", "-1,0", "--upper", "2,2"], 0, ""),
], ids=["indices", "lower"])
def test_a_comma_separated_value_may_start_with_a_minus(tiny_path, capsys, verb, flags, code,
                                                        message):
    # argparse alone would take -1,2 for a flag and exit with "expected one argument"
    got, out, err = run_cli(capsys, verb, "--instance", tiny_path, *flags)
    assert got == code
    assert message in err
    assert (out == "") == (code != 0)


# --- the algorithm registry ---------------------------------------------------

def test_select_choices_are_the_registry():
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    select = verbs.choices["select"]
    choices = next(a for a in select._actions if a.dest == "algorithm").choices
    assert list(choices) == list(ALGORITHMS)


def test_gen_kind_choices_are_the_kinds_build_instance_draws():
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    kind = next(a for a in verbs.choices["gen"]._actions if a.dest == "kind")
    assert kind.choices == ["disparate-error", "disparate-utility"]
    assert [c.replace("-", "_") for c in kind.choices] == list(experiment.DRAW_SETTINGS)


# --- the parser, built once per process -----------------------------------------

def test_the_parser_is_built_once():
    assert _build_parser() is _build_parser()


def _parse(parser, argv, capsys):
    """The namespace, or the exit code, and the stderr of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr().err


def test_parsing_leaves_no_state_in_the_cached_parser(capsys):
    select = ["select", "--instance", "i.json", "--algorithm", "FairExpec"]
    calls = [
        [*select, "--lower", "0,1", "--upper", "2,2", "--seed", "4", "--lambda", "2"],
        select,
        [*select, "--alpha", "1", "--delta", "0.1", "--target", "proportional"],
        [*select, "--seed", "-1"],
        [*select, "--lower", "-1,x", "--upper", "2,2"],
        [*select, "--lower", "-1,0", "--upper", "2,2", "--seed", "7"],
        ["metrics", "--instance", "i.json", "--indices", "3,1", "--ndcg"],
        ["metrics", "--instance", "i.json", "--indices", "1,x"],
        ["metrics", "--instance", "i.json"],
        select,
        ["metrics", "--instance", "i.json", "--indices", "-1,2"],
    ]
    for argv in calls:
        cached = _parse(_build_parser(), argv, capsys)
        fresh = _parse(_build_parser.__wrapped__(), argv, capsys)
        assert cached == fresh, argv


def test_each_parse_gets_its_own_bounds_list():
    argv = ["select", "--instance", "i.json", "--algorithm", "FairExpec",
            "--lower", "0,1", "--upper", "2,2"]
    first, second = _build_parser().parse_args(argv), _build_parser().parse_args(argv)
    assert first.lower == second.lower == [0.0, 1.0]
    assert first.lower is not second.lower


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_select_smoke_every_algorithm(tiny_path, capsys, algorithm):
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path, "--algorithm", algorithm,
                           "--alpha", "0.5", "--delta", "0.1", "--lambda", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == algorithm
    assert payload["cardinality"] == len(payload["indices"]) >= 2
