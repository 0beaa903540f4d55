import argparse
import json
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fairselect import cli
from fairselect.cli import _build_parser, main
from fairselect.core import Instance, instance_to_dict, load_instance, save_instance
from fairselect.datagen import KIND_DISPARATE_UTILITY, GeneratorSpec
from fairselect.experiment import build_instance
from fairselect.selectors import ALGORITHMS
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


def test_select_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "select", "--instance", "/nonexistent.json",
                           "--algorithm", "Blind")
    assert code == 1
    assert "error" in err


def test_select_malformed_instance_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "select", "--instance", str(bad),
                           "--algorithm", "Blind")
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["select", "--algorithm", "NotAnAlgorithm", "--instance", "x.json"])
    assert err.value.code == 1


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


@pytest.mark.parametrize("indices, message", [
    ("1,1", "--indices repeats an item"),
    ("1,3,4", "--indices needs exactly n=2 items, got 3"),
    ("2", "--indices needs exactly n=2 items, got 1"),
])
def test_metrics_rejects_repeated_or_miscounted_indices(tiny_path, capsys, indices, message):
    code, out, err = run_cli(capsys, "metrics", "--instance", tiny_path, "--indices", indices)
    assert code == 1
    assert out == ""
    assert message in err


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


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "fairselect.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "select" in proc.stdout and "experiment" in proc.stdout


def test_cli_module_entry(tiny_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fairselect.cli", "select", "--instance", tiny_path,
         "--algorithm", "Blind"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["indices"] == [1, 2]


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


def test_gen_rejects_tau_out_of_range(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "--kind", "disparate-error", "--m", "10",
                           "--n", "2", "--tau", "0.7", "--out", str(tmp_path / "x.json"))
    assert code == 1
    assert "tau" in err


# --- bad input is rejected with exit code 1 ----------------------------------

@pytest.mark.parametrize("field, value", [("w", float("nan")), ("w", float("inf")),
                                          ("q", float("nan"))])
def test_select_rejects_non_finite_input(tiny, tmp_path, capsys, field, value):
    data = instance_to_dict(tiny)
    if field == "w":
        data["w"][1] = value
    else:
        data["q"][0][1][0] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "select", "--instance", str(path),
                             "--algorithm", "FairExpec", "--alpha", "1.0")
    assert code == 1
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [("select", "--algorithm", "Blind"),
                                  ("select", "--algorithm", "FairExpec"),
                                  ("metrics", "--indices", "1,2", "--ndcg")])
def test_rejects_utilities_whose_sum_overflows(tiny, tmp_path, capsys, argv):
    # each utility is finite but their sum is not, so a selection's utility
    # would print as Infinity and a utility ratio as NaN
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**instance_to_dict(tiny), "w": [1e308] * 4}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code, out, err = run_cli(capsys, argv[0], "--instance", str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert "utilities sum past the largest float" in err


def test_stdout_is_strict_json(tiny_path, capsys, monkeypatch):
    # RFC 8259 has no NaN: a value that slips through is an error, not output
    real = cli.compute_report
    monkeypatch.setattr(cli, "compute_report",
                        lambda *args, **kw: replace(real(*args, **kw), utility_ratio=float("nan")))
    code, out, err = run_cli(capsys, "metrics", "--instance", tiny_path, "--indices", "1,2")
    assert code == 1
    assert out == ""
    assert "JSON" in err


def _per_item(data):
    """The same instance in the per-item layout that files used to have."""
    items = [{"w": w, "q": [q], "z": z} for w, q, z in zip(data["w"], data["q"][0], data["z"])]
    return {"m": len(items), "n": data["n"], "s": 1, "p": data["p"], "items": items}


def _item_zero_q(data, *values):
    """The instance with item 0's probabilities of attribute 0 replaced."""
    q = [list(row) for row in data["q"][0]]
    for row, value in zip(q, values):
        row[0] = value
    return {**data, "q": [q]}


@pytest.mark.parametrize("reshape, message", [
    (_per_item, "unknown instance keys: ['items', 'm', 's']"),
    (lambda data: {**data, "weights": data["w"]}, "unknown instance keys: ['weights']"),
    (lambda data: {**data, "q": [[row[:-1] for row in data["q"][0]]]},
     "noise block 0 shape (3, 2) != (4, 2)"),
    (lambda data: {**data, "p": 2}, "malformed instance file"),
    (lambda data: {**data, "w": 3, "q": [data["q"][0][:1]]}, "w must be a list"),
    (lambda data: {**data, "w": [[w] for w in data["w"]]}, "utilities must be 1-D"),
    (lambda data: {**data, "n": 1.9}, "n must be an integer, not 1.9"),
    (lambda data: {**data, "p": [2.5]}, "p must hold integers only"),
    (lambda data: {**data, "z": [[0], [0], [0.7], [1.2]]}, "z must hold integers only"),
    (lambda data: {**data, "zhat": [[0], [0.5], [0], [1]]}, "zhat must hold integers only"),
    (lambda data: {**data, "w": ["3.0", "2.5", "1.0", "0.5"]}, "w must hold numbers only"),
    (lambda data: {**data, "w": [True, False, True, False]}, "w must hold numbers only"),
    (lambda data: _item_zero_q(data, "0.9", 0.1), "q[0] must hold numbers only"),
    (lambda data: _item_zero_q(data, True, 0.0), "q[0] must hold numbers only"),
    (lambda data: {**data, "q": [[data["q"][0][0], data["q"][0][1][:-1]]]}, "q[0] is ragged"),
    (lambda data: {**data, "z": [[0, 0, 0, 1], [0]]}, "z is ragged"),
    (lambda data: {key: data[key] for key in data if key != "w"}, "missing instance keys: ['w']"),
    (lambda data: {"w": data["w"]}, "missing instance keys: ['n', 'p']"),
], ids=["per-item-file", "unknown-key", "w-q-lengths", "p-not-a-list", "w-scalar", "w-nested",
        "n-fraction", "p-fraction", "z-fraction", "zhat-fraction", "w-strings", "w-booleans",
        "q-string", "q-boolean", "q-ragged", "z-ragged", "w-missing", "n-p-missing"])
def test_select_rejects_malformed_instance_file(tiny, tmp_path, capsys, reshape, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(reshape(instance_to_dict(tiny))))
    code, out, err = run_cli(capsys, "select", "--instance", str(path), "--algorithm", "Blind")
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("generator, message", [
    ({"sed": 3}, "unknown generator keys: ['sed']"),
    ({"m": 50}, "unknown generator keys: ['m']"),
    ({"tau": 0.0, "bins": 20}, "unknown generator keys: ['bins', 'tau']"),
    ({"params": {"mixture_weight": [0.5, 0.5]}},
     "unknown disparate_error generator params: ['mixture_weight']"),
    ({"params": 5}, "malformed config file"),
], ids=["seed-typo", "m", "tau-bins", "params-typo", "params-not-an-object"])
def test_experiment_rejects_bad_generator_section(tmp_path, capsys, generator, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(experiment_config(**generator)))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path / "results.csv"))
    assert code == 1
    assert out == ""
    assert message in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("verb, name", [("gen", "argument --seed:"), ("select", "argument --seed:"),
                                        ("experiment", "seed")])
def test_a_negative_seed_is_rejected_by_name(tiny_path, tmp_path, capsys, verb, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**experiment_config(), "seed": -1}))
    out_path = str(tmp_path / "out")
    argv = {"gen": ["--kind", "disparate-error", "--m", "10", "--n", "2", "--out", out_path,
                    "--seed", "-1"],
            "select": ["--instance", tiny_path, "--algorithm", "Blind", "--seed", "-1"],
            "experiment": ["--config", str(cfg_path), "--out", out_path]}[verb]
    try:
        code = main([verb, *argv])
    except SystemExit as exc:  # argparse exits on a bad flag
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"{name} must be a non-negative integer, not -1" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("m", 50.5), ("n", 9.9), ("trials", 2.5),
                                          ("seed", 3.2), ("fw_iters", 10.5), ("bins", 19.5)])
def test_experiment_rejects_non_integral_numbers(tmp_path, capsys, field, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**experiment_config(), field: value}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path / "results.csv"))
    assert code == 1
    assert out == ""
    assert f"{field} must be an integer, not {value}" in err
    assert not (tmp_path / "results.csv").exists()


def test_experiment_rejects_a_non_integral_n_grid(tmp_path, capsys):
    # int() would draw every instance at n=10 while the CSV says 10.7
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**experiment_config(), "sweep": {"n_grid": [10.7]},
                                    "algorithms": ["Blind"]}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path / "results.csv"))
    assert code == 1
    assert out == ""
    assert "n_grid must be an integer, not 10.7" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("n_grid, bad", [([10, 60], "60"), ([0, 10], "0")])
def test_experiment_rejects_an_n_grid_outside_one_to_m(tmp_path, capsys, n_grid, bad):
    # caught when the config is built, before any grid point runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**experiment_config(), "sweep": {"n_grid": n_grid},
                                    "algorithms": ["Blind"]}))
    code, out, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(tmp_path / "results.csv"))
    assert code == 1
    assert out == ""
    assert f"n_grid values must lie in [1, m=50], not {bad}" in err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("flags", [("--lower", "nan,0", "--upper", "1,1"),
                                   ("--lower", "0,0", "--upper", "nan,1"),
                                   ("--lambda", "nan"), ("--lambda", "inf")])
def test_select_rejects_non_finite_flags(tiny_path, capsys, flags):
    code, out, err = run_cli(capsys, "select", "--instance", tiny_path,
                             "--algorithm", "MultObj" if "--lambda" in flags else "FairExpec",
                             *flags)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_select_rejects_a_lambda_whose_penalty_overflows(tiny_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails the test
        code, out, err = run_cli(capsys, "select", "--instance", tiny_path,
                                 "--algorithm", "MultObj", "--lambda", "1e308")
    assert code == 1
    assert out == ""
    assert "lambda_=1e+308 is too large" in err


@pytest.mark.parametrize("verb, data, message", [
    ("experiment", {key: value for key, value in experiment_config().items() if key != "trials"},
     "missing config keys: ['trials']"),
    ("experiment", {**experiment_config(), "algorithms": "Blind"}, "algorithms must be a list"),
    ("experiment", {**experiment_config(), "sweep": {"alpha_grid": 1.0}},
     "alpha_grid must be a list"),
    ("experiment", [1, 2], "config must be a JSON object, not list"),
    ("experiment", {**experiment_config(), "sweep": ["alpha_grid"]},
     "sweep must be a JSON object, not list"),
    ("select", [1, 2], "instance must be a JSON object, not list"),
    ("select", {"n": 2, "p": 2, "w": [3.0, 2.5, 1.0, 0.5]}, "p must be a list"),
    ("select", {"n": 2, "p": [2], "w": [3.0, 2.5, 1.0, 0.5], "z": 0}, "z must be a list"),
], ids=["config-trials-missing", "algorithms-string", "grid-scalar", "config-list",
        "sweep-list", "instance-list", "p-scalar", "z-scalar"])
def test_input_file_errors_name_the_field(tmp_path, capsys, verb, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    argv = {"experiment": ["--config", str(path), "--out", str(tmp_path / "results.csv")],
            "select": ["--instance", str(path), "--algorithm", "Blind"]}[verb]
    code, out, err = run_cli(capsys, verb, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.fixture
def two_attr_path(tmp_path):
    inst = Instance(n=2, p=(2, 2), utilities=[3.0, 2.5, 1.0, 0.5],
                    noise=([[0.9, 0.1], [0.95, 0.05], [0.8, 0.2], [0.1, 0.9]],
                           [[0.5, 0.5], [0.2, 0.8], [0.7, 0.3], [0.4, 0.6]]),
                    true_attrs=[[0, 0], [0, 1], [0, 0], [1, 1]])
    path = tmp_path / "two_attr.json"
    save_instance(inst, path)
    return str(path)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_select_rejects_two_attributes(two_attr_path, capsys, algorithm):
    code, out, err = run_cli(capsys, "select", "--instance", two_attr_path,
                             "--algorithm", algorithm, "--alpha", "1.0", "--delta", "0.1")
    assert code == 1
    assert out == ""
    assert "one protected attribute" in err


def test_metrics_unsupported_shape_exit_code(two_attr_path, capsys):
    code, out, err = run_cli(capsys, "metrics", "--instance", two_attr_path,
                             "--indices", "1,2")
    assert code == 1
    assert out == ""
    assert "single-attribute" in err


def test_select_rejects_bounds_of_wrong_length(tiny_path, capsys):
    code, out, err = run_cli(capsys, "select", "--instance", tiny_path,
                             "--algorithm", "FairExpec", "--lower", "0", "--upper", "1")
    assert code == 1
    assert out == ""
    assert "one bound per group (p=2)" in err


# --- the algorithm registry ---------------------------------------------------

def test_select_choices_are_the_registry():
    parser = _build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    select = verbs.choices["select"]
    choices = next(a for a in select._actions if a.dest == "algorithm").choices
    assert list(choices) == list(ALGORITHMS)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_select_smoke_every_algorithm(tiny_path, capsys, algorithm):
    code, out, _ = run_cli(capsys, "select", "--instance", tiny_path, "--algorithm", algorithm,
                           "--alpha", "0.5", "--delta", "0.1", "--lambda", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["algorithm"] == algorithm
    assert payload["cardinality"] == len(payload["indices"]) >= 2
