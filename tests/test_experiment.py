import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairselect import experiment, seeding, selectors
from fairselect.datagen import GeneratorSpec, KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY
from fairselect.experiment import (ExperimentConfig, ResultRow, ResultTable, load_config,
                                   render_csv, run_experiment, run_trial, write_per_trial,
                                   write_results)

from conftest import mean_of
from reference_bookkeeping import reference_check_setting
from reference_table import reference_table


def small_config(**overrides):
    base = dict(
        generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=60, n=12, seed=0),
        sweep_kind="alpha_grid", grid=(0.0, 1.0),
        algorithms=("Blind", "FairExpec", "Thrsh"),
        trials=6, n=12, m=60, target="EqualRepresentation",
        delta=0.05, seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_config_dict():
    """small_config() as a config file states it."""
    return {"generator": {"kind": KIND_DISPARATE_ERROR}, "sweep": {"alpha_grid": [0.0, 1.0]},
            "algorithms": ["Blind", "FairExpec", "Thrsh"], "trials": 6, "n": 12, "m": 60,
            "target": "EqualRepresentation", "delta": 0.05, "seed": 11}


def test_config_file_reads_the_documented_schema(tmp_path):
    data = small_config_dict()
    data["generator"]["params"] = {"component_stds": [0.1, 0.1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    gen = cfg.generator
    assert (gen.kind, gen.m, gen.n, gen.seed) == (KIND_DISPARATE_ERROR, 60, 12, 0)
    assert gen.params == {"component_stds": [0.1, 0.1]}
    assert (cfg.sweep_kind, cfg.grid, cfg.algorithms) == ("alpha_grid", (0.0, 1.0),
                                                           ("Blind", "FairExpec", "Thrsh"))
    assert (cfg.trials, cfg.m, cfg.n, cfg.seed, cfg.delta) == (6, 60, 12, 11, 0.05)


def test_config_file_optional_keys_default_to_the_fields():
    # only the disparate-utility kind reads tau and bins
    cfg = ExperimentConfig.from_dict(small_config_dict())  # the swept alpha stays None
    assert (cfg.alpha, cfg.lambda_, cfg.tau, cfg.bins) == (None, 0.0, None, None)
    utility = {**small_config_dict(), "generator": {"kind": KIND_DISPARATE_UTILITY},
               "sweep": {"n_grid": [6, 12.0]}}
    cfg = ExperimentConfig.from_dict(utility)
    assert (cfg.alpha, cfg.lambda_, cfg.tau, cfg.bins) == (1.0, 0.0, 0.0, 20)
    cfg = ExperimentConfig.from_dict({**utility, "alpha": 0.5, "lambda": 3, "tau": 0.25,
                                      "bins": 4.0})
    assert (cfg.alpha, cfg.lambda_, cfg.tau, cfg.bins) == (0.5, 3.0, 0.25, 4)
    assert type(cfg.lambda_) is float and type(cfg.bins) is int
    assert cfg.grid == (6.0, 12.0) and all(type(g) is float for g in cfg.grid)


@pytest.mark.parametrize("sweep_kind, grid", [
    ("alpha_grid", (0.0, 1.0)), ("lambda_grid", (0.0, 2.0)), ("tau_grid", (0.0, 0.2)),
    ("n_grid", (6, 12))])
def test_a_config_of_each_sweep_kind_can_be_replaced(sweep_kind, grid):
    # the swept setting's field stays None, so the copy does not both fix and sweep it
    cfg = small_config(generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=60, n=12),
                       sweep_kind=sweep_kind, grid=grid)
    again = replace(cfg, trials=2)
    knobs = {"alpha_grid": cfg.alpha, "lambda_grid": cfg.lambda_, "tau_grid": cfg.tau}
    assert knobs.get(sweep_kind) is None and again.trials == 2
    names = ("grid", "alpha", "lambda_", "tau", "bins", "n")
    assert [getattr(again, name) for name in names] == [getattr(cfg, name) for name in names]


def test_a_disparate_utility_trial_builds_one_instance_per_draw_and_tau(monkeypatch):
    # the training and the scored draw and the scored one's rows attached once: 3
    # instances; FairExpecGrp alone reads flipped labels, so only it adds, per tau, the
    # flipped instance and its group-level rows (at alpha 0.5 it is feasible)
    built, post_init = [], experiment.Instance.__post_init__
    monkeypatch.setattr(experiment.Instance, "__post_init__",
                        lambda inst: built.append(inst) or post_init(inst))
    for algorithms, alpha, built_per_tau in ((("Blind", "Thrsh", "MultObj"), None, 0),
                                             (("Blind", "Thrsh", "MultObj", "FairExpecGrp"),
                                              0.5, 2)):
        cfg = small_config(generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=60, n=12),
                           sweep_kind="tau_grid", grid=(0.0, 0.1, 0.2), algorithms=algorithms,
                           alpha=alpha, trials=1)
        built.clear()
        table = run_experiment(cfg)
        assert all(row.mean is not None for row in table.rows)
        assert len(built) == 3 + built_per_tau * len(cfg.grid), algorithms


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(sweep_kind="beta_grid")
    with pytest.raises(ValueError):
        small_config(grid=())
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(algorithms=("Blind", "Oops"))
    # a config built in Python is checked as a file is
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\), not 1.0"):
        small_config(delta=1.0)
    with pytest.raises(ValueError, match="alpha_grid must hold numbers only"):
        small_config(grid=(True, False))
    with pytest.raises(ValueError, match=r"bins must lie in \[1, m=60\], not 0"):
        small_config(bins=0, generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=60, n=12))
    with pytest.raises(ValueError, match="the disparate_error generator reads no bins"):
        small_config(bins=0)
    with pytest.raises(ValueError, match="the config fixes alpha and sweeps alpha_grid"):
        small_config(alpha=1.0)
    with pytest.raises(ValueError, match="m must be an integer, not 60.5"):
        small_config(m=60.5, generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=60.5, n=12))


def test_config_rejects_empty_algorithm_list():
    with pytest.raises(ValueError, match="at least one algorithm"):
        small_config(algorithms=())


def test_config_rejects_a_generator_section_that_is_not_read():
    # trials draw at the config's m, n and seed, never at the generator's
    with pytest.raises(ValueError, match="m=500, n=12 differ from the config's m=60, n=12"):
        small_config(generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=500, n=12))
    with pytest.raises(ValueError, match="m=60, n=5 differ from the config's m=60, n=12"):
        small_config(generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=60, n=5))
    with pytest.raises(ValueError, match=r"must be 0, not 3: trials draw from the config seed \(11\)"):
        small_config(generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=60, n=12, seed=3))


def test_config_rejects_unknown_keys(tmp_path):
    data = small_config_dict()
    data["lamda"] = 500
    with pytest.raises(ValueError, match="unknown config keys: \\['lamda'\\]"):
        ExperimentConfig.from_dict(data)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="lamda"):
        load_config(path)


def test_run_trial_reports_all_metrics():
    cfg = small_config()
    res = run_trial(cfg, 0, 0)
    assert set(res) == set(cfg.algorithms)
    for vals in res.values():
        assert set(vals) == {"risk_difference", "selection_lift",
                             "utility_ratio", "max_violation"}
        assert all(v is not None for v in vals.values())


def test_blind_utility_ratio_is_one():
    table = run_experiment(small_config(algorithms=("Blind",), trials=3))
    for g in (0.0, 1.0):
        assert mean_of(table, g, "Blind", "utility_ratio") == pytest.approx(1.0)


def test_single_trial_has_zero_sem():
    table = run_experiment(small_config(algorithms=("Blind",), trials=1))
    for row in table.rows:
        if row.metric != "excluded_trials":
            assert row.sem == 0.0


def test_rows_ordered_and_complete():
    cfg = small_config(trials=2)
    table = run_experiment(cfg)
    expected = []
    for g in cfg.grid:
        for alg in cfg.algorithms:
            for metric in ("risk_difference", "selection_lift", "utility_ratio",
                           "max_violation", "excluded_trials"):
                expected.append((g, alg, metric))
    assert [(r.grid, r.algorithm, r.metric) for r in table.rows] == expected


def test_reproducible_and_parallelism_invariant(tmp_path):
    cfg = small_config(trials=4)
    t1 = run_experiment(cfg, workers=1)
    t2 = run_experiment(cfg, workers=1)
    t3 = run_experiment(cfg, workers=2)
    p1, p2, p3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    write_results(t1, p1)
    write_results(t2, p2)
    write_results(t3, p3)
    assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()


# each id is the one its case ran under when an environment variable could also set the count
@pytest.mark.parametrize("workers, message", [
    (0, "workers must be a positive integer, not 0"),
    (-3, "workers must be a positive integer, not -3"),
    (math.nan, "workers must be an integer, not nan"),
    (1.5, "workers must be an integer, not 1.5"),
    ("2", "workers must be an integer, not '2'"),
    (True, "workers must be an integer, not True"),
], ids=["0-None-workers must be a positive integer, not 0",
        "-3-4-workers must be a positive integer, not -3", "nan", "1.5", "str", "bool"])
def test_a_worker_count_below_one_is_rejected_by_name(workers, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(small_config(trials=1), workers=workers)


def test_a_whole_float_worker_count_reads_as_that_integer():
    cfg = small_config(trials=2)
    two = run_experiment(cfg, workers=2)
    assert render_csv(run_experiment(cfg, workers=2.0)) == render_csv(two)


@pytest.mark.parametrize("grid, trials, started",
                         [((0.0, 1.0), 2, [2]), ((1.0,), 1, []), ((0.0, 1.0), 1, [])])
def test_the_pool_is_capped_at_the_task_count(monkeypatch, grid, trials, started):
    # a task is a trial, at every grid point, and a pool forks all its workers up
    # front: record the size instead of starting one
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", FakePool)
    cfg = small_config(grid=grid, trials=trials)
    table = run_experiment(cfg, workers=5000)
    assert sizes == started
    assert render_csv(table) == render_csv(run_experiment(cfg, workers=1))


def test_aggregation_matches_per_trial_dump(tmp_path):
    cfg = small_config(trials=5)
    table = run_experiment(cfg)
    path = tmp_path / "per_trial.csv"
    write_per_trial(table, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        values = {}
        for rec in reader:
            if rec["value"] == "NA":
                continue
            key = (float(rec["grid"]), rec["algorithm"], rec["metric"])
            values.setdefault(key, []).append(float(rec["value"]))
    for row in table.rows:
        if row.metric == "excluded_trials" or row.mean is None:
            continue
        vals = values[(row.grid, row.algorithm, row.metric)]
        assert row.mean == pytest.approx(np.mean(vals), abs=1e-9)
        expect_sem = np.std(vals, ddof=1) / np.sqrt(len(vals)) if len(vals) > 1 else 0.0
        assert row.sem == pytest.approx(expect_sem, abs=1e-9)


def test_infeasible_trials_recorded_not_fatal():
    # delta=0 with alpha=1 on a tiny pool makes some equal-representation
    # draws infeasible for Thrsh; they must show up as exclusions
    cfg = small_config(
        generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=12, n=8, seed=0),
        m=12, n=8, trials=12, delta=0.0, grid=(1.0,),
        algorithms=("Thrsh", "FairExpec"))
    table = run_experiment(cfg)
    excluded = mean_of(table, 1.0, "Thrsh", "excluded_trials")
    assert excluded >= 1
    rd = mean_of(table, 1.0, "Thrsh", "risk_difference")
    assert rd is None or 0.0 <= rd <= 1.0


def test_draws_with_an_empty_true_group_are_excluded_under_an_equal_target():
    # at m=3 some draws put every item in one true group; no metric is
    # defined on them, so they count as excluded instead of ending the sweep
    cfg = small_config(
        generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=3, n=1, seed=0),
        m=3, n=1, trials=40, seed=0, grid=(1.0,), algorithms=("Blind",))
    table = run_experiment(cfg)
    excluded = mean_of(table, 1.0, "Blind", "excluded_trials")
    assert 1 <= excluded < 40
    assert mean_of(table, 1.0, "Blind", "utility_ratio") == pytest.approx(1.0)


def test_tau_sweep_uses_disparate_utility_pipeline():
    cfg = ExperimentConfig(
        generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=300, n=30, seed=0),
        sweep_kind="tau_grid", grid=(0.0, 0.4),
        algorithms=("FairExpec", "FairExpecGrp"),
        trials=3, n=30, m=300, target="Proportional", delta=0.02, seed=5)
    table = run_experiment(cfg)
    for g in (0.0, 0.4):
        for alg in cfg.algorithms:
            rd = mean_of(table, g, alg, "risk_difference")
            assert 0.0 <= rd <= 1.0


def test_n_sweep():
    cfg = small_config(sweep_kind="n_grid", grid=(6.0, 12.0),
                       algorithms=("Blind",), trials=2)
    table = run_experiment(cfg)
    assert mean_of(table, 6.0, "Blind", "utility_ratio") == pytest.approx(1.0)


# --- one draw per trial ----------------------------------------------------

ALL_FIVE = ("Blind", "FairExpec", "FairExpecGrp", "Thrsh", "MultObj")
SELECTION_METRICS = ("risk_difference", "selection_lift", "utility_ratio")


def tau_config(**overrides):
    """A small disparate-utility tau sweep on which Thrsh is often feasible."""
    base = dict(generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=200, n=20),
                sweep_kind="tau_grid", grid=(0.0, 0.3, 0.5), algorithms=ALL_FIVE,
                trials=4, n=20, m=200, target="Proportional", delta=0.05, seed=5,
                alpha=0.5, lambda_=100.0)
    base.update(overrides)
    return ExperimentConfig(**base)


def per_trial(table, alg, metrics=experiment.METRIC_NAMES) -> dict:
    """grid value -> alg's per-trial values of ``metrics``, in trial order."""
    out = {}
    for grid, name, metric, _, value in table.per_trial:
        if name == alg and metric in metrics:
            out.setdefault(grid, []).append(value)
    return out


def test_an_alpha_sweep_runs_every_grid_point_on_the_trials_one_draw():
    # Blind reads no bound, so its selection is the same at every alpha; its
    # max_violation is measured against each alpha's own bounds
    table = run_experiment(small_config(grid=(0.0, 0.5, 1.0), trials=5))
    values = per_trial(table, "Blind", SELECTION_METRICS)
    assert values[0.0] == values[0.5] == values[1.0]
    assert None not in values[0.0]


def test_a_tau_sweep_moves_only_the_noisy_labels():
    # Blind and Thrsh read no noisy label: every tau gives them the same row
    table = run_experiment(tau_config())
    for alg in ("Blind", "Thrsh"):
        values = per_trial(table, alg)
        assert values[0.0] == values[0.3] == values[0.5], alg
    assert any(v is not None for v in per_trial(table, "Thrsh")[0.0])


def test_the_labels_flipped_at_a_smaller_tau_stay_flipped_at_a_larger_one():
    cfg = tau_config(trials=20)
    at_03 = only_at_05 = 0
    for trial in range(cfg.trials):
        draw = experiment.TrialDraw(cfg, trial)
        insts = {tau: experiment._observe(draw._spec, draw._drawn, tau, trial) for tau in cfg.grid}
        flips = {tau: inst.noisy_attrs[:, 0] != inst.true_attrs[:, 0]
                 for tau, inst in insts.items()}
        assert not flips[0.0].any()
        assert not np.any(flips[0.3] & ~flips[0.5])
        at_03 += np.count_nonzero(flips[0.3])
        only_at_05 += np.count_nonzero(flips[0.5] & ~flips[0.3])
    assert at_03 > 0 and only_at_05 > 0


@pytest.mark.parametrize("cfg", [
    small_config(grid=(0.0, 0.5, 1.0), algorithms=ALL_FIVE, trials=3, lambda_=100.0),
    tau_config(trials=3),
    small_config(sweep_kind="n_grid", grid=(6.0, 12.0), algorithms=ALL_FIVE, trials=3,
                 lambda_=100.0),
    tau_config(sweep_kind="n_grid", grid=(10.0, 20.0), tau=0.3, trials=3),
    # Thrsh, FairExpec and FairExpecGrp solve once for every lambda
    tau_config(sweep_kind="lambda_grid", grid=(0.0, 10.0, 100.0), lambda_=None, tau=0.3,
               trials=3),
    # MultObj solves once for every alpha
    tau_config(sweep_kind="alpha_grid", grid=(0.0, 0.5, 1.0), alpha=None, tau=0.3, trials=3),
    # the sweep-baselines shape: no label is flipped, and Blind's and Thrsh's rows are kept
    tau_config(algorithms=("Blind", "Thrsh", "MultObj"), alpha=1.0, lambda_=500.0, delta=0.01,
               trials=3),
    # a repeated value shares every kept part, its rounded rows included
    small_config(grid=(0.5, 0.5), algorithms=ALL_FIVE, trials=3, lambda_=100.0),
    # FairExpec's and MultObj's rounded rows are kept once per trial
    tau_config(algorithms=("FairExpec", "MultObj"), trials=3),
], ids=["alpha", "tau", "n-error", "n-utility", "lambda-shared", "alpha-utility-shared",
        "tau-baselines", "alpha-repeated", "tau-rounded"])
def test_a_grid_point_run_alone_gives_the_row_its_sweep_reports(cfg):
    table = run_experiment(cfg)
    shared = {(grid, alg, metric, trial): value
              for grid, alg, metric, trial, value in table.per_trial}
    for gi, grid in enumerate(cfg.grid):
        for trial in range(cfg.trials):
            alone = run_trial(cfg, gi, trial)
            assert alone == {alg: {metric: shared[grid, alg, metric, trial]
                                   for metric in experiment.METRIC_NAMES}
                             for alg in cfg.algorithms}, (gi, trial)


def test_a_trial_rejects_the_draw_of_another_trial():
    cfg = small_config()
    with pytest.raises(ValueError, match="another config or trial"):
        run_trial(cfg, 0, 1, experiment.TrialDraw(cfg, 0))
    with pytest.raises(ValueError, match="another config or trial"):
        run_trial(cfg, 0, 0, experiment.TrialDraw(small_config(), 0))


def test_an_overflowing_lambda_stops_the_sweep_in_its_first_trial(monkeypatch):
    # the overflow bound needs the drawn utilities, so the first trial to reach
    # the large lambda rejects it, before any other trial runs
    calls, run = [], experiment.run_trial
    monkeypatch.setattr(experiment, "run_trial",
                        lambda *args: calls.append(args[1:3]) or run(*args))
    cfg = small_config(sweep_kind="lambda_grid", grid=(0.0, 1e308), algorithms=("MultObj",),
                       trials=40)
    with pytest.raises(ValueError, match=r"lambda=1e\+308 is too large"):
        run_experiment(cfg)
    assert calls == [(0, 0), (1, 0)]
    assert len(calls) <= len(cfg.grid)


# --- each step solved once per value of the settings it reads -------------------

READS = {"Blind": {"n"}, "FairExpec": {"n", "alpha"}, "FairExpecGrp": {"n", "alpha", "tau"},
         "Thrsh": {"n", "alpha"}, "MultObj": {"n", "lambda"}}
AXES = {"alpha": (0.0, 1.0), "lambda": (0.0, 100.0), "tau": (0.0, 0.5), "n": (10.0, 20.0)}


def test_each_algorithm_names_the_settings_its_step_reads():
    assert {name: set(algo.reads) for name, algo in selectors.ALGORITHMS.items()} == READS
    assert set(AXES) == set(experiment.SETTINGS)


def _record_steps(monkeypatch, name) -> list:
    """Each output of ``name``'s step from now on, as bytes, or None if it was infeasible."""
    outputs, algo = [], selectors.ALGORITHMS[name]

    def solve(pb):
        try:
            out = algo.solve(pb)
        except selectors.InfeasibleError:
            outputs.append(None)
            raise
        outputs.append((out.chosen if isinstance(out, selectors.Selection) else out).tobytes())
        return out

    monkeypatch.setitem(selectors.ALGORITHMS, name, replace(algo, solve=solve))
    return outputs


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("name", READS)
def test_a_step_output_moves_with_exactly_the_settings_it_reads(monkeypatch, name, axis):
    # each grid point on a fresh draw, so nothing is shared but the draw's streams:
    # a setting outside reads leaves every output's bytes as they are, and one in it
    # moves some of them (at alpha 0.9 the bounds bind, and Thrsh is feasible)
    outputs = _record_steps(monkeypatch, name)
    swept = {} if axis == "n" else {experiment.FIELDS.get(axis, axis): None}  # n is required
    cfg = tau_config(sweep_kind=f"{axis}_grid", grid=AXES[axis], algorithms=(name,), trials=3,
                     **{"tau": 0.3, "alpha": 0.9, **swept})
    for trial in range(cfg.trials):
        for gi in range(len(cfg.grid)):
            run_trial(cfg, gi, trial, experiment.TrialDraw(cfg, trial))
    assert len(outputs) == 2 * cfg.trials  # no draw has an empty group
    moved = [outputs[i] != outputs[i + 1] for i in range(0, len(outputs), 2)]
    assert any(moved) if axis in READS[name] else not any(moved), moved


def _count_calls(monkeypatch, module, *names) -> dict:
    """How often each function of ``names``, looked up in ``module``, is called from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, fn=getattr(module, name), **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def _count_solves(monkeypatch) -> dict:
    """How often each of thrsh, mult_obj and denoised_bfs is called from now on."""
    return _count_calls(monkeypatch, selectors, "thrsh", "mult_obj", "denoised_bfs")


@pytest.mark.parametrize("sweep_kind, grid, shared", [
    ("tau_grid", (0.0, 0.3, 0.5), True),
    ("n_grid", (10.0, 15.0, 20.0), False),
    # a grid that repeats a value solves once per distinct value
    ("tau_grid", (0.0, 0.3, 0.3), True),
    ("n_grid", (10.0, 20.0, 20.0), False),
])
def test_a_sweep_solves_each_step_once_per_value_of_what_it_reads(monkeypatch, sweep_kind,
                                                                 grid, shared):
    # FairExpec and FairExpecGrp both call denoised_bfs; only FairExpecGrp reads tau
    cfg = tau_config(sweep_kind=sweep_kind, grid=grid, tau=None if shared else 0.3, trials=4)
    assert not any(experiment.TrialDraw(cfg, tr).empty_group for tr in range(cfg.trials))
    calls = _count_solves(monkeypatch)
    run_experiment(cfg)
    points = cfg.trials * len(set(grid))
    once = cfg.trials if shared else points
    assert calls == {"thrsh": once, "mult_obj": once, "denoised_bfs": once + points}


def test_an_infeasible_thrsh_draw_is_solved_once_and_reported_at_every_tau(monkeypatch):
    cfg = tau_config(alpha=0.98, algorithms=("Thrsh",), trials=6)
    calls = _count_solves(monkeypatch)
    values = per_trial(run_experiment(cfg), "Thrsh")
    assert calls["thrsh"] == cfg.trials
    assert values[0.0] == values[0.3] == values[0.5]
    infeasible = [value is None for value in values[0.0]]
    assert any(infeasible) and not all(infeasible)  # some draws of each kind


def test_a_value_error_is_not_kept_by_the_draw():
    # the lambda overflow is raised again, not remembered as an infeasible step
    cfg = small_config(sweep_kind="lambda_grid", grid=(0.0, 1e308), algorithms=("MultObj",))
    draw = experiment.TrialDraw(cfg, 0)
    for _ in range(2):
        with pytest.raises(ValueError, match="too large"):
            run_trial(cfg, 1, 0, draw)


# --- each part of a grid point made once per value of the settings that reach it ---

def _no_empty_group(cfg):
    assert not any(experiment.TrialDraw(cfg, tr).empty_group for tr in range(cfg.trials))
    return cfg


@pytest.mark.parametrize("algorithms, flips_per_tau", [(("Blind", "Thrsh", "MultObj"), 0),
                                                       (ALL_FIVE, 1)])
def test_labels_are_flipped_only_for_fair_expec_grp_once_per_trial_and_tau(monkeypatch,
                                                                          algorithms,
                                                                          flips_per_tau):
    cfg = _no_empty_group(tau_config(algorithms=algorithms, trials=4))
    calls = _count_calls(monkeypatch, experiment, "inject_flip_noise")
    run_experiment(cfg)
    assert calls == {"inject_flip_noise": flips_per_tau * cfg.trials * len(cfg.grid)}


@pytest.mark.parametrize("alg", ["Blind", "Thrsh", "MultObj"])
def test_a_tau_sweep_scores_blind_thrsh_and_mult_obj_once_per_trial(monkeypatch, alg):
    # their selections, bounds and blind utility are the same at every tau:
    # MultObj rounds its one x per trial from the trial's one stream for it
    cfg = _no_empty_group(tau_config(algorithms=(alg,), trials=4))
    violations = _count_calls(monkeypatch, experiment, "violation_report")
    reports = _count_calls(monkeypatch, experiment.metrics_mod, "compute_report")
    values = per_trial(run_experiment(cfg), alg, ("risk_difference",))
    feasible = sum(value is not None for value in values[0.0])
    assert feasible == cfg.trials or alg == "Thrsh" and feasible > 0
    assert (violations["violation_report"], reports["compute_report"]) == (feasible, feasible)


@pytest.mark.parametrize("cfg, same, moved", [
    # at alpha 0.9 the bounds bind, so FairExpecGrp's rows move with the flipped labels
    (tau_config(alpha=0.9), ("Blind", "FairExpec", "Thrsh", "MultObj"), ("FairExpecGrp",)),
    (tau_config(sweep_kind="lambda_grid", grid=(0.0, 10.0, 100.0), lambda_=None, tau=0.3),
     ("Blind", "FairExpec", "FairExpecGrp", "Thrsh"), ("MultObj",)),
], ids=["tau", "lambda"])
def test_a_rounded_row_is_the_same_wherever_its_reads_are(monkeypatch, cfg, same, moved):
    # a rounded selection depends on the step output, n and the trial alone: every
    # rounding stream is (trial, 4, a_idx), with no grid index, and the draws (trial, k)
    keys = _record_seed_streams(monkeypatch)
    table = run_experiment(_no_empty_group(cfg))
    rounding = [key for key in keys if len(key) != 2]
    assert rounding and all(len(key) == 3 and key[0] in range(cfg.trials) and key[1] == 4
                            and key[2] in range(len(cfg.algorithms)) for key in rounding)
    for alg in same:
        values = per_trial(table, alg)
        assert all(values[grid] == values[cfg.grid[0]] for grid in cfg.grid), alg
    for alg in moved:  # not forced equal: its step reads the swept setting
        values = per_trial(table, alg)
        assert any(values[grid] != values[cfg.grid[0]] for grid in cfg.grid), alg


@pytest.mark.parametrize("axis", AXES)
def test_the_bounds_are_made_once_per_trial_n_and_alpha(monkeypatch, axis):
    swept = {} if axis == "n" else {experiment.FIELDS.get(axis, axis): None}  # n is required
    cfg = _no_empty_group(tau_config(sweep_kind=f"{axis}_grid", grid=AXES[axis], trials=4,
                                     **{"tau": 0.3, **swept}))
    calls = _count_calls(monkeypatch, experiment, "constraints_from_alpha")
    run_experiment(cfg)
    per_trial_bounds = len(cfg.grid) if axis in ("n", "alpha") else 1
    assert calls == {"constraints_from_alpha": cfg.trials * per_trial_bounds}


# --- results serialization -------------------------------------------------

def test_empty_table_csv():
    assert render_csv(ResultTable(rows=())) == "grid,algorithm,metric,mean,sem\n"


def test_one_row_csv_roundtrip(tmp_path):
    table = ResultTable(rows=(ResultRow(0.5, "Blind", "risk_difference", 0.8125, 0.01),))
    path = tmp_path / "one.csv"
    write_results(table, path)
    assert path.read_text() == render_csv(table) == (
        "grid,algorithm,metric,mean,sem\n0.5,Blind,risk_difference,0.8125,0.01\n")


def test_json_roundtrip_identity(tmp_path):
    cfg = small_config(trials=2)
    table = run_experiment(cfg)
    path = tmp_path / "res.json"
    write_results(table, path, format="json")
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    assert [(r["grid"], r["algorithm"], r["metric"], r["mean"], r["sem"]) for r in rows] == \
        [(r.grid, r.algorithm, r.metric, r.mean, r.sem) for r in table.rows]


def test_na_serialization(tmp_path):
    table = ResultTable(rows=(ResultRow(1.0, "Thrsh", "risk_difference", None, None),))
    path = tmp_path / "na.csv"
    write_results(table, path)
    assert path.read_text().splitlines()[1] == "1,Thrsh,risk_difference,NA,NA"


def test_csv_six_significant_digits(tmp_path):
    table = ResultTable(rows=(ResultRow(0.0, "Blind", "risk_difference",
                                        0.123456789, 0.000123456789),))
    path = tmp_path / "digits.csv"
    write_results(table, path)
    line = path.read_text().splitlines()[1]
    assert line == "0,Blind,risk_difference,0.123457,0.000123457"


def test_config_accepts_exactly_the_registry():
    from fairselect.selectors import ALGORITHMS
    assert small_config(algorithms=tuple(ALGORITHMS)).algorithms == tuple(ALGORITHMS)
    for name in ("blind", "FairExpec ", "Oracle", ""):
        with pytest.raises(ValueError):
            small_config(algorithms=(name,))


def test_run_trial_with_each_registry_algorithm():
    from fairselect.selectors import ALGORITHMS
    for name in ALGORITHMS:
        res = run_trial(small_config(algorithms=(name,)), 1, 0)
        assert set(res) == {name}


def _record_seed_streams(monkeypatch) -> list:
    """The spawn key of every SeedSequence built from now on, wherever it is built."""
    keys = []

    class Recording(np.random.SeedSequence):
        def __init__(self, entropy=None, *, spawn_key=(), **kwargs):
            keys.append(tuple(spawn_key))
            super().__init__(entropy, spawn_key=spawn_key, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", Recording)
    return keys


def test_a_trial_derives_a_rounding_stream_only_for_an_algorithm_that_rounds(monkeypatch):
    keys = _record_seed_streams(monkeypatch)
    cfg = small_config(algorithms=("Blind", "Thrsh"))
    assert run_trial(cfg, 0, 0)["Thrsh"]["risk_difference"] is not None
    assert keys and not any(key[1:2] == (4,) for key in keys)
    # a rounding draws only for a fractional x: at gi = 0 (alpha = 0) FairExpec's
    # vertex is binary, and MultObj's x is binary at lambda = 0 alone
    rounded, dependent_round = [], selectors.dependent_round
    monkeypatch.setattr(selectors, "dependent_round", lambda x, n, seed, w, *key: (
        rounded.append((key, bool(np.any((x > 0.0) & (x < 1.0)))))
        or dependent_round(x, n, seed, w, *key)))
    for lam, drawn in ((0.0, []), (100.0, [(0, 4, 3)])):
        keys.clear()
        rounded.clear()
        run_trial(small_config(algorithms=("Blind", "FairExpec", "Thrsh", "MultObj"), lambda_=lam),
                  0, 0)
        assert [key for key in keys if key[1:2] == (4,)] == drawn
        assert [key for key, fractional in rounded if fractional] == drawn
        assert [key for key, _ in rounded] == [(0, 4, 1), (0, 4, 3)]


@pytest.mark.parametrize("algorithms", [("Blind", "FairExpec"), ("Thrsh",)])
def test_a_trial_derives_the_imputation_stream_only_for_a_tie(monkeypatch, algorithms):
    # the disparate-error rows of q are continuous draws, so no row has a tie
    cfg = small_config(algorithms=algorithms)
    ss = seeding.seed_sequence(cfg.seed, 0)  # the root of trial 0's draws
    q = experiment.build_instance(replace(cfg.generator, seed=ss), None, None).noise_matrix(0)
    assert np.all(q[:, 0] != q[:, 1])
    keys = _record_seed_streams(monkeypatch)
    assert all(res["risk_difference"] is not None for res in run_trial(cfg, 1, 0).values())
    assert (0, 0) in keys and (0, 3) not in keys


@pytest.mark.parametrize("kind", [KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY])
def test_a_trial_builds_one_spec_and_no_seed_object_for_its_own_key(monkeypatch, kind):
    # each draw of trial 2, at any grid point, builds its stream from (cfg.seed, 2, k) itself
    cfg = small_config(generator=GeneratorSpec(kind=kind, m=60, n=12), algorithms=("Blind",))
    specs, post_init = [], GeneratorSpec.__post_init__
    monkeypatch.setattr(GeneratorSpec, "__post_init__",
                        lambda spec: specs.append(spec) or post_init(spec))
    keys = _record_seed_streams(monkeypatch)
    run_trial(cfg, 1, 2)
    assert len(specs) == 1
    assert (2, 0) in keys and (2,) not in keys and not any(key[:1] == (1,) for key in keys)


def _fields(inst):
    """Every field of an instance, each array as its dtype, shape and bytes."""
    def bits(a):
        return None if a is None else (a.dtype, a.shape, a.tobytes())
    return (inst.n, inst.p, bits(inst.utilities), bits(inst.true_attrs), bits(inst.noisy_attrs),
            None if inst.noise is None else [bits(q) for q in inst.noise])


@given(st.sampled_from([KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY]), st.data())
def test_a_key_path_draws_what_a_root_built_from_it_draws(kind, data):
    m = data.draw(st.integers(1, 60), label="m")
    spec = GeneratorSpec(kind=kind, m=m, n=data.draw(st.integers(1, m), label="n"),
                         seed=data.draw(st.integers(0, 2**32), label="seed"))
    tau = data.draw(st.floats(0.0, 0.5), label="tau")
    bins = data.draw(st.integers(1, m), label="bins")
    gi, tr = data.draw(st.integers(0, 50), label="gi"), data.draw(st.integers(0, 50), label="tr")
    root = replace(spec, seed=seeding.seed_sequence(spec.seed, gi, tr))
    assert (_fields(experiment.build_instance(spec, tau, bins, gi, tr))
            == _fields(experiment.build_instance(root, tau, bins)))


@st.composite
def result_cells(draw):
    """Rows of equally many metric values, as one (grid, algorithm) cell
    holds them: 0 or 1 values, 2-7 (numpy adds them in order) or 8-600
    (numpy adds them pairwise), with signed zeros, repeats and magnitudes
    from 1e-12 to 1e12."""
    count = draw(st.sampled_from([0, 1]) | st.integers(2, 7) | st.integers(8, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    repeated = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rows = []
    for _ in experiment.METRIC_NAMES:
        values = rng.standard_normal(count) * 10.0 ** rng.integers(-12, 13, size=count)
        picks = rng.random(count) < repeated
        values[picks] = rng.choice([0.0, -0.0, 1.0, 0.1, -2.5], size=int(picks.sum()))
        rows.append(values.tolist())
    return rows


def _bits(value):
    return None if value is None else value.hex()


@given(result_cells())
def test_a_cell_reduction_gives_each_row_its_own_bits(rows):
    expected = []
    for values in rows:
        if not values:
            expected.append((None, None))
            continue
        sem = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        expected.append((float(np.mean(values)), sem))
    got = experiment._mean_sem(rows)
    assert [(_bits(m), _bits(s)) for m, s in got] == [(_bits(m), _bits(s)) for m, s in expected]


def test_the_table_keeps_its_bits_when_its_cells_share_one_reduction():
    # Thrsh's imputed bounds admit a size-n selection in 12, 2, 1 and 0 of the
    # 12 trials at these alpha; Blind and MultObj keep all 12, which run
    # numpy's 8-way pairwise blocks
    cfg = ExperimentConfig(generator=GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=100, n=10),
                           sweep_kind="alpha_grid", grid=(0.0, 0.94, 0.95, 1.0),
                           algorithms=("Blind", "Thrsh", "MultObj"), trials=12, n=10, m=100,
                           target="Proportional", delta=0.05, seed=5, lambda_=100.0)
    results = [experiment._run_grid(cfg, tr) for tr in range(cfg.trials)]
    table, expected = run_experiment(cfg), reference_table(cfg, results)
    feasible = {(row.grid, row.algorithm): cfg.trials - row.mean for row in table.rows
                if row.metric == "excluded_trials"}
    assert [feasible[alpha, "Thrsh"] for alpha in cfg.grid] == [12, 2, 1, 0]
    assert {feasible[alpha, alg] for alpha in cfg.grid for alg in ("Blind", "MultObj")} == {12}

    def bits(table):
        return ([(row.grid, row.algorithm, row.metric, _bits(row.mean), _bits(row.sem))
                 for row in table.rows],
                [(*entry[:4], _bits(entry[4])) for entry in table.per_trial])

    assert bits(table) == bits(expected)


# each setting's range ends (m's for n and bins) with their float neighbours, zeros of both
# signs, NaN and the infinities; the ints at numpy's limits; a bool, a numpy bool, a string and
# nested lists, which hold no number; numpy scalars and 0-d arrays. A grid is a list or tuple
# of them, or of None.
M = 50
SETTING_VALUES = st.one_of(
    st.sampled_from([v for low, high, _ in experiment.RANGES.values()
                     for end in (low, M if high == "m" else high)
                     for v in (math.nextafter(end, -math.inf), float(end),
                               math.nextafter(end, math.inf))]
                    + [0.0, -0.0, math.nan, math.inf, -math.inf, 0, 1, M, 2**63, 2**64,
                       -2**63 - 1, True, np.bool_(True), "0.5", [0.5], [[0.5]], [0.5, [0.5]],
                       np.float64(0.5), np.float64(-0.0), np.float32(0.25), np.int64(3),
                       np.uint64(2**63), np.array(0.5), np.array(3), np.array(True)]),
    st.floats())
GRIDS = st.lists(SETTING_VALUES | st.none(), max_size=4).flatmap(
    lambda grid: st.sampled_from([grid, tuple(grid)]))


def _as_python_bool(value):
    """``value`` with each numpy bool read as Python's True or False: the array path took
    a numpy bool among numbers for 1.0, and the one path rejects it as it rejects a bool."""
    def read(v):
        return bool(v) if isinstance(v, (np.bool_, np.ndarray)) and v.dtype == bool else v
    return type(value)(map(read, value)) if isinstance(value, (list, tuple)) else read(value)


@settings(max_examples=600, deadline=None)
@given(key=st.sampled_from(list(experiment.RANGES)), form=st.sampled_from(["flag", "key", "grid"]),
       data=st.data())
def test_a_real_setting_is_checked_as_the_array_path_checked_it(key, form, data):
    """Every setting, n and bins included, and every grid: the one path gives each value
    the type and bits, or the message, that the three paths before it gave."""
    name = {"flag": f"--{key}", "key": key, "grid": f"{key}_grid"}[form]
    value = data.draw(GRIDS if form == "grid" else SETTING_VALUES, label="value")

    def outcome(call):
        try:
            got = call()
        except ValueError as exc:
            return str(exc)
        return type(got), list(map(type, got)) if form == "grid" else [], np.float64(got).tobytes()

    got = outcome(lambda: experiment.check_setting(name, value, KIND_DISPARATE_UTILITY, M))
    if experiment.RANGES[key][1] != "m":
        value = _as_python_bool(value)
    assert got == outcome(lambda: reference_check_setting(name, value, M))
