"""What the benchmark in perfbench/ needs from the library.

The benchmark wraps library functions by name and builds sweep configs
with keyword arguments, so renaming or deleting one of them breaks it.
These tests load its modules by path and fail first.
"""

import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fairselect.datagen import KIND_DISPARATE_ERROR, GeneratorSpec
from fairselect.experiment import ExperimentConfig, render_csv, run_experiment, run_trial
from fairselect.selectors import ALGORITHMS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    # bench_workloads imports bench_trace by its bare name
    saved = {name: sys.modules.get(name) for name in ("bench_trace", "bench_workloads")}
    try:
        yield _load("bench_trace"), _load("bench_workloads")
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


def _bindings(wrapped):
    """(call-site module, function name) -> the object bound there now."""
    out = {}
    for name, sites in wrapped.items():
        func = name.split(".")[1]
        for site in sites:
            out[site, func] = getattr(importlib.import_module(site), func)
    return out


def test_every_traced_layer_resolves(perfbench):
    bench_trace, _ = perfbench
    for name, sites in bench_trace.WRAPPED.items():
        module, func = name.split(".")
        defined = getattr(importlib.import_module("fairselect." + module), func)
        assert callable(defined), name
        for site in sites:
            assert getattr(importlib.import_module(site), func) is defined, (name, site)


def test_tracer_restores_every_binding(perfbench):
    bench_trace, _ = perfbench
    before = _bindings(bench_trace.WRAPPED)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        during = _bindings(bench_trace.WRAPPED)
        assert all(during[key] is not before[key] for key in before)
        cfg = ExperimentConfig(
            generator=GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=40, n=8),
            sweep_kind="alpha_grid", grid=(1.0,), algorithms=tuple(ALGORITHMS),
            trials=1, n=8, m=40, target="EqualRepresentation", delta=0.1, seed=3,
            lambda_=10.0)
        run_trial(cfg, 0, 0)
    finally:
        tracer.restore()
    assert _bindings(bench_trace.WRAPPED) == before
    called = set(tracer.names)
    for layer in ("selectors.impute_bayes", "selectors.thrsh", "selectors.mult_obj",
                  "selectors.group_level_instance", "lp.solve_bfs", "core.violation_report"):
        assert layer in called, layer


@pytest.mark.parametrize("workload", ["sweep-de", "sweep-baselines"])
def test_sweep_configs_build(perfbench, workload):
    _, bench_workloads = perfbench
    cfgs = bench_workloads.sweep_configs(workload, 1)
    assert cfgs and all(isinstance(cfg, ExperimentConfig) for cfg in cfgs)


# The CSV digest run.py reports for each sweep at --seed 1. A change that keeps
# every bit of the sweeps' output keeps these.
SWEEP_DIGESTS = {
    "sweep-de": "e6bb8599bf0d244df1b23d7b08cd9cf14c8094fc2b8c3eb536513a2f881d11e5",
    "sweep-baselines": "5deef1b79af6b5facd7696cebdfa6940d96232b90d6f26712eadd167e8fa6d6c",
}


@pytest.mark.parametrize("workload", SWEEP_DIGESTS)
def test_each_sweep_keeps_its_seed_1_digest(perfbench, workload):
    _, bench_workloads = perfbench
    text = "".join(render_csv(run_experiment(cfg))
                   for cfg in bench_workloads.sweep_configs(workload, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_DIGESTS[workload]
