"""The benchmark's workloads: two seeded sweeps and in-process ``select``
calls at three instance sizes.

Every workload runs one operation type in a loop for the requested number
of seconds and checks each output outside the timed region. When tracing
is on, a fixed number of further operations then run under the tracer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pickle
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fairselect import cli, experiment
from fairselect.core import save_instance
from fairselect.datagen import (KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY,
                                GeneratorSpec, gen_disparate_error)

from bench_trace import Tracer

SETUP_REPEATS = 40
SWEEP_TRIALS = 2
SWEEP_TRACE_OPS = 5
UTILITY_RTOL = 1e-6

# The host's speed drifts by a third over minutes when neighbours load it,
# so each timed step is also measured against a fixed reference computation
# run right before and after it (see ``op_cost`` in README.md). Its share of
# the run:
CALIBRATION_SHARE = 0.15
# and how long it first runs, since a single cold run reads slow:
CALIBRATION_START_S = 0.02
# Set-up times are reported in seconds at the speed where the kernel takes
# this long, about its time on the 2-vCPU host the trajectory comes from.
CALIBRATION_REFERENCE_S = 0.003
_CAL_MATRIX = np.random.default_rng(0).random((40, 40)) + 40 * np.eye(40)
_CAL_ROWS = [{"w": i / 7, "q": [[0.25, 0.75]], "z": [i % 2]} for i in range(300)]


def calibration_kernel() -> None:
    """A few milliseconds of the kinds of work the library does: small dense
    solves, a JSON round trip of instance-like records, an interpreter loop."""
    for _ in range(20):
        np.linalg.solve(_CAL_MATRIX, _CAL_MATRIX[0])
    json.loads(json.dumps(_CAL_ROWS))
    total = 0
    for i in range(20_000):
        total += i


def calibrate(seconds: float) -> float:
    """Mean time of the calibration kernel, run for at least ``seconds``
    and at least once."""
    calls = 0
    start = time.perf_counter()
    while True:
        calibration_kernel()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / calls


class Calibrator:
    """Expresses consecutive timed steps in calibration-kernel units."""

    def __init__(self):
        self.before = calibrate(CALIBRATION_START_S)

    def cost(self, elapsed: float) -> float:
        """``elapsed`` over the kernel's mean time just before and after it."""
        after = calibrate(CALIBRATION_SHARE * elapsed)
        cost = elapsed / ((self.before + after) / 2)
        self.before = after
        return cost


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: list = field(default_factory=list)    # raw time of each set-up repetition
    setup_cost: list = field(default_factory=list) # the same in calibration-kernel units
    op_ms: list = field(default_factory=list)      # untraced ms per unit of work, per operation
    op_cost: list = field(default_factory=list)    # the same over the calibration kernel's time
    units: int = 0                                 # trials or requests in untraced operations
    busy_s: float = 0.0                            # time inside those operations
    traced_cost: list = field(default_factory=list) # op_cost of each traced operation
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    tracer: Tracer = None
    info: dict = field(default_factory=dict)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def _measure(out: Outcome, operation, seconds: float, trace_ops: int) -> None:
    """Untraced operations until ``seconds`` have passed; then, if
    ``trace_ops`` > 0, that many more with every library layer wrapped.

    ``operation(i)`` runs and checks operation i and returns (units of
    work, seconds spent in the library), or None when it failed.
    """
    deadline = time.perf_counter() + seconds
    calibrator = Calibrator()
    i = 0
    while time.perf_counter() < deadline:
        done = operation(i)
        if done is not None:
            units, elapsed = done
            out.op_ms.append(elapsed * 1e3 / units)
            out.op_cost.append(calibrator.cost(elapsed) / units)
            out.units += units
            out.busy_s += elapsed
        i += 1
    if not trace_ops:
        return
    out.tracer = Tracer()
    out.tracer.install()
    try:
        calibrator = Calibrator()
        for i in range(trace_ops):
            done = operation(i)
            if done is not None:
                units, elapsed = done
                out.traced_cost.append(calibrator.cost(elapsed) / units)
    finally:
        out.tracer.restore()
    if out.tracer.bound_violations:
        out.fail(out.tracer.bound_violations,
                 "an LP vertex had more fractional entries than 1 + sum(p_k - 1)")


# --- sweeps -----------------------------------------------------------------

def sweep_configs(workload: str, seed: int) -> list:
    """Seeded sweep configurations; the library derives every trial's
    instance from the config seed."""
    if workload == "sweep-de":
        gen = GeneratorSpec(kind=KIND_DISPARATE_ERROR, m=500, n=100)
        common = dict(generator=gen, trials=SWEEP_TRIALS, n=100, m=500,
                      target=experiment.TARGET_EQUAL, delta=0.01)
        return [
            experiment.ExperimentConfig(
                sweep_kind="alpha_grid", grid=(0.0, 1.0),
                algorithms=("Blind", "FairExpec", "FairExpecGrp", "Thrsh"),
                seed=2 * seed, **common),
            experiment.ExperimentConfig(
                sweep_kind="lambda_grid", grid=(0.0, 2500.0), algorithms=("MultObj",),
                seed=2 * seed + 1, **common),
        ]
    gen = GeneratorSpec(kind=KIND_DISPARATE_UTILITY, m=1000, n=100)
    return [experiment.ExperimentConfig(
        generator=gen, sweep_kind="tau_grid", grid=(0.0, 0.3, 0.5),
        algorithms=("Blind", "Thrsh", "MultObj"), trials=SWEEP_TRIALS, n=100, m=1000,
        target=experiment.TARGET_PROPORTIONAL, delta=0.01, seed=seed,
        alpha=1.0, lambda_=500.0)]


def run_sweep(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    cfgs = None
    calibrator = Calibrator()
    for rep in range(SETUP_REPEATS):
        # set-up: build the configs and run one trial per grid point, so
        # imports and first-call costs are paid before timing starts; each
        # repetition draws other instances, so that the median does not
        # hang on how hard one seed's draws are
        start = time.perf_counter()
        cfgs = sweep_configs(workload, seed)
        for cfg in cfgs:
            for gi in range(len(cfg.grid)):
                experiment.run_trial(cfg, gi, rep)
        elapsed = time.perf_counter() - start
        out.setup_s.append(elapsed)
        out.setup_cost.append(calibrator.cost(elapsed))

    trials = sum(len(cfg.grid) * cfg.trials for cfg in cfgs)
    expected_rows = sum(len(cfg.grid) * len(cfg.algorithms) * 5 for cfg in cfgs)
    digests = []
    excluded = []

    def sweep(i: int):
        out.attempted += trials
        start = time.perf_counter()
        try:
            tables = [experiment.run_experiment(cfg, workers=1) for cfg in cfgs]
        except Exception:  # run_trial records infeasible draws itself
            out.fail(trials, traceback.format_exc(limit=-2))
            return None
        elapsed = time.perf_counter() - start
        text = "".join(experiment.render_csv(t) for t in tables)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        excluded.append(sum(row.mean for t in tables for row in t.rows
                            if row.metric == "excluded_trials"))
        if sum(len(t.rows) for t in tables) != expected_rows:
            out.fail(trials, "results table has the wrong number of rows")
            return None
        if digests[-1] != digests[0]:
            out.fail(trials, f"CSV digest {digests[-1]} differs from the first sweep's {digests[0]}")
            return None
        return trials, elapsed

    _measure(out, sweep, seconds, SWEEP_TRACE_OPS if trace else 0)
    out.info.update(trials_per_sweep=trials, sweeps=len(digests), csv_sha256=sorted(set(digests)),
                    excluded_trials=excluded[0] if excluded else None)
    return out


# --- select -----------------------------------------------------------------

# workload -> (m, n, distinct instances written at set-up). Instances differ
# in how hard they are to solve, so a run cycles through several to keep its
# median from hanging on one seed's draws.
SELECT_SIZES = {
    "select-m500": (500, 100, 40),
    "select-m10k": (10_000, 2000, 18),
    "select-m100k": (100_000, 100, 9),
}
SELECT_DELTA = 0.1
# The set-up child: it writes the instance files and pickles their
# references to REFS_FILE in the run's scratch directory.
SETUP_SCRIPT = Path(__file__).with_name("bench_setup.py")
REFS_FILE = "refs.pkl"
SETUP_TIMEOUT_S = 120
SELECT_ARGS = ["--algorithm", "FairExpec", "--alpha", "1", "--delta", str(SELECT_DELTA)]


def highs_optimum(utilities: np.ndarray, q: np.ndarray, n: int, delta: float) -> float:
    """Optimum of the expected-count relaxation for alpha = 1 and equal
    target shares, from scipy's HiGHS: max w'x s.t. q_l'x <= n/p + delta*n,
    1'x = n, 0 <= x <= 1. The lower rows -delta*n <= q_l'x are vacuous.

    HiGHS takes up to 13 s on the full LP at m=10^5, so it solves the LP
    over the best-utility columns and adds every left-out column whose
    reduced cost under the restricted duals is positive, until none is.
    The restricted optimum is then optimal for the full LP. The rows of q
    sum to 1, so the group rows and the cardinality row are nearly
    dependent; when one HiGHS method reports numerical trouble on that,
    the other is tried."""
    from scipy.optimize import linprog
    m, p = q.shape
    cols = np.argsort(-utilities, kind="stable")[:min(m, 4 * n)]
    while True:
        for method in ("highs-ipm", "highs-ds"):
            res = linprog(-utilities[cols], A_ub=q[cols].T, b_ub=np.full(p, n / p + delta * n),
                          A_eq=np.ones((1, len(cols))), b_eq=[float(n)],
                          bounds=(0.0, 1.0), method=method)
            if res.status in (0, 2):
                break
        if res.status == 2 and len(cols) < m:    # infeasible: too few columns
            cols = np.argsort(-utilities, kind="stable")[:min(m, 2 * len(cols))]
            continue
        if res.status != 0:
            raise RuntimeError(f"HiGHS could not solve a benchmark instance: {res.message}")
        # reduced costs of the minimisation; marginals are d(objective)/d(rhs)
        reduced = -utilities - q @ res.ineqlin.marginals - res.eqlin.marginals[0]
        reduced[cols] = 0.0
        entering = np.flatnonzero(reduced < -1e-9)
        if not len(entering):
            return -float(res.fun)
        cols = np.concatenate([cols, entering])


def make_instance(m: int, n: int, seed: int, i: int, workdir: str) -> dict:
    """Set-up of one request: a distinct seeded instance and its file, with
    the time they took, then its reference optimum, which is the
    benchmark's check and is not timed."""
    calibrator = Calibrator()
    start = time.perf_counter()
    inst = gen_disparate_error(GeneratorSpec(
        kind=KIND_DISPARATE_ERROR, m=m, n=n, seed=np.random.SeedSequence([seed, m, i])))
    path = str(Path(workdir) / f"instance-{m}-{i}.json")
    save_instance(inst, path)
    elapsed = time.perf_counter() - start
    optimum = highs_optimum(inst.utilities, inst.noise_matrix(0), n, SELECT_DELTA)
    return {"path": path, "m": m, "n": n, "p": inst.p, "utilities": np.asarray(inst.utilities),
            "optimum": optimum, "setup_s": elapsed, "setup_cost": calibrator.cost(elapsed)}


def _check_select(rc: int, text: str, ref: dict) -> str | None:
    """Why a select call's output is wrong, or None when it is right."""
    if rc != 0:
        return f"exit code {rc}"
    payload = json.loads(text)
    if payload.get("status") != "ok":
        return f"status {payload.get('status')!r}"
    n, m, p = ref["n"], ref["m"], ref["p"]
    card = payload["cardinality"]
    if not n <= card <= n + min(m, 1 + sum(pk - 1 for pk in p)):
        return f"cardinality {card} outside [n, n + min(m, 1 + sum(p_k - 1))] for n={n}"
    idx = np.asarray(payload["indices"], dtype=int) - 1
    if len(idx) != card or len(np.unique(idx)) != card or idx.min() < 0 or idx.max() >= m:
        return "indices do not match the reported cardinality"
    recomputed = float(ref["utilities"][idx].sum())
    if abs(recomputed - payload["utility"]) > 1e-9 * max(1.0, abs(recomputed)):
        return f"reported utility {payload['utility']} != sum over indices {recomputed}"
    opt = ref["optimum"]
    if payload["utility"] < opt - UTILITY_RTOL * max(1.0, abs(opt)):
        return f"utility {payload['utility']} below the HiGHS optimum {opt}"
    return None


def run_select(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    m, n, count = SELECT_SIZES[workload]
    out = Outcome()
    # Set-up runs in a child process so that its allocations (the instance
    # dicts written to JSON, HiGHS) do not raise this process's peak RSS.
    # subprocess.run waits for the child, and kills and reaps it on timeout.
    setup = subprocess.run([sys.executable, str(SETUP_SCRIPT), workload, str(seed), str(workdir)],
                           capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if setup.returncode != 0:
        raise RuntimeError(f"{workload} set-up exited {setup.returncode}:\n{setup.stderr}")
    refs = pickle.loads((workdir / REFS_FILE).read_bytes())
    out.setup_s = [ref["setup_s"] for ref in refs]
    out.setup_cost = [ref["setup_cost"] for ref in refs]

    def select(i: int):
        ref = refs[i % len(refs)]
        out.attempted += 1
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["select", "--instance", ref["path"], *SELECT_ARGS])
        except (Exception, SystemExit):
            out.fail(1, traceback.format_exc(limit=-2))
            return None
        elapsed = time.perf_counter() - start
        why = _check_select(rc, buf.getvalue(), ref)
        if why is not None:
            out.fail(1, f"{Path(ref['path']).name}: {why}")
            return None
        return 1, elapsed

    _measure(out, select, seconds, len(refs) if trace else 0)
    out.info.update(m=m, n=n, instances=count)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    if workload in SELECT_SIZES:
        return run_select(workload, seed, seconds, trace, workdir)
    return run_sweep(workload, seed, seconds, trace)


WORKLOADS = ("sweep-de", "sweep-baselines", *SELECT_SIZES)
