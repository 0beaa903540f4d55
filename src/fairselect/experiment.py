"""Seeded trial sweeps over alpha / lambda / tau / n grids.

One experiment = a generator, one sweep axis, a set of algorithms, and a
trial count. Every trial derives its own substreams from (seed, grid
index, trial index), so results are byte-identical no matter how trials
are scheduled; the worker count only changes wall-clock time.

Fractional outputs (the LP vertex and the multi-objective iterate) are
rounded to exactly-n subsets with marginal-preserving dependent rounding
before metrics are computed, mirroring how the sweeps are reported.
"""

from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Optional

import numpy as np

from . import metrics as metrics_mod
from . import selectors
from .core import (InfeasibleError, Instance, check_keys, constraints_from_alpha, integer,
                   json_list, target_vector, violation_report)
from .datagen import (KIND_DISPARATE_ERROR, GeneratorSpec,
                      estimate_q_by_utility_bins, gen_disparate_error,
                      gen_disparate_utility, inject_flip_noise)
from .seeding import seed_sequence

SWEEP_KINDS = ("alpha_grid", "lambda_grid", "tau_grid", "n_grid")
TARGET_EQUAL = "EqualRepresentation"
TARGET_PROPORTIONAL = "Proportional"
METRIC_NAMES = ("risk_difference", "selection_lift", "utility_ratio", "max_violation")
WORKERS_ENV = "FAIRSELECT_WORKERS"
REQUIRED_CONFIG_KEYS = frozenset({"generator", "sweep", "algorithms", "trials", "n", "m",
                                  "target", "delta", "seed"})
CONFIG_KEYS = REQUIRED_CONFIG_KEYS | {"alpha", "lambda", "tau", "fw_iters", "bins"}
# a generator section names only what to draw: every trial draws at the
# config's own m and n, from the config's seed (see run_trial)
GENERATOR_KEYS = frozenset({"kind", "params"})


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    generator: GeneratorSpec
    sweep_kind: str
    grid: tuple
    algorithms: tuple
    trials: int
    n: int
    m: int
    target: str
    delta: float
    seed: int
    alpha: float = 1.0      # fixed alpha when the sweep axis is another knob
    lambda_: float = 0.0    # fixed lambda likewise
    tau: float = 0.0        # fixed flip noise likewise
    fw_iters: int = 500
    bins: int = 20

    def __post_init__(self):
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(f"sweep must be one of {SWEEP_KINDS}")
        if not self.grid:
            raise ValueError("the sweep grid must be nonempty")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")
        if not self.algorithms:
            raise ValueError("list at least one algorithm")
        bad = [a for a in self.algorithms if a not in selectors.ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad}")
        if self.target not in (TARGET_EQUAL, TARGET_PROPORTIONAL):
            raise ValueError(f"target must be {TARGET_EQUAL} or {TARGET_PROPORTIONAL}")
        # every trial draws at the config's own m, n and seed (see run_trial)
        gen = self.generator
        if (gen.m, gen.n) != (self.m, self.n):
            raise ValueError(f"the generator's m={gen.m}, n={gen.n} differ from the "
                             f"config's m={self.m}, n={self.n}")
        if gen.seed != 0:
            raise ValueError(f"the generator seed must be 0, not {gen.seed}: trials draw "
                             f"from the config seed ({self.seed})")
        if self.sweep_kind == "n_grid":
            for g in self.grid:
                if not 1 <= integer("n_grid", g) <= self.m:
                    raise ValueError(f"n_grid values must lie in [1, m={self.m}], not {g!r}")
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys("config", data, CONFIG_KEYS, REQUIRED_CONFIG_KEYS)
        sweep = data["sweep"]
        check_keys("sweep", sweep, frozenset(SWEEP_KINDS), frozenset())
        if len(sweep) != 1:
            raise ValueError("the sweep section must contain exactly one grid")
        (kind, grid), = sweep.items()
        gen = data["generator"]
        check_keys("generator", gen, GENERATOR_KEYS, frozenset({"kind"}))
        m, n = integer("m", data["m"]), integer("n", data["n"])
        return cls(
            generator=GeneratorSpec(kind=gen["kind"], m=m, n=n, params=dict(gen.get("params", {}))),
            sweep_kind=kind, grid=tuple(json_list(kind, grid)),
            algorithms=tuple(json_list("algorithms", data["algorithms"])),
            trials=integer("trials", data["trials"]), n=n, m=m,
            target=data["target"], delta=float(data["delta"]), seed=integer("seed", data["seed"]),
            alpha=float(data.get("alpha", 1.0)), lambda_=float(data.get("lambda", 0.0)),
            tau=float(data.get("tau", 0.0)),
            fw_iters=integer("fw_iters", data.get("fw_iters", 500)),
            bins=integer("bins", data.get("bins", 20)),
        )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return ExperimentConfig.from_dict(data)
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed config file {path}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ResultRow:
    grid: float
    algorithm: str
    metric: str
    mean: Optional[float]
    sem: Optional[float]


@dataclass(frozen=True, eq=False)
class ResultTable:
    rows: tuple
    per_trial: tuple = field(default_factory=tuple, repr=False)
    # per_trial entries: (grid, algorithm, metric, trial index, value or None)


def _grid_settings(cfg: ExperimentConfig, value: float):
    """Resolve (alpha, lambda, tau, n) for one grid point."""
    knobs = dict(zip(SWEEP_KINDS, (cfg.alpha, cfg.lambda_, cfg.tau, cfg.n)))
    knobs[cfg.sweep_kind] = int(value) if cfg.sweep_kind == "n_grid" else value
    return tuple(knobs.values())


def build_instance(spec: GeneratorSpec, tau: float, bins: int) -> Instance:
    """The instance drawn from substreams of ``spec.seed``.

    Disparate-error instances come from substream 0. Disparate-utility
    instances are drawn from substream 1, have their observed labels
    flipped with probability ``tau`` from substream 2, and get probability
    rows from ``bins`` utility bins of a training draw from substream 0.
    """
    if not 0.0 <= tau <= 0.5:
        raise ValueError("tau must be in [0, 0.5]")

    def substream(key):
        return replace(spec, seed=seed_sequence(spec.seed, key))

    if spec.kind == KIND_DISPARATE_ERROR:
        return gen_disparate_error(substream(0))
    train = gen_disparate_utility(substream(0))
    inst = gen_disparate_utility(substream(1))
    if tau > 0:
        inst = inject_flip_noise(inst, tau, seed_sequence(spec.seed, 2))
    else:
        inst = replace(inst, noisy_attrs=inst.true_attrs.copy())
    q = estimate_q_by_utility_bins(inst, bins, train=train)
    return replace(inst, noise=(q,))


def run_trial(cfg: ExperimentConfig, grid_idx: int, trial: int) -> dict:
    """All algorithms on one freshly drawn instance; returns
    {algorithm: {metric: value or None}} with None marking an infeasible run.
    A draw with an empty true group has no metrics, so every algorithm's
    run on it counts as infeasible."""
    alpha, lam, tau, n = _grid_settings(cfg, cfg.grid[grid_idx])
    ss = seed_sequence(cfg.seed, grid_idx, trial)
    inst = build_instance(replace(cfg.generator, m=cfg.m, n=n, seed=ss), tau, cfg.bins)
    if np.any(np.bincount(inst.true_attrs[:, 0], minlength=inst.p[0]) == 0):
        return {alg: dict.fromkeys(METRIC_NAMES) for alg in cfg.algorithms}
    t = target_vector(inst, proportional=cfg.target == TARGET_PROPORTIONAL)
    cs = constraints_from_alpha(n, t, alpha, delta=cfg.delta)
    problem = selectors.Problem(inst, cs, t, imputed_seed=seed_sequence(ss, 3),
                                lambda_=lam, fw_iters=cfg.fw_iters)
    blind_utility = problem.blind_selection.total_utility

    out = {}
    for a_idx, alg in enumerate(cfg.algorithms):
        try:
            sel = selectors.run_algorithm(alg, problem, seed_sequence(ss, 4, a_idx),
                                          rounding=selectors.DEPENDENT)
        except InfeasibleError:
            out[alg] = dict.fromkeys(METRIC_NAMES)
            continue
        report = metrics_mod.compute_report(inst, sel, t, blind_utility)
        viol = violation_report(sel, inst, cs, attrs="true")
        out[alg] = {
            "risk_difference": report.risk_difference,
            "selection_lift": report.selection_lift,
            "utility_ratio": report.utility_ratio,
            "max_violation": viol.max_violation,
        }
    return out


def run_experiment(cfg: ExperimentConfig, workers: Optional[int] = None) -> ResultTable:
    """Full sweep. Output ordering is fixed by (grid index, algorithm,
    metric) regardless of scheduling; infeasible trials are excluded from
    means and counted in an extra ``excluded_trials`` row."""
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    tasks = [(gi, tr) for gi in range(len(cfg.grid)) for tr in range(cfg.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, repeat(cfg), *zip(*tasks),
                                    chunksize=max(1, len(tasks) // (4 * workers))))
    else:
        results = [run_trial(cfg, gi, tr) for gi, tr in tasks]

    rows, per_trial = [], []
    for gi, grid_value in enumerate(cfg.grid):
        point = results[gi * cfg.trials:(gi + 1) * cfg.trials]  # the tasks are grid-major
        for alg in cfg.algorithms:
            runs = [res[alg] for res in point]
            per_trial += [(grid_value, alg, name, tr, vals[name])
                          for tr, vals in enumerate(runs) for name in METRIC_NAMES]
            # a trial's metrics are all set, or all None when it was infeasible
            feasible = [vals for vals in runs if vals["risk_difference"] is not None]
            for name in METRIC_NAMES:
                mean, sem = _mean_sem([vals[name] for vals in feasible])
                rows.append(ResultRow(grid_value, alg, name, mean, sem))
            rows.append(ResultRow(grid_value, alg, "excluded_trials",
                                  float(len(runs) - len(feasible)), 0.0))
    return ResultTable(rows=tuple(rows), per_trial=tuple(per_trial))


def _mean_sem(values: list):
    """The mean and its standard error, or (None, None) for no values."""
    if not values:
        return None, None
    sem = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(np.mean(values)), sem


def _fmt(value: Optional[float]) -> str:
    return "NA" if value is None else f"{value:.6g}"


def render_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grid", "algorithm", "metric", "mean", "sem"])
    for row in table.rows:
        writer.writerow([_fmt(row.grid), row.algorithm, row.metric,
                         _fmt(row.mean), _fmt(row.sem)])
    return buf.getvalue()


def write_results(table: ResultTable, path, format: str = "csv") -> None:
    """Bit-stable dump: floats at six significant digits, NA for missing."""
    if format == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(render_csv(table))
    elif format == "json":
        payload = {"rows": [
            {"grid": row.grid, "algorithm": row.algorithm, "metric": row.metric,
             "mean": row.mean, "sem": row.sem} for row in table.rows]}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
    else:
        raise ValueError(f"unknown format {format!r}")


def write_per_trial(table: ResultTable, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["grid", "algorithm", "metric", "trial", "value"])
        for grid, alg, metric, trial, value in table.per_trial:
            writer.writerow([_fmt(grid), alg, metric, trial,
                             "NA" if value is None else f"{value:.12g}"])
