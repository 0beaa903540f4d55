"""Seeded trial sweeps over alpha / lambda / tau / n grids.

One experiment = a generator, one sweep axis, a set of algorithms, and a
trial count. Each trial draws once, from streams under (seed, trial index),
and runs every grid point on that draw (see TrialDraw and run_trial): the
grid points of a trial differ only in the setting swept, and the labels a
smaller tau flips stay flipped at a larger one. A grid point keeps each
part it makes in the draw, named with the settings that reach it, so the
part is made once per trial unless the swept setting reaches it, and then
once per grid value. A trial is the unit of work, and its results do not
depend on where or when it runs, so the output is byte-identical whatever
the worker count, which changes only wall-clock time.

Fractional outputs (the LP vertex and the multi-objective optimum) are
rounded to exactly-n subsets with marginal-preserving dependent rounding
before metrics are computed, from one stream per trial and algorithm: grid
points that share a step output share its rounded selection and its scores.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import repeat
from typing import Optional

import numpy as np

from . import metrics as metrics_mod
from . import selectors
from .core import (RANGES, InfeasibleError, Instance, check_keys,
                   constraints_from_alpha, in_range, integer, json_list, json_object,
                   load_json_file, target_vector, violation_report)
from .datagen import (KIND_DISPARATE_ERROR, KIND_DISPARATE_UTILITY, GeneratorSpec,
                      estimate_q_by_utility_bins, gen_disparate_error,
                      gen_disparate_utility, inject_flip_noise)

SWEEP_KINDS = ("alpha_grid", "lambda_grid", "tau_grid", "n_grid")
SETTINGS = tuple(kind.removesuffix("_grid") for kind in SWEEP_KINDS)  # what a grid point sets
TARGET_EQUAL = "EqualRepresentation"
TARGET_PROPORTIONAL = "Proportional"
METRIC_NAMES = ("risk_difference", "selection_lift", "utility_ratio", "max_violation")
REQUIRED_CONFIG_KEYS = frozenset({"generator", "sweep", "algorithms", "trials", "n", "m",
                                  "target", "delta", "seed"})
CONFIG_KEYS = REQUIRED_CONFIG_KEYS.union(RANGES)  # the settings past delta and n are optional
FIELDS = {"lambda": "lambda_"}  # the config keys whose field has another name
# the draw settings each generator kind reads, with their defaults; the other defaults
DRAW_SETTINGS = {KIND_DISPARATE_ERROR: {}, KIND_DISPARATE_UTILITY: {"tau": 0.0, "bins": 20}}
DEFAULTS = {"alpha": 1.0, "lambda": 0.0}
# a generator section names only what to draw: every trial draws at the
# config's own m and n, from the config's seed (see TrialDraw)
GENERATOR_KEYS = frozenset({"kind", "params"})


def check_setting(name: str, value, kind: Optional[str] = None, m: Optional[int] = None):
    """Config key or flag ``name`` (``tau``, ``tau_grid``, ``--tau``) for a ``kind`` generator
    of m items, or of no kind (``select``), as ``in_range`` returns it; None gives the default if
    the kind reads the setting. Raises ValueError naming ``name`` if the kind reads no such
    setting or ``in_range`` rejects the value."""
    key, reads = name.lstrip("-").removesuffix("_grid"), DRAW_SETTINGS.get(kind, {})
    if key not in reads and any(key in other for other in DRAW_SETTINGS.values()):
        if value is not None:
            raise ValueError(f"the {kind} generator reads no {name}")
        return None
    defaults = {} if value is not None else {**DEFAULTS, **reads}  # delta and n have none
    try:
        return in_range(key, defaults.get(key, value), m, name)
    except ValueError as exc:  # only bins' default can miss a small m
        raise ValueError(f"{exc}{' (its default)' * (key in defaults)}") from None


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
    # None stands for the default (see check_setting); the swept setting stays None
    alpha: Optional[float] = None
    lambda_: Optional[float] = None
    tau: Optional[float] = None
    bins: Optional[int] = None

    def __post_init__(self):
        for name in ("m", "trials", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        given = {key for key in RANGES if getattr(self, FIELDS.get(key, key)) is not None}
        gen, kind = self.generator, self.generator.kind
        for key in RANGES:
            name = FIELDS.get(key, key)
            value = getattr(self, name)
            if value is not None or key == "n" or self.sweep_kind != f"{key}_grid":  # n is required
                object.__setattr__(self, name, check_setting(key, value, kind, self.m))
        if self.sweep_kind not in SWEEP_KINDS:
            raise ValueError(f"sweep must be one of {SWEEP_KINDS}")
        if not self.grid:
            raise ValueError("the sweep grid must be nonempty")
        object.__setattr__(self, "grid", check_setting(self.sweep_kind, self.grid, kind, self.m))
        if (axis := self.sweep_kind.removesuffix("_grid")) in given - {"n"}:  # n is required
            raise ValueError(f"the config fixes {axis} and sweeps {self.sweep_kind}: drop one")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, not {self.seed}")
        if not self.algorithms:
            raise ValueError("list at least one algorithm")
        bad = [a for a in self.algorithms if not isinstance(a, str) or a not in selectors.ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms: {bad}")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithms repeats {repeated}")
        if self.target not in (TARGET_EQUAL, TARGET_PROPORTIONAL):
            raise ValueError(f"target must be {TARGET_EQUAL} or {TARGET_PROPORTIONAL}")
        # every trial draws at the config's own m, n and seed (see TrialDraw)
        if (gen.m, gen.n) != (self.m, self.n):
            raise ValueError(f"the generator's m={gen.m}, n={gen.n} differ from the "
                             f"config's m={self.m}, n={self.n}")
        if gen.seed != 0:
            raise ValueError(f"the generator seed must be 0, not {gen.seed}: trials draw "
                             f"from the config seed ({self.seed})")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        check_keys("config", data, CONFIG_KEYS, REQUIRED_CONFIG_KEYS)
        sweep = data["sweep"]
        check_keys("sweep", sweep, frozenset(SWEEP_KINDS), frozenset())
        if len(sweep) != 1:
            raise ValueError("the sweep section must contain exactly one grid")
        (kind, grid), = sweep.items()
        null = sorted(key for key in data.keys() - REQUIRED_CONFIG_KEYS if data[key] is None)
        if null:  # a field left None takes its default
            raise ValueError(f"{null[0]} must be a number, not null")
        gen = data["generator"]
        check_keys("generator", gen, GENERATOR_KEYS, frozenset({"kind"}))
        m, n = integer("m", data["m"]), integer("n", data["n"])
        return cls(
            generator=GeneratorSpec(kind=gen["kind"], m=m, n=n,
                                    params=dict(json_object("params", gen.get("params", {})))),
            sweep_kind=kind, grid=json_list(kind, grid),
            algorithms=tuple(json_list("algorithms", data["algorithms"])), n=n, m=m,
            trials=data["trials"], target=data["target"], delta=data["delta"], seed=data["seed"],
            **{FIELDS.get(key, key): data[key] for key in data.keys() - REQUIRED_CONFIG_KEYS},
        )


def load_config(path) -> ExperimentConfig:
    return load_json_file(path, "config", ExperimentConfig.from_dict)


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


def build_instance(spec: GeneratorSpec, tau: Optional[float], bins: Optional[int],
                   *key: int) -> Instance:
    """The instance drawn from the streams (``spec.seed``, *key, i).

    Disparate-error instances come from stream i = 0. Disparate-utility
    instances are drawn from stream 1, have their observed labels flipped
    with probability ``tau`` from stream 2, and get probability rows from
    ``bins`` utility bins of a training draw from stream 0.
    """
    return _observe(spec, _draw(spec, bins, *key), tau, *key)


def _draw(spec: GeneratorSpec, bins: Optional[int], *key: int) -> Instance:
    """What build_instance draws that tau does not change: the disparate-error
    instance, or the disparate-utility instance with no observed labels and its
    probability rows, which read its utilities and no label."""
    if spec.kind == KIND_DISPARATE_ERROR:
        return gen_disparate_error(spec, *key, 0)
    train = gen_disparate_utility(spec, *key, 0)
    inst = gen_disparate_utility(spec, *key, 1)
    return replace(inst, noise=(estimate_q_by_utility_bins(inst, bins, train=train),))


def _observe(spec: GeneratorSpec, inst: Instance, tau: Optional[float], *key: int) -> Instance:
    """``_draw``'s instance with, for a disparate-utility spec, its labels flipped
    at ``tau`` from the stream (spec.seed, *key, 2)."""
    if spec.kind == KIND_DISPARATE_UTILITY:
        return inject_flip_noise(inst, tau, spec.seed, *key, 2)
    return inst


class TrialDraw:
    """What one trial draws, made once and read by each of its grid points.

    The draw comes from the streams (cfg.seed, trial, 0|1|2), at the config's
    n: α, λ and n change no number drawn, and τ only which labels are
    flipped. A grid point keeps each part it makes here with ``kept``, under
    the part's name and the settings that reach it (its ``reads``). A config
    sweeps one setting and fixes the others, so a part is kept once per trial
    unless the swept setting reaches it, and then once per grid value. A grid
    point run alone makes only what it reads.
    """

    def __init__(self, cfg: ExperimentConfig, trial: int):
        self.cfg, self.trial = cfg, trial
        self._kept = {}

    def kept(self, grid_idx: int, name: str, reads, make):
        """Part ``name`` at grid point ``grid_idx``: ``make()`` on first use,
        kept under (name, the grid value) if the swept setting is in ``reads``,
        else under (name, None), for every grid point that shares it. A make
        that raises InfeasibleError is kept as None; another error is not kept."""
        swept = self.cfg.sweep_kind.removesuffix("_grid") in reads
        key = (name, self.cfg.grid[grid_idx] if swept else None)
        if key not in self._kept:
            try:
                self._kept[key] = make()
            except InfeasibleError:
                self._kept[key] = None
        return self._kept[key]

    @cached_property
    def _spec(self) -> GeneratorSpec:
        return replace(self.cfg.generator, seed=self.cfg.seed)  # at the config's m and n

    @cached_property
    def _drawn(self) -> Instance:
        return _draw(self._spec, self.cfg.bins, self.trial)

    @cached_property
    def empty_group(self) -> bool:
        """Whether a true group has no member, which leaves no metric defined."""
        inst = self._drawn
        return bool(np.any(np.bincount(inst.true_attrs[:, 0], minlength=inst.p[0]) == 0))


@dataclass(eq=False)
class _GridPoint(selectors.Problem):
    """One grid point's Problem, which keeps its imputed groups (ties broken
    from the stream (cfg.seed, trial, 3)) and its group-level instance in
    the trial's draw. The group-level instance is the one reader of observed
    labels (``selectors.estimate_group_level_q``): they are flipped at τ from
    the stream (cfg.seed, trial, 2), only for it, and that stream's uniforms
    are the same at every τ, so the flipped items at a smaller τ are among
    those at a larger one."""

    draw: Optional[TrialDraw] = None
    grid_idx: int = 0
    tau: Optional[float] = None

    @property
    def imputed(self) -> np.ndarray:
        return self.draw.kept(self.grid_idx, "imputed", (), lambda: selectors.impute_bayes(
            self.inst.noise_matrix(0), self.seed, self.draw.trial, 3))

    @property
    def group_level(self) -> Instance:
        draw = self.draw
        return draw.kept(self.grid_idx, "group level", {"tau", "n"}, lambda: (
            selectors.group_level_instance(_observe(draw._spec, self.inst, self.tau, draw.trial))))


def run_trial(cfg: ExperimentConfig, grid_idx: int, trial: int,
              draw: Optional[TrialDraw] = None) -> dict:
    """All algorithms at grid point ``grid_idx`` on trial ``trial``'s draw;
    returns {algorithm: {metric: value or None}} with None marking an
    infeasible run. A draw with an empty true group has no metrics, so every
    algorithm's run on it counts as infeasible.

    ``draw`` is the trial's TrialDraw, which run_experiment shares among the
    trial's grid points; without one the trial draws for itself, and makes
    only what this grid point reads. Either way the row is the same: each
    part is kept in the draw (``TrialDraw.kept``) under the settings named
    where it is made here: the instance reads n, the target nothing, the
    bounds n and α, each step ``selectors.ALGORITHMS[name].reads``, and each
    algorithm's metric row its step's reads, n and α, which reach its
    rounding, its bounds and the blind utility. Its streams, each built where
    it is drawn from, are (cfg.seed, trial, k): k = 0|1|2 to draw and 3 to
    break an imputation tie (see TrialDraw and _GridPoint), and
    (cfg.seed, trial, 4, a_idx) for algorithm a_idx to round, at every grid
    point."""
    if draw is None:
        draw = TrialDraw(cfg, trial)
    elif draw.cfg is not cfg or draw.trial != trial:
        raise ValueError(f"the draw belongs to another config or trial, not trial {trial} "
                         "of this config")
    settings = {key: getattr(cfg, FIELDS.get(key, key)) for key in SETTINGS}
    settings[cfg.sweep_kind.removesuffix("_grid")] = cfg.grid[grid_idx]
    n, alpha = int(settings["n"]), settings["alpha"]  # grids hold floats
    if draw.empty_group:
        return {alg: dict.fromkeys(METRIC_NAMES) for alg in cfg.algorithms}
    kept, drawn = partial(draw.kept, grid_idx), draw._drawn
    inst = kept("instance", {"n"}, lambda: drawn if drawn.n == n else replace(drawn, n=n))
    t = kept("target", (), lambda: target_vector(drawn, cfg.target == TARGET_PROPORTIONAL))
    cs = kept("bounds", {"n", "alpha"},
              lambda: constraints_from_alpha(n, t, alpha, delta=cfg.delta))
    problem = _GridPoint(inst, cs, t, seed=cfg.seed, lambda_=settings["lambda"], draw=draw,
                         grid_idx=grid_idx, tau=settings["tau"])

    def solved(alg: str):
        algo = selectors.ALGORITHMS[alg]
        return kept(alg, algo.reads, lambda: algo.solve(problem))

    blind_utility = solved("Blind").total_utility

    def scores(a_idx: int, alg: str) -> dict:
        out = solved(alg)
        if out is None:
            return dict.fromkeys(METRIC_NAMES)
        sel = selectors.round_output(alg, out, problem, (trial, 4, a_idx), selectors.DEPENDENT)
        report = metrics_mod.compute_report(inst, sel, t, blind_utility)
        viol = violation_report(sel.chosen, inst, cs, attrs="true")
        return dict(zip(METRIC_NAMES, (report.risk_difference, report.selection_lift,
                                       report.utility_ratio, viol.max_violation)))

    # a kept row is copied, so no two grid points' results share a dict
    return {alg: dict(kept(f"{alg} row", selectors.ALGORITHMS[alg].reads | {"n", "alpha"},
                           partial(scores, a_idx, alg)))
            for a_idx, alg in enumerate(cfg.algorithms)}


def _run_grid(cfg: ExperimentConfig, trial: int) -> list:
    """run_trial's row at every grid point, in grid order, on one draw of ``trial``."""
    draw = TrialDraw(cfg, trial)
    return [run_trial(cfg, gi, trial, draw) for gi in range(len(cfg.grid))]


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ResultTable:
    """Full sweep, a trial at a time: each trial draws once and runs every
    grid point on that draw. Output ordering is fixed by (grid index,
    algorithm, metric) regardless of scheduling; infeasible trials are
    excluded from means and counted in an extra ``excluded_trials`` row.
    ``workers`` must be a positive integer (2.0 reads as 2)."""
    workers = integer("workers", workers)
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, not {workers!r}")
    workers = min(workers, cfg.trials)  # a pool forks all its workers up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_grid, repeat(cfg), range(cfg.trials),
                                    chunksize=max(1, cfg.trials // (4 * workers))))
    else:
        results = [_run_grid(cfg, tr) for tr in range(cfg.trials)]
    return _table(cfg, results)


def _table(cfg: ExperimentConfig, results: list) -> ResultTable:
    """The table of ``results``, where ``results[tr][gi]`` is run_trial's row for
    grid point gi of trial tr. The cells (grid point and algorithm) with equally
    many feasible trials share one reduction, in which each of a cell's metrics
    is one row."""
    cells = [(grid_value, alg, [grid[gi][alg] for grid in results])
             for gi, grid_value in enumerate(cfg.grid) for alg in cfg.algorithms]
    # a trial's metrics are all set, or all None when it was infeasible
    feasible = [[vals for vals in runs if vals["risk_difference"] is not None]
                for _, _, runs in cells]
    by_count = {}
    for c, kept in enumerate(feasible):
        by_count.setdefault(len(kept), []).append(c)
    stats = [None] * len(cells)
    for members in by_count.values():
        reduced = iter(_mean_sem([[vals[name] for vals in feasible[c]]
                                  for c in members for name in METRIC_NAMES]))
        for c in members:
            stats[c] = [next(reduced) for _ in METRIC_NAMES]
    rows, per_trial = [], []
    for (grid_value, alg, runs), kept, cell in zip(cells, feasible, stats):
        per_trial += [(grid_value, alg, name, tr, vals[name])
                      for tr, vals in enumerate(runs) for name in METRIC_NAMES]
        rows += [ResultRow(grid_value, alg, name, mean, sem)
                 for name, (mean, sem) in zip(METRIC_NAMES, cell)]
        rows.append(ResultRow(grid_value, alg, "excluded_trials",
                              float(len(runs) - len(kept)), 0.0))
    return ResultTable(rows=tuple(rows), per_trial=tuple(per_trial))


def _mean_sem(rows: list) -> list:
    """(mean, standard error of the mean) of each row of equally many values:
    (None, None) for rows of no values, and a standard error of 0.0 for rows
    of one. One reduction along the rows gives each row the bits that
    np.mean and np.std give it alone, since both sum a contiguous row pairwise."""
    values = np.array(rows, dtype=float)
    count = values.shape[1]
    if count == 0:
        return [(None, None)] * len(rows)
    means = values.mean(axis=1).tolist()
    if count == 1:
        return [(mean, 0.0) for mean in means]
    return list(zip(means, (values.std(axis=1, ddof=1) / np.sqrt(count)).tolist()))


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
    """Bit-stable dump: CSV floats at six significant digits and NA; JSON full floats and null."""
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
