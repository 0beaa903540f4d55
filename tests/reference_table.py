"""The results table as ``run_experiment`` built it before its cells shared
one reduction: one ``_mean_sem`` call per cell, a grid point and an
algorithm, over its feasible trials. ``tests/test_experiment.py`` checks
that the library's table has the same bits. This is a test fixture, not a
production path.
"""

from __future__ import annotations

from fairselect.experiment import METRIC_NAMES, ResultRow, ResultTable, _mean_sem


def reference_table(cfg, results: list) -> ResultTable:
    """The table of ``results``, where ``results[tr][gi]`` is run_trial's row
    for grid point gi of trial tr."""
    rows, per_trial = [], []
    for gi, grid_value in enumerate(cfg.grid):
        point = [grid[gi] for grid in results]  # one row per trial
        for alg in cfg.algorithms:
            runs = [res[alg] for res in point]
            per_trial += [(grid_value, alg, name, tr, vals[name])
                          for tr, vals in enumerate(runs) for name in METRIC_NAMES]
            # a trial's metrics are all set, or all None when it was infeasible
            feasible = [vals for vals in runs if vals["risk_difference"] is not None]
            cell = _mean_sem([[vals[name] for vals in feasible] for name in METRIC_NAMES])
            rows += [ResultRow(grid_value, alg, name, mean, sem)
                     for name, (mean, sem) in zip(METRIC_NAMES, cell)]
            rows.append(ResultRow(grid_value, alg, "excluded_trials",
                                  float(len(runs) - len(feasible)), 0.0))
    return ResultTable(rows=tuple(rows), per_trial=tuple(per_trial))
