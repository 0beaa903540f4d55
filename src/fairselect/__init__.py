"""Fair subset selection under noisy protected attributes."""

from .core import (ConstraintSet, InfeasibleError, Instance, Selection,
                   UnsupportedError, ViolationReport,
                   constraints_from_alpha, load_instance, make_constraints,
                   save_instance, validate_instance, violation_report)
from .lp import BfsSolution, LinearProgram, SolveStatus, build_denoised_lp, solve_bfs
from .metrics import (MetricsReport, compute_report, ndcg, risk_difference,
                      selection_lift, selection_rates, utility_ratio)
from .selectors import (blind, ceil_round, dependent_round, denoised_bfs,
                        estimate_group_level_q, fair_expec, fair_expec_grp,
                        impute_bayes, mult_obj, thrsh)

__all__ = [
    "BfsSolution", "ConstraintSet", "InfeasibleError",
    "Instance", "LinearProgram", "MetricsReport", "Selection",
    "SolveStatus", "UnsupportedError", "ViolationReport",
    "blind", "build_denoised_lp", "ceil_round", "compute_report",
    "constraints_from_alpha", "denoised_bfs",
    "dependent_round", "estimate_group_level_q", "fair_expec", "fair_expec_grp",
    "impute_bayes", "load_instance", "make_constraints", "mult_obj", "ndcg",
    "risk_difference", "save_instance", "selection_lift", "selection_rates",
    "solve_bfs", "thrsh", "utility_ratio", "validate_instance",
    "violation_report",
]

__version__ = "0.1.0"
