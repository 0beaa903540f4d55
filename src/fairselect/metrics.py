"""Fairness and utility metrics, computed on true group memberships.

Every metric is a pure function of a size-n selection, the true group of
each item, and a target distribution t over groups. Risk difference and
selection lift live in [0, 1] with 1 the most fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Instance, Selection, UnsupportedError


def _selected_counts(selected, groups, p: int) -> np.ndarray:
    return np.bincount(np.asarray(groups, dtype=int)[np.asarray(selected, dtype=bool)],
                       minlength=p).astype(float)


def _check_target(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("every target entry must be strictly positive")
    return t


def risk_difference(selected, groups, t, n: int) -> float:
    """1 - min_l t_l * max over group pairs of the normalized count gap.

    Normalized count of group l is |S ∩ G_l| / (n t_l); equal normalized
    counts give 1 (most fair), maximal disparity gives 0.
    """
    t = _check_target(t)
    counts = _selected_counts(selected, groups, len(t))
    if np.count_nonzero(selected) != n:
        raise ValueError("risk difference is defined for selections of size exactly n")
    ratios = counts / (n * t)
    return float(1.0 - t.min() * (ratios.max() - ratios.min()))


def selection_lift(selected, groups, t, n: int) -> float:
    """Smallest pairwise ratio of normalized group counts.

    A group selected zero times while another is selected gives 0 (the
    conservative limit); pairs where both sides are zero are skipped.
    """
    t = _check_target(t)
    counts = _selected_counts(selected, groups, len(t))
    ratios = counts / (n * t)
    nonzero = ratios[ratios > 0]
    if nonzero.size == 0:
        raise ValueError("no selected items in any group")
    if nonzero.size < ratios.size:
        return 0.0
    return float(nonzero.min() / nonzero.max())


def selection_rate(selected, groups, group: int, n: int, m: int) -> float:
    """(|S ∩ G_l| / n) * (m / |G_l|): 1 means proportional representation."""
    groups = np.asarray(groups, dtype=int)
    size = int(np.sum(groups == group))
    if size == 0:
        raise ValueError(f"group {group} has no members")
    count = float(np.count_nonzero(np.asarray(selected, dtype=bool) & (groups == group)))
    return (count / n) * (m / size)


def utility_ratio(u_alg: float, u_blind: float) -> float:
    """Algorithm utility relative to the unconstrained top-n utility."""
    if u_blind <= 0:
        raise ValueError("blind utility must be positive")
    return float(u_alg) / float(u_blind)


def dcg(gains) -> float:
    """Discounted cumulative gain with log2(rank + 1) discounts, rank from 1."""
    return float(sum(g / math.log2(r + 2) for r, g in enumerate(gains)))


def ndcg(ranked_gains, ideal_gains) -> float:
    """DCG of the ranked selection over DCG of the ideal ranking."""
    ideal = dcg(ideal_gains)
    if ideal == 0.0:
        return 1.0 if dcg(ranked_gains) == 0.0 else 0.0
    return dcg(ranked_gains) / ideal


def ndcg_for_selection(utilities: np.ndarray, selected) -> float:
    """NDCG of a selection ordered by decreasing utility, against the
    ideal ordering of the top-n utilities overall."""
    utilities = np.asarray(utilities, dtype=float)
    chosen = np.sort(utilities[np.asarray(selected, dtype=bool)])[::-1]
    ideal = np.sort(utilities)[::-1][: len(chosen)]
    return ndcg(chosen, ideal)


@dataclass(frozen=True, eq=False)
class MetricsReport:
    risk_difference: float
    selection_lift: float
    selection_rates: tuple  # one per group; None for a group with no members
    utility_ratio: float
    ndcg: Optional[float] = None


def compute_report(inst: Instance, selection: Selection, t, u_blind: float,
                   with_ndcg: bool = False) -> MetricsReport:
    """Evaluate a selection on the instance's true attributes.

    Refuses to run without true attributes: metrics computed on imputed
    groups would silently report fairness on noise.
    """
    if inst.true_attrs is None:
        raise ValueError("metrics require true attributes")
    if inst.s != 1:
        raise UnsupportedError("the metrics report covers single-attribute instances")
    groups = inst.true_attrs[:, 0]
    sizes = np.bincount(groups, minlength=inst.p[0])
    rates = tuple(
        selection_rate(selection.chosen, groups, g, inst.n, inst.m) if size else None
        for g, size in enumerate(sizes)
    )
    return MetricsReport(
        risk_difference=risk_difference(selection.chosen, groups, t, inst.n),
        selection_lift=selection_lift(selection.chosen, groups, t, inst.n),
        selection_rates=rates,
        utility_ratio=utility_ratio(selection.total_utility, u_blind),
        ndcg=ndcg_for_selection(inst.utilities, selection.chosen) if with_ndcg else None,
    )
