"""Fairness and utility metrics, computed on true group memberships.

Fairness metrics are pure functions of one count vector, the selected items
in each true group (``compute_report`` counts them once), and a target t over
groups. Risk difference and selection lift lie in [0, 1]; 1 is most fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Instance, Selection, UnsupportedError


class _Target(tuple):
    """A target already checked: its entries as floats, none of them <= 0."""


def _target(t) -> _Target:
    """``t`` as a checked target; every entry must be positive. A NaN entry
    passes the check, as in numpy, and makes the risk difference NaN."""
    if isinstance(t, _Target):
        return t
    t = _Target(np.asarray(t, dtype=float).tolist())
    if any(v <= 0 for v in t):
        raise ValueError("every target entry must be strictly positive")
    return t


def _floats(values) -> list:
    return [float(v) for v in values]


def _normalized(counts, t, n: int):
    """The checked target, the counts as floats, and each group's
    normalized count counts[l] / (n t_l)."""
    t, counts = _target(t), _floats(counts)
    return t, counts, [c / (n * t_l) for c, t_l in zip(counts, t, strict=True)]


def risk_difference(counts, t, n: int) -> float:
    """1 - min_l t_l * max over group pairs of the normalized count gap.

    ``counts[l]`` is |S ∩ G_l|; its normalized count is counts[l] / (n t_l).
    Equal normalized counts give 1 (most fair), maximal disparity gives 0.
    """
    t, counts, ratios = _normalized(counts, t, n)
    if sum(counts) != n:
        raise ValueError("risk difference is defined for selections of size exactly n")
    if any(math.isnan(v) for v in t):  # numpy's min carries a NaN through; Python's may not
        return math.nan
    return float(1.0 - min(t) * (max(ratios) - min(ratios)))


def selection_lift(counts, t, n: int) -> float:
    """Smallest pairwise ratio of normalized group counts.

    A group selected zero times while another is selected gives 0 (the
    conservative limit); pairs where both sides are zero are skipped.
    """
    _, _, ratios = _normalized(counts, t, n)
    nonzero = [r for r in ratios if r > 0]
    if not nonzero:
        raise ValueError("no selected items in any group")
    if len(nonzero) < len(ratios):
        return 0.0
    return float(min(nonzero) / max(nonzero))


def selection_rates(counts, sizes, n: int, m: int) -> tuple:
    """(|S ∩ G_l| / n) * (m / |G_l|) for every group l, None where G_l is
    empty: 1 means proportional representation."""
    n, m = float(n), float(m)
    return tuple(c / n * (m / max(size, 1.0)) if size > 0 else None
                 for c, size in zip(_floats(counts), _floats(sizes), strict=True))


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
    counts = np.bincount(groups[selection.chosen], minlength=inst.p[0]).tolist()
    sizes = np.bincount(groups, minlength=inst.p[0]).tolist()
    t = _target(t)  # checked once for both fairness metrics
    return MetricsReport(
        risk_difference=risk_difference(counts, t, inst.n),
        selection_lift=selection_lift(counts, t, inst.n),
        selection_rates=selection_rates(counts, sizes, inst.n, inst.m),
        utility_ratio=utility_ratio(selection.total_utility, u_blind),
        ndcg=ndcg_for_selection(inst.utilities, selection.chosen) if with_ndcg else None,
    )
