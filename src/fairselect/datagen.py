"""Synthetic instance generators and noise-information estimators.

Two families:

* disparate error rates: utilities are iid uniform, the probability rows
  come from a two-component truncated-normal mixture whose imputed labels
  have a much higher false discovery rate for the minority group.
* disparate utilities: the minority group is (unfairly) shifted to lower
  utilities; probability rows are not generated but estimated afterwards
  by binning utilities (estimate_q_by_utility_bins), optionally after
  flipping the observed labels with probability tau.

Generators are pure functions of their GeneratorSpec and key path (see
seeding.make_rng); regenerating reproduces the instance bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import Instance, UnsupportedError, in_range, real_array, stable_order, within
from .seeding import make_rng

KIND_DISPARATE_ERROR = "disparate_error"
KIND_DISPARATE_UTILITY = "disparate_utility"

# Mixture for the disparate-error probability rows: component 1 produces
# confidently-minority-looking rows with a wide error band, component 2
# confidently-majority rows. Expected minority mass is about 0.40 and the
# imputed labels have FDR ~0.40 (minority) vs ~0.08 (majority).
DISPARATE_ERROR_DEFAULTS = {
    "mixture_weights": (7.0 / 11.0, 4.0 / 11.0),
    "component_means": (0.6, 0.05),
    "component_stds": (0.05, 0.05),
}

# Surrogate population for the disparate-utility setting. Rates are the
# group frequencies; utility_means[z][a] is the mean utility of the cell
# with group z and experience flag a.
# The magnitudes of the utility gaps are free parameters of the surrogate;
# an experiment config's generator params can override each of them.
DISPARATE_UTILITY_DEFAULTS = {
    "minority_rate": 0.37,
    "no_experience_rate": 0.37,
    "joint_rate": 0.137,
    "utility_means": ((0.6, 1.6), (1.6, 2.6)),
    "feature_weight": 0.4,
    "utility_std": 0.4,
}

_DEFAULTS = {KIND_DISPARATE_ERROR: DISPARATE_ERROR_DEFAULTS,
             KIND_DISPARATE_UTILITY: DISPARATE_UTILITY_DEFAULTS}

# Each param's range; the others need only be finite. A mean and std in
# [0, 1] keep truncated_normal's acceptance per round at least
# Phi(1) - Phi(0) ~ 0.34, so it always returns.
_RATES = ("minority_rate", "no_experience_rate", "joint_rate")
_RANGES = {key: (0.0, 1.0)
           for key in ("mixture_weights", "component_means", "component_stds", *_RATES)}
_RANGES["utility_std"] = (0.0, np.inf)


def _cell_rates(par: dict) -> list:
    """The share of each cell 2z + a: group z (0 = minority) and experience
    flag a (1 = has prior experience)."""
    p00 = par["joint_rate"]
    p01 = par["minority_rate"] - p00
    p10 = par["no_experience_rate"] - p00
    return [p00, p01, p10, 1.0 - p00 - p01 - p10]


def _draw_cells(rng: np.random.Generator, rates: list, m: int) -> np.ndarray:
    """m cells drawn with probabilities ``rates``, as rng.choice(len(rates),
    size=m, p=rates) draws them once its checks of p pass; GeneratorSpec has
    checked the rates. A uniform draw's cell is
    ``cdf.searchsorted(u, side="right")``, the count of cdf entries <= u:
    one comparison per cell, with no branch to mispredict."""
    cdf = np.cumsum(rates)
    cdf /= cdf[-1]
    u = rng.random(m)
    cell = np.zeros(m, dtype=np.intp)
    for edge in cdf.tolist():
        cell += edge <= u
    return cell


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Which generator to run and with what parameters."""

    kind: str
    m: int
    n: int
    seed: object = 0  # int or SeedSequence: the root a draw's (seed, *key) stream grows from
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _DEFAULTS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        in_range("n", self.n, self.m)
        unknown = sorted(set(self.params) - set(_DEFAULTS[self.kind]))
        if unknown:
            raise ValueError(f"unknown {self.kind} generator params: {unknown}")
        # only the params given are checked: the defaults pass every check
        for key, value in self.params.items():
            a = real_array(key, value, np.shape(_DEFAULTS[self.kind][key]))
            within(key, value, a.ravel().tolist(), *_RANGES.get(key, (-np.inf, np.inf)))
        weights = self.params.get("mixture_weights")
        if weights is not None and not abs(sum(weights) - 1.0) <= 1e-9:
            raise ValueError(f"mixture_weights must sum to 1, not {weights}")
        rates_given = not self.params.keys().isdisjoint(_RATES)
        if rates_given and not min(_cell_rates(self.merged_params())) >= 0:
            raise ValueError("inconsistent group rates: need joint_rate <= minority_rate, joint_rate"
                             " <= no_experience_rate and minority_rate + no_experience_rate"
                             " - joint_rate <= 1")

    def merged_params(self) -> dict:
        base = dict(_DEFAULTS[self.kind])
        base.update(self.params)
        return base


def truncated_normal(rng: np.random.Generator, mean, std, size: int) -> np.ndarray:
    """Normal restricted to [0, 1] by rejection (renormalized, not clipped).

    std may be 0 (or an array containing 0), in which case the component
    degenerates to a point mass at its mean.
    """
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (size,))
    std = np.broadcast_to(np.asarray(std, dtype=float), (size,))
    out = np.clip(mean, 0.0, 1.0)
    pending = np.flatnonzero(std > 0)  # ascending, so each round draws in item order
    while pending.size:
        # rng.normal(loc, scale) is loc + scale * z, one standard normal z per entry
        draw = mean[pending] + std[pending] * rng.standard_normal(pending.size)
        out[pending] = draw
        pending = pending[(draw < 0.0) | (draw > 1.0)]
    return out


def gen_disparate_error(spec: GeneratorSpec, *key: int) -> Instance:
    """Uniform utilities; probability rows from the truncated mixture; true
    attributes sampled from the rows themselves; all from (spec.seed, *key)."""
    if spec.kind != KIND_DISPARATE_ERROR:
        raise ValueError(f"spec kind is {spec.kind!r}")
    par = spec.merged_params()
    rng = make_rng(spec.seed, *key)
    m = spec.m
    weights = np.asarray(par["mixture_weights"], dtype=float)
    component = (rng.random(m) >= weights[0]).astype(int)
    means = np.asarray(par["component_means"], dtype=float)[component]
    stds = np.asarray(par["component_stds"], dtype=float)[component]
    q0 = truncated_normal(rng, means, stds, m)
    utilities = rng.random(m)
    z = (rng.random(m) >= q0).astype(int)  # group 0 with probability q0
    noise = np.column_stack([q0, 1.0 - q0])
    return Instance(n=spec.n, p=(2,), utilities=utilities, noise=(noise,),
                    true_attrs=z[:, None])


def gen_disparate_utility(spec: GeneratorSpec, *key: int) -> Instance:
    """Binary group and experience flag, real qualification score, and
    Gaussian utilities whose means drop for the disadvantaged cells.

    Draws from (spec.seed, *key). No probability rows are attached; estimate
    them afterwards with estimate_q_by_utility_bins. Utilities are clamped at
    0 to keep the nonnegativity contract."""
    if spec.kind != KIND_DISPARATE_UTILITY:
        raise ValueError(f"spec kind is {spec.kind!r}")
    par = spec.merged_params()
    rng = make_rng(spec.seed, *key)
    m = spec.m
    cell = _draw_cells(rng, _cell_rates(par), m)
    z = (cell >= 2).astype(int)          # 0 = minority group
    a2 = rng.normal(0.0, 1.0, m)
    means = np.asarray(par["utility_means"], dtype=float).reshape(4)[cell]
    w = means + par["feature_weight"] * a2 + rng.normal(0.0, par["utility_std"], m)
    w = np.maximum(w, 0.0)
    return Instance(n=spec.n, p=(2,), utilities=w, noise=None, true_attrs=z[:, None])


def inject_flip_noise(inst: Instance, tau: float, seed, *key: int) -> Instance:
    """Observed labels: flip each true binary label independently with
    probability tau, drawn from (seed, *key). True attributes stay as they are."""
    if inst.s != 1 or inst.p[0] != 2:
        raise UnsupportedError("flip noise is defined for one binary attribute")
    if inst.true_attrs is None:
        raise ValueError("flip noise requires true attributes")
    in_range("tau", tau)
    rng = make_rng(seed, *key)
    flips = rng.random(inst.m) < tau
    zhat = np.where(flips, 1 - inst.true_attrs[:, 0], inst.true_attrs[:, 0])
    return replace(inst, noisy_attrs=zhat[:, None])


def estimate_q_by_utility_bins(inst: Instance, b: int, train: Instance) -> np.ndarray:
    """Probability rows from class frequencies in equal-count utility bins.

    Bin boundaries and per-bin frequencies come from the training instance,
    cut by its stable utility order: the first b-1 bins hold m // b items
    each and the last absorbs the remainder. Items of ``inst`` are then
    assigned to bins by utility value, so items in the same bin share a row.
    """
    if train.true_attrs is None:
        raise ValueError("the training instance must carry true attributes")
    b = in_range("bins", b, train.m)
    p = train.p[0]
    order = stable_order(train.utilities)
    base = train.m // b
    bins = np.minimum(np.arange(train.m) // base, b - 1)
    counts = np.bincount(bins * p + train.true_attrs[order, 0], minlength=b * p).reshape(b, p)
    freq = counts / counts.sum(axis=1, keepdims=True)
    edges = train.utilities[order[base * np.arange(1, b)]]
    # searched in ascending order, neighbouring lookups take the same branches
    w = inst.utilities
    ascending = np.argsort(w)
    which = np.empty(w.size, dtype=np.intp)
    which[ascending] = np.searchsorted(edges, w[ascending], side="right")
    return freq[which]
