"""Domain types shared by every other module.

An Instance holds m items, a selection size n, and for each of s protected
attributes a per-item probability row over that attribute's values. Group
values are 0-based everywhere (in memory and in the JSON file format).
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Probability rows whose sum is within this tolerance of 1 are renormalized
# on ingestion; rows further out are left untouched for validation to report.
ROW_SUM_TOL = 1e-9


class InfeasibleError(Exception):
    """The constraint system admits no selection."""


class UnsupportedError(Exception):
    """The operation does not support this instance shape."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Instance:
    """m items with utilities, noise rows, and optional attribute columns.

    Arrays are stored column-major by attribute: ``noise[k]`` is the
    (m, p[k]) probability matrix for attribute k, ``true_attrs`` is an
    (m, s) integer matrix. ``noise`` may be None for generator output that
    has not had its probability estimate attached yet. m and s are read off
    the arrays: m = len(utilities), s = len(p).
    """

    n: int
    p: tuple
    utilities: np.ndarray
    noise: Optional[tuple]  # tuple of s arrays, each (m, p[k])
    true_attrs: Optional[np.ndarray] = None   # (m, s) ints
    noisy_attrs: Optional[np.ndarray] = None  # (m, s) ints
    features: Optional[np.ndarray] = None     # (m, d) reals

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        object.__setattr__(self, "utilities", _readonly(np.asarray(self.utilities, dtype=float)))
        if self.noise is not None:
            rows = []
            for q in self.noise:
                q = np.asarray(q, dtype=float)
                # summed before the copy: the input's layout fixes the order of the additions
                sums = q.sum(axis=1) if q.ndim == 2 and q.shape[0] == self.m else None
                q = np.array(q, order="C")
                if sums is not None:
                    off = (sums != 1.0) & (np.abs(sums - 1.0) <= ROW_SUM_TOL)
                    q[off] /= sums[off, None]
                rows.append(_readonly(q))
            object.__setattr__(self, "noise", tuple(rows))
        for name in ("true_attrs", "noisy_attrs"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _readonly(np.asarray(val, dtype=int)))
        if self.features is not None:
            object.__setattr__(self, "features", _readonly(np.asarray(self.features, dtype=float)))

    @property
    def m(self) -> int:
        return len(self.utilities)

    @property
    def s(self) -> int:
        return len(self.p)

    def noise_matrix(self, k: int = 0) -> np.ndarray:
        if self.noise is None:
            raise ValueError("instance carries no noise information")
        return self.noise[k]


def validate_instance(inst: Instance) -> tuple:
    """Check structural invariants and return one message per violation;
    an empty tuple means the instance is valid. Never raises."""
    if inst.utilities.ndim != 1:
        return (f"utilities must be 1-D, not of shape {inst.utilities.shape}",)
    bad = []
    if inst.m < 1:
        bad.append("m must be positive")
    if inst.n < 1:
        bad.append("n must be positive")
    if inst.n > inst.m:
        bad.append(f"selection size n={inst.n} exceeds item count m={inst.m}")
    if inst.s < 1:
        bad.append("s must be at least 1")
    for k, pk in enumerate(inst.p):
        if pk < 1:
            bad.append(f"attribute {k} has p={pk} < 1")
    if not np.all(np.isfinite(inst.utilities)):
        idx = int(np.argmin(np.isfinite(inst.utilities)))
        bad.append(f"non-finite utility at item {idx}")
    elif np.any(inst.utilities < 0):
        idx = int(np.argmax(inst.utilities < 0))
        bad.append(f"negative utility at item {idx}")
    else:
        with np.errstate(over="ignore"):
            total = inst.utilities.sum()
        if not np.isfinite(total):
            bad.append("utilities sum past the largest float; scale them down")
    if inst.noise is not None:
        if len(inst.noise) != inst.s:
            bad.append(f"noise has {len(inst.noise)} attribute blocks, expected {inst.s}")
        else:
            for k, q in enumerate(inst.noise):
                if q.shape != (inst.m, inst.p[k]):
                    bad.append(f"noise block {k} shape {q.shape} != ({inst.m}, {inst.p[k]})")
                    continue
                if not np.all(np.isfinite(q)):
                    i = int(np.argmin(np.isfinite(q).all(axis=1)))
                    bad.append(f"non-finite noise entry (item {i}, attribute {k})")
                    continue
                sums = q.sum(axis=1)
                off = np.abs(sums - 1.0) > ROW_SUM_TOL
                if np.any(off):
                    i = int(np.argmax(off))
                    bad.append(f"noise row sums to {sums[i]:.12g} (item {i}, attribute {k})")
                if np.any(q < -ROW_SUM_TOL) or np.any(q > 1 + ROW_SUM_TOL):
                    bad.append(f"noise entries outside [0,1] in attribute {k}")
    for name in ("true_attrs", "noisy_attrs"):
        col = getattr(inst, name)
        if col is None:
            continue
        if col.shape != (inst.m, inst.s):
            bad.append(f"{name} shape {col.shape} != ({inst.m}, {inst.s})")
            continue
        for k, pk in enumerate(inst.p):
            if np.any((col[:, k] < 0) | (col[:, k] >= pk)):
                bad.append(f"{name} column {k} outside [0, {pk})")
    return tuple(bad)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Per attribute-value count bounds [L, U] plus slack delta."""

    lower: tuple  # tuple of s arrays, lower[k][l] >= 0
    upper: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(_readonly(np.asarray(a, dtype=float)) for a in self.lower))
        object.__setattr__(self, "upper", tuple(_readonly(np.asarray(a, dtype=float)) for a in self.upper))
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        for k, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo.shape != hi.shape:
                raise ValueError(f"bound shapes differ for attribute {k}")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError(f"non-finite bound for attribute {k}")
            if np.any(lo > hi + 1e-12):
                raise ValueError(f"lower bound exceeds upper bound for attribute {k}")
            if np.any(lo < 0) or np.any(hi < 0):
                raise ValueError(f"negative bound for attribute {k}")


def make_constraints(lower, upper, delta: float, n: int) -> ConstraintSet:
    """Build a ConstraintSet, clamping all bounds into [0, n]."""
    lower = [np.clip(np.asarray(a, dtype=float), 0.0, float(n)) for a in lower]
    upper = [np.clip(np.asarray(a, dtype=float), 0.0, float(n)) for a in upper]
    return ConstraintSet(lower=tuple(lower), upper=tuple(upper), delta=delta)


def constraints_from_alpha(n: int, t, alpha: float, delta: float = 0.0) -> ConstraintSet:
    """Interpolated upper bounds U_l = n(1-alpha) + n*alpha*t_l, L = 0.

    alpha=0 leaves the selection unconstrained (U_l = n for every group);
    alpha=1 caps group l at exactly n*t_l.
    """
    t = np.asarray(t, dtype=float)
    if abs(t.sum() - 1.0) > 1e-9 or np.any(t < 0):
        raise ValueError("target must be a probability vector")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    upper = n * (1.0 - alpha) + n * alpha * t
    lower = np.zeros_like(upper)
    return make_constraints([lower], [upper], delta=delta, n=n)


def target_vector(inst: Instance, proportional: bool) -> np.ndarray:
    """Target shares over the groups of attribute 0: equal, or the shares
    of the true groups in the instance."""
    p = inst.p[0]
    if not proportional:
        return np.full(p, 1.0 / p)
    if inst.true_attrs is None:
        raise ValueError("a proportional target needs true attributes in the instance file")
    return np.bincount(inst.true_attrs[:, 0], minlength=p) / inst.m


def smallest(a: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` positions of ``np.argsort(a, kind="stable")``,
    as a set whose last entry is that order's ``count``-th.

    One partition finds the ``count``-th smallest value, and the ties at it
    go to the lowest positions. Equal values keep their position order in
    the result, so sorting it stably by value gives the order's head.
    """
    tau = np.partition(a, count - 1)[count - 1]
    below = np.flatnonzero(a < tau)
    return np.concatenate([below, np.flatnonzero(a == tau)[:count - below.size]])


def top_n(scores: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest scores, ties going to the lowest index.

    Returns the set of ``np.argsort(-scores, kind="stable")[:n]``, in no
    particular order, by one partition instead of a sort of all m.
    """
    s = np.asarray(scores, dtype=float)
    n = min(n, s.size)
    if n <= 0:
        return np.empty(0, dtype=np.intp)
    return smallest(-s, n)


@dataclass(frozen=True, eq=False)
class Selection:
    """Boolean inclusion mask with the utility of the chosen items."""

    chosen: np.ndarray
    total_utility: float

    def __post_init__(self):
        object.__setattr__(self, "chosen", _readonly(np.asarray(self.chosen, dtype=bool)))

    @classmethod
    def from_mask(cls, mask: np.ndarray, utilities: np.ndarray) -> "Selection":
        mask = np.array(mask, dtype=bool)  # a copy: the Selection freezes its mask
        return cls(chosen=mask, total_utility=float(np.dot(mask, np.asarray(utilities, dtype=float))))

    @property
    def cardinality(self) -> int:
        return int(np.count_nonzero(self.chosen))

    @property
    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.chosen)


@dataclass(frozen=True, eq=False)
class ViolationReport:
    """Additive violations of the count bounds [L, U] plus cardinality excess.

    ``fairness[k][l]`` is how far the (true or expected) count for group
    (k, l) lies outside [L, U]; zero when the bound is satisfied.
    """

    fairness: tuple  # tuple of s arrays
    cardinality_excess: float
    max_violation: float


def violation_report(x, inst: Instance, cs: ConstraintSet, attrs: str = "true") -> ViolationReport:
    """Measure how far selection ``x`` violates the target bounds.

    attrs="true" counts members of each true group; attrs="expected" uses
    the expected counts sum_i q_il * x_i. Either way the bounds checked are
    the raw [L, U] (no delta slack).
    """
    vec = x.chosen if isinstance(x, Selection) else np.asarray(x, dtype=float)
    if attrs not in ("true", "expected"):
        raise ValueError(f"attrs must be 'true' or 'expected', got {attrs!r}")
    if attrs == "true" and inst.true_attrs is None:
        raise ValueError("true-attribute mode requires true_attrs")
    fairness = []
    worst = 0.0
    for k in range(inst.s):
        if attrs == "true":
            sel = vec > 0.5
            counts = np.bincount(inst.true_attrs[sel, k], minlength=inst.p[k]).astype(float)
        else:
            counts = inst.noise[k].T @ vec
        viol = np.maximum(0.0, np.maximum(cs.lower[k] - counts, counts - cs.upper[k]))
        viol[viol < 1e-12] = 0.0
        fairness.append(viol)
        worst = max(worst, float(viol.max(initial=0.0)))
    excess = max(0.0, float(vec.sum()) - inst.n)
    if excess < 1e-12:
        excess = 0.0
    return ViolationReport(fairness=tuple(fairness), cardinality_excess=excess, max_violation=worst)


# --- instance file format -------------------------------------------------
# {n, p: [p_0, ...], w: [m utilities], q?: [one (p_k, m) matrix per attribute],
#  z?: (s, m) true values, zhat?: (s, m) observed values}
# Matrices are stored one row per group value or attribute, so a file holds
# a few long lists rather than m short ones; Instance keeps them as (m, p_k)
# and (m, s). m is len(w) and s is len(p); shapes are checked by
# validate_instance.

INSTANCE_KEYS = frozenset({"n", "p", "w", "q", "z", "zhat"})
REQUIRED_KEYS = frozenset({"n", "p", "w"})


def instance_to_dict(inst: Instance) -> dict:
    data = {"n": inst.n, "p": list(inst.p), "w": inst.utilities.tolist()}
    if inst.noise is not None:
        data["q"] = [q.T.tolist() for q in inst.noise]
    for key, col in (("z", inst.true_attrs), ("zhat", inst.noisy_attrs)):
        if col is not None:
            data[key] = col.T.tolist()
    return data


def check_keys(what: str, data, allowed: frozenset, required: frozenset) -> None:
    """Check that ``data`` is a JSON object with no key outside ``allowed``
    and every key in ``required``, naming the keys that are not.

    Raises TypeError if ``data`` is not an object, else ValueError.
    """
    if not isinstance(data, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(data).__name__}")
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = sorted(required - set(data))
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")


def json_list(name: str, value) -> list:
    """``value``, which must be a JSON list; raises TypeError naming ``name``."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, not {type(value).__name__}")
    return value


def integer(name: str, value) -> int:
    """A JSON number that must be an integer (3.0 reads as 3).

    Raises ValueError naming ``name`` for anything else, such as 1.9,
    which ``int`` would truncate to 1.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _number_array(name: str, value, what: str) -> np.ndarray:
    """A JSON list (nested or not) as an array, if it is rectangular and
    holds numbers only. numpy reads a true among numbers as 1, so the
    innermost lists are also scanned for booleans."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged: numpy cannot give it one shape
        raise ValueError(f"{name} is ragged: its lists differ in length") from None
    rows = [value] if a.ndim else [[value]]
    for _ in range(a.ndim - 1):
        rows = [row for block in rows for row in block]
    if a.dtype.kind not in "iuf" or any(bool in set(map(type, row)) for row in rows):
        raise ValueError(f"{name} must hold {what} only")
    return a


def integer_array(name: str, value) -> np.ndarray:
    """A JSON list (nested or not) whose numbers must all be integers."""
    a = _number_array(name, value, "integers")
    if a.dtype.kind == "f":
        if not np.all(np.isfinite(a) & (a == np.round(a))):
            raise ValueError(f"{name} must hold integers only")
        a = a.astype(int)
    return a


def real_array(name: str, value) -> np.ndarray:
    """A JSON list (nested or not) of numbers, as floats."""
    return _number_array(name, value, "numbers").astype(float, copy=False)


def instance_from_dict(data: dict) -> Instance:
    check_keys("instance", data, INSTANCE_KEYS, REQUIRED_KEYS)
    w = real_array("w", json_list("w", data["w"]))
    p, q = integer_array("p", json_list("p", data["p"])), data.get("q")
    if q is not None:
        q = tuple(real_array(f"q[{k}]", qk).T for k, qk in enumerate(json_list("q", q)))
    z, zhat = (None if data.get(key) is None else integer_array(key, json_list(key, data[key])).T
               for key in ("z", "zhat"))
    return Instance(n=integer("n", data["n"]), p=p, utilities=w, noise=q, true_attrs=z,
                    noisy_attrs=zhat)


def save_instance(inst: Instance, path) -> None:
    text = json.dumps(instance_to_dict(inst))
    with open(path, "w") as fh:  # one write: json.dump writes many small chunks
        fh.write(text)


def load_instance(path) -> Instance:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return instance_from_dict(data)
    except TypeError as exc:  # a field of the wrong JSON type
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
