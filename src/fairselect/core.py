"""Domain types shared by every other module.

An Instance holds m items, a selection size n, and for each of s protected
attributes a per-item probability row over that attribute's values. Group
values are 0-based everywhere (in memory and in the JSON file format).
All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# An instance file's probability rows whose sum is within this tolerance of 1
# are renormalized on load (see instance_from_dict); rows further out are left
# untouched for validation to report. Validation accepts a row within it.
ROW_SUM_TOL = 1e-9

# each setting's range and closing bracket, shared by a grid over it; n and bins lie in [1, m]
RANGES = {"delta": (0, 1, ")"), "alpha": (0, 1, "]"), "lambda": (0, np.inf, "]"),
          "tau": (0, 0.5, "]"), "n": (1, "m", "]"), "bins": (1, "m", "]")}


class InfeasibleError(Exception):
    """The constraint system admits no selection."""


class UnsupportedError(ValueError):
    """The operation does not support this instance shape."""


def _stored(a, dtype) -> Optional[np.ndarray]:
    """What a frozen type keeps of array ``a``: a private, read-only, C-ordered copy (None stays
    None)."""
    if a is None:
        return None
    a = np.array(a, dtype=dtype, order="C")
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

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(v) for v in self.p))
        object.__setattr__(self, "utilities", _stored(self.utilities, float))
        if self.noise is not None:
            object.__setattr__(self, "noise", tuple(_stored(q, float) for q in self.noise))
        for name in ("true_attrs", "noisy_attrs"):
            object.__setattr__(self, name, _stored(getattr(self, name), int))

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
    try:
        in_range("n", inst.n, inst.m)
    except ValueError as exc:
        bad.append(str(exc))
    if inst.s < 1:
        bad.append("s must be at least 1")
    for k, pk in enumerate(inst.p):
        if pk < 1:
            bad.append(f"attribute {k} has p={pk} < 1")
    low, high = _span(inst.utilities)
    if not (-np.inf < low and high < np.inf):
        idx = int(np.argmin(np.isfinite(inst.utilities)))
        bad.append(f"non-finite utility at item {idx}")
    elif low < 0:
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
                low, high = _span(q)
                if not (-np.inf < low and high < np.inf):
                    i = int(np.argmin(np.isfinite(q).all(axis=1)))
                    bad.append(f"non-finite noise entry (item {i}, attribute {k})")
                    continue
                sums = q.sum(axis=1)
                gap_low, gap_high = _span(sums - 1.0)
                if not (-ROW_SUM_TOL <= gap_low and gap_high <= ROW_SUM_TOL):  # NaN too
                    off = np.abs(sums - 1.0) > ROW_SUM_TOL
                    if np.any(off):
                        i = int(np.argmax(off))
                        bad.append(f"noise row sums to {sums[i]:.12g} (item {i}, attribute {k})")
                if low < -ROW_SUM_TOL or high > 1 + ROW_SUM_TOL:
                    bad.append(f"noise entries outside [0,1] in attribute {k}")
    for name in ("true_attrs", "noisy_attrs"):
        col = getattr(inst, name)
        if col is None:
            continue
        if col.shape != (inst.m, inst.s):
            bad.append(f"{name} shape {col.shape} != ({inst.m}, {inst.s})")
            continue
        for k, pk in enumerate(inst.p):
            if inst.m and (col[:, k].min() < 0 or col[:, k].max() >= pk):
                bad.append(f"{name} column {k} outside [0, {pk})")
    return tuple(bad)


def _span(a: np.ndarray) -> tuple:
    """(min, max) of float array ``a``: NaN if it holds one, (inf, -inf) if it is empty.
    Two reductions are cheaper than an elementwise mask; the index of a bad entry
    is looked up only once one is known to exist."""
    return a.min(initial=np.inf), a.max(initial=-np.inf)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Per attribute-value count bounds [L, U] plus slack delta."""

    lower: tuple  # tuple of s arrays, lower[k][l] >= 0
    upper: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(_stored(a, float) for a in self.lower))
        object.__setattr__(self, "upper", tuple(_stored(a, float) for a in self.upper))
        in_range("delta", self.delta)
        # a few entries per attribute: Python floats are cheaper than numpy's per-call cost
        for k, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo.shape != hi.shape:
                raise ValueError(f"bound shapes differ for attribute {k}")
            lo, hi = lo.ravel().tolist(), hi.ravel().tolist()
            if not all(-np.inf < v < np.inf for v in lo + hi):
                raise ValueError(f"non-finite bound for attribute {k}")
            if any(a > b + 1e-12 for a, b in zip(lo, hi)):
                raise ValueError(f"lower bound exceeds upper bound for attribute {k}")
            if min(lo + hi, default=0.0) < 0:
                raise ValueError(f"negative bound for attribute {k}")


def make_constraints(lower, upper, delta: float, n: int) -> ConstraintSet:
    """Build a ConstraintSet, clamping all bounds into [0, n] as ``np.clip``
    does: a NaN stays, for the set to reject, and so does the sign of a zero."""
    high = float(n)

    def clamped(a):
        a = np.asarray(a, dtype=float)
        return np.reshape([min(max(v, 0.0), high) for v in a.ravel().tolist()], a.shape)
    return ConstraintSet(lower=tuple(map(clamped, lower)), upper=tuple(map(clamped, upper)),
                         delta=delta)


def probability_vector(t) -> np.ndarray:
    """``t`` as a 1-D array of nonnegative shares summing to 1 (within 1e-9);
    raises ValueError otherwise, also for a NaN, which fails every comparison."""
    t = np.asarray(t, dtype=float)
    if not (t.ndim == 1 and abs(t.sum() - 1.0) <= 1e-9 and min(t.tolist()) >= 0):
        raise ValueError("target must be a probability vector")
    return t


def constraints_from_alpha(n: int, t, alpha: float, delta: float = 0.0) -> ConstraintSet:
    """Interpolated upper bounds U_l = n(1-alpha) + n*alpha*t_l, L = 0.

    alpha=0 leaves the selection unconstrained (U_l = n for every group);
    alpha=1 caps group l at exactly n*t_l.
    """
    t = probability_vector(t).tolist()
    in_range("alpha", alpha)
    fixed, share = n * (1.0 - alpha), n * alpha
    upper = [fixed + share * v for v in t]
    return make_constraints([[0.0] * len(t)], [upper], delta=delta, n=n)


def target_vector(inst: Instance, proportional: bool) -> np.ndarray:
    """Target shares over the groups of attribute 0: equal, or the shares
    of the true groups in the instance."""
    p = inst.p[0]
    if not proportional:
        return np.full(p, 1.0 / p)
    if inst.true_attrs is None:
        raise ValueError("a proportional target needs true attributes in the instance file")
    return np.bincount(inst.true_attrs[:, 0], minlength=p) / inst.m


def stable_order(a: np.ndarray) -> np.ndarray:
    """``np.argsort(a, kind="stable")`` of a 1-D array, bit for bit: the package's one stable sort.

    The stable merge mispredicts about every other comparison on data it has
    not seen, numpy's default sort does not, but it leaves equal keys in no
    set order. Runs of equal keys are found by comparing neighbours in sorted
    order, and only their positions are put back in position order, by one
    sort of the unique keys ``run * n + position`` (n**2 < 2**63). NaN sorts
    last and equals nothing, so an array that holds one takes the stable sort.
    """
    order = np.argsort(a)
    n = order.size
    ordered = a[order]
    if n and ordered[-1] != ordered[-1]:
        return np.argsort(a, kind="stable")
    tie = np.zeros(n + 1, dtype=bool)  # tie[i]: the keys in sorted slots i - 1 and i are equal
    np.equal(ordered[1:], ordered[:-1], out=tie[1:n])
    if not tie.any():
        return order
    slots = np.flatnonzero(tie[:-1] | tie[1:])
    key = np.cumsum(~tie[slots]) * n + order[slots]  # a new run starts at each slot not tied back
    key.sort()
    order[slots] = key % n
    return order


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
        object.__setattr__(self, "chosen", _stored(self.chosen, bool))

    @classmethod
    def from_mask(cls, mask: np.ndarray, utilities: np.ndarray) -> "Selection":
        mask = np.asarray(mask, dtype=bool)
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

    def __post_init__(self):
        object.__setattr__(self, "fairness", tuple(_stored(a, float) for a in self.fairness))


def violation_report(x, inst: Instance, cs: ConstraintSet, attrs: str = "true") -> ViolationReport:
    """Measure how far the 0/1 or fractional vector ``x`` (for a Selection,
    its ``chosen`` mask) violates the target bounds.

    attrs="true" counts members of each true group; attrs="expected" uses
    the expected counts sum_i q_il * x_i. Either way the bounds checked are
    the raw [L, U] (no delta slack).
    """
    mask = isinstance(x, np.ndarray) and x.dtype == bool  # a Selection's: its sum is its count
    vec = x if mask else np.asarray(x, dtype=float)
    if attrs not in ("true", "expected"):
        raise ValueError(f"attrs must be 'true' or 'expected', got {attrs!r}")
    if attrs == "true" and inst.true_attrs is None:
        raise ValueError("true-attribute mode requires true_attrs")
    total = float(np.count_nonzero(vec)) if mask else float(vec.sum())
    if attrs == "true":
        sel = vec if mask else vec > 0.5
    else:
        vec = vec.astype(float, copy=False)
    fairness = []
    worst = 0.0
    for k in range(inst.s):
        if attrs == "true":
            counts = np.bincount(inst.true_attrs[sel, k], minlength=inst.p[k])
        else:
            counts = inst.noise[k].T @ vec
        # p entries, so Python floats; max(·, 0.0) keeps a NaN, as np.maximum does
        viol = [max(max(lo - c, c - hi), 0.0) for lo, hi, c in
                zip(cs.lower[k].tolist(), cs.upper[k].tolist(), counts.tolist(), strict=True)]
        viol = [0.0 if v < 1e-12 else v for v in viol]
        fairness.append(viol)
        if not any(map(math.isnan, viol)):  # else ndarray.max is NaN, which max() passes over
            worst = max(worst, max(viol, default=0.0))
    excess = max(0.0, total - inst.n)
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
    json_object(what, data)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    missing = sorted(required - set(data))
    if missing:
        raise ValueError(f"missing {what} keys: {missing}")


def json_object(name: str, value) -> dict:
    """``value``, which must be a JSON object; raises TypeError naming ``name``."""
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be a JSON object, not {type(value).__name__}")
    return value


def json_list(name: str, value) -> list:
    """``value``, which must be a JSON list; raises TypeError naming ``name``."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, not {type(value).__name__}")
    return value


def integer(name: str, value) -> int:
    """A JSON or numpy number that must be an integer (3.0 reads as 3); raises ValueError
    naming ``name`` for anything else, such as 1.9, which ``int`` would truncate to 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, not {value!r}")


def _number_array(name: str, value, what: str) -> np.ndarray:
    """A JSON list (nested or not) as an array, if it is rectangular and
    holds numbers only. numpy reads a true among numbers as 1 and a false
    as 0, so the innermost lists are also scanned for booleans, unless the
    array is of floats none of which is 0 or 1."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged: numpy cannot give it one shape
        raise ValueError(f"{name} is ragged: its lists differ in length") from None
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold {what} only")
    if a.dtype.kind == "f" and not ((a == 0.0) | (a == 1.0)).any():
        return a
    rows = [value] if a.ndim else [[value]]
    for _ in range(a.ndim - 1):
        rows = [row for block in rows for row in block]
    if any(bool in set(map(type, row)) for row in rows):
        raise ValueError(f"{name} must hold {what} only")
    return a


def integer_array(name: str, value) -> np.ndarray:
    """A JSON list (nested or not) whose numbers must all be integers."""
    a = _number_array(name, value, "integers")
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.round(a))):
        raise ValueError(f"{name} must hold integers only")
    # numpy reads integers in [2**63, 2**64) as uint64, and casting a float
    # past int64 wraps with a warning
    if a.dtype.kind == "u" or (a.dtype.kind == "f" and not np.all((a >= -2.0**63) & (a < 2.0**63))):
        raise ValueError(f"{name} must hold integers in [-2**63, 2**63)")
    return a.astype(int, copy=False)


def real_array(name: str, value, shape: Optional[tuple] = None) -> np.ndarray:
    """A JSON list (nested or not) of numbers, as floats, of ``shape`` if one is given."""
    a = _number_array(name, value, "numbers").astype(float, copy=False)
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {a.shape}")
    return a


def _real(v) -> Optional[float]:
    """``v`` as a float if numpy reads it as one real number: no bool, no int it cannot hold."""
    if isinstance(v, int) and not isinstance(v, bool):
        return float(v) if -2**63 <= v < 2**64 else None
    numpy = isinstance(v, (np.generic, np.ndarray)) and v.ndim == 0 and v.dtype.kind in "iuf"
    return float(v) if isinstance(v, float) or numpy else None


def in_range(key: str, value, m: Optional[int] = None, name: Optional[str] = None):
    """``value`` in ``RANGES[key]`` (n and bins need m) as a float, an int for n and bins, or if
    ``name`` ends in ``_grid`` as a tuple of floats from a list or tuple. Else a ValueError naming
    ``name`` (the key by default). Pure Python, for speed."""
    (low, high, close), name = RANGES[key], name or key
    values = value if (grid := name.endswith("_grid")) else [value]
    if high == "m":  # entry by entry, and a grid's range names its values
        ints = [within(name + " values" * grid, i := integer(name, v), [i], low, m, close,
                       f"m={m}") for v in values]
        return tuple(map(float, ints)) if grid else ints[0]
    reals = [_real(v) for v in values]
    if None in reals:  # named as an instance file's list is: ragged, misshapen or not numbers
        real_array(name, value, (len(value),) if grid else ())
        raise ValueError(f"{name} must hold numbers only")  # an np.bool_ among numbers
    within(name, value, reals, low, high, close)
    return tuple(reals) if grid else reals[0]


def within(name: str, value, entries, low, high, close: str = "]", shown: Optional[str] = None):
    """``value`` if each of its ``entries`` is finite and lies in [low, high], or in [low, high)
    if ``close`` is ")"; else a ValueError naming ``name`` that shows high as ``shown``."""
    if not all(-math.inf < v < math.inf for v in entries):
        raise ValueError(f"{name} must be finite, not {value}")
    if not all(low <= v < high if close == ")" else low <= v <= high for v in entries):
        high = f"{high:g}" if shown is None else shown
        raise ValueError(f"{name} must lie in [{low:g}, {high}{close}, not {value}")
    return value


def _renormalized(q: np.ndarray) -> np.ndarray:
    """``q``, a file's (m, p) probability rows, with each row whose sum, in q's own layout (which
    fixes the order of the additions), is within ROW_SUM_TOL of 1 divided by it, in place."""
    if q.ndim == 2:  # else validate_instance reports the shape
        sums = q.sum(axis=1)
        off = (sums != 1.0) & (np.abs(sums - 1.0) <= ROW_SUM_TOL)
        if off.any():
            q[off] /= sums[off, None]
    return q


def instance_from_dict(data: dict) -> Instance:
    check_keys("instance", data, INSTANCE_KEYS, REQUIRED_KEYS)
    w = real_array("w", json_list("w", data["w"]))
    p, q = integer_array("p", json_list("p", data["p"])), data.get("q")
    if p.ndim != 1:
        raise ValueError("p must be a flat list of integers, one per attribute")
    if q is not None:
        q = tuple(_renormalized(real_array(f"q[{k}]", json_list(f"q[{k}]", qk)).T)
                  for k, qk in enumerate(json_list("q", q)))
    z, zhat = (None if data.get(key) is None else integer_array(key, json_list(key, data[key])).T
               for key in ("z", "zhat"))
    return Instance(n=integer("n", data["n"]), p=p, utilities=w, noise=q, true_attrs=z,
                    noisy_attrs=zhat)


def save_instance(inst: Instance, path) -> None:
    text = json.dumps(instance_to_dict(inst))
    with open(path, "w") as fh:  # one write: json.dump writes many small chunks
        fh.write(text)


def load_json_file(path, what: str, build):
    """``build`` applied to the JSON value in ``path``. A file that is not
    JSON, or a field of the wrong JSON type, is a ValueError naming the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        return build(data)
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"malformed {what} file {path}: nested too deeply") from None


def load_instance(path) -> Instance:
    return load_json_file(path, "instance", instance_from_dict)
