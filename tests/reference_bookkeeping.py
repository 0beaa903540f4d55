"""Bounds, checks and violation reports as they were computed before the
library did its bookkeeping on p- and k-sized values in plain Python.

Each function here is the numpy version the library used to run:
``reference_make_constraints`` clamps with ``np.clip``, ``ReferenceConstraintSet``
checks its bounds with elementwise masks, ``reference_validate_instance``
masks every array, ``reference_violation_report`` copies its mask to floats,
and ``reference_check_setting`` checks a setting's value on the three paths
``check_setting`` had before ``core.in_range`` became its one path: a Python
float's shortcut, the array path of ``reference_real_values`` for every other
real value, and n's and bins' integer check. ``tests/test_core.py`` and
``tests/test_experiment.py`` check with hypothesis that the library gives the
same bits and the same messages. This is a test fixture, not a production path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairselect.core import (RANGES, ROW_SUM_TOL, Instance, ViolationReport, _stored, in_range,
                             integer, real_array)


@dataclass(frozen=True, eq=False)
class ReferenceConstraintSet:
    lower: tuple
    upper: tuple
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(_stored(a, float) for a in self.lower))
        object.__setattr__(self, "upper", tuple(_stored(a, float) for a in self.upper))
        in_range("delta", self.delta)
        for k, (lo, hi) in enumerate(zip(self.lower, self.upper)):
            if lo.shape != hi.shape:
                raise ValueError(f"bound shapes differ for attribute {k}")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError(f"non-finite bound for attribute {k}")
            if np.any(lo > hi + 1e-12):
                raise ValueError(f"lower bound exceeds upper bound for attribute {k}")
            if np.any(lo < 0) or np.any(hi < 0):
                raise ValueError(f"negative bound for attribute {k}")


def reference_make_constraints(lower, upper, delta: float, n: int) -> ReferenceConstraintSet:
    lower = [np.clip(np.asarray(a, dtype=float), 0.0, float(n)) for a in lower]
    upper = [np.clip(np.asarray(a, dtype=float), 0.0, float(n)) for a in upper]
    return ReferenceConstraintSet(lower=tuple(lower), upper=tuple(upper), delta=delta)


def reference_probability_vector(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not (t.ndim == 1 and abs(t.sum() - 1.0) <= 1e-9 and np.all(t >= 0)):
        raise ValueError("target must be a probability vector")
    return t


def reference_constraints_from_alpha(n: int, t, alpha: float,
                                     delta: float = 0.0) -> ReferenceConstraintSet:
    t = reference_probability_vector(t)
    in_range("alpha", alpha)
    upper = n * (1.0 - alpha) + n * alpha * t
    lower = np.zeros_like(upper)
    return reference_make_constraints([lower], [upper], delta=delta, n=n)


def reference_validate_instance(inst: Instance) -> tuple:
    if inst.utilities.ndim != 1:
        return (f"utilities must be 1-D, not of shape {inst.utilities.shape}",)
    bad = []
    if inst.m < 1:
        bad.append("m must be positive")
    if not 1 <= inst.n <= inst.m:
        bad.append(f"n must lie in [1, m={inst.m}], not {inst.n}")
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


def reference_violation_report(x, inst: Instance, cs, attrs: str = "true") -> ViolationReport:
    vec = np.asarray(x, dtype=float)
    if attrs not in ("true", "expected"):
        raise ValueError(f"attrs must be 'true' or 'expected', got {attrs!r}")
    if attrs == "true" and inst.true_attrs is None:
        raise ValueError("true-attribute mode requires true_attrs")
    sel = vec > 0.5
    fairness = []
    worst = 0.0
    for k in range(inst.s):
        if attrs == "true":
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


def reference_in_range(key: str, value, m=None, name=None):
    """``core.in_range`` as it was: it checked a number or a list's entries, took n and
    bins through ``integer``, and left every other type to its caller."""
    low, high, close = RANGES[key]
    name, shown = name or key, f"m={m}" if high == "m" else f"{high:g}"
    value, high = (integer(name, value), m) if high == "m" else (value, high)
    for v in value if isinstance(value, (list, tuple)) else [value]:
        if not -np.inf < v < np.inf:
            raise ValueError(f"{name} must be finite, not {value}")
        if not (low <= v < high if close == ")" else low <= v <= high):
            raise ValueError(f"{name} must lie in [{low:g}, {shown}{close}, not {value}")
    return value


def reference_real_values(name: str, value, shape=(), low=-np.inf, high=np.inf,
                          close="]") -> np.ndarray:
    """``value`` as a float array of ``shape``, each entry finite and in [low, high], or in
    [low, high) if ``close`` is ")"; raises ValueError naming ``name``."""
    a = real_array(name, value)
    if a.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, not {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite, not {value}")
    if not np.all((a >= low) & ((a < high) if close == ")" else (a <= high))):
        raise ValueError(f"{name} must lie in [{low:g}, {high:g}{close}, not {value}")
    return a


def reference_check_setting(name: str, value, m=None):
    """``check_setting``'s three paths for a given value of the setting or grid ``name``."""
    key, grid = name.lstrip("-").removesuffix("_grid"), name.endswith("_grid")
    if RANGES[key][1] != "m" and not grid and type(value) is float:
        return reference_in_range(key, value, name=name)
    if RANGES[key][1] != "m":
        values = reference_real_values(name, value, (len(value),) if grid else ()).tolist()
        reference_in_range(key, value, name=name)
        return tuple(values) if grid else values
    values = [reference_in_range(key, integer(name, v), m, name + " values" * grid)
              for v in (value if grid else [value])]
    return tuple(map(float, values)) if grid else values[0]
