"""Span tracing from outside the library, by rebinding its public functions.

``from module import name`` copies the binding, so each function is wrapped
at every module attribute its callers look up, not only where it is defined.
Spans (name, start, end, parent) are kept in memory while the tracer is
installed; ``Tracer.restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# Layer name -> (defining module, function, the module attributes callers use).
# A caller that reaches the function through ``module.func`` at call time is
# covered by wrapping the defining module's attribute.
WRAPPED = {
    "datagen.gen_disparate_error": ("fairselect.experiment",),
    "datagen.gen_disparate_utility": ("fairselect.experiment",),
    "datagen.inject_flip_noise": ("fairselect.experiment",),
    "datagen.estimate_q_by_utility_bins": ("fairselect.experiment",),
    "lp.build_denoised_lp": ("fairselect.selectors",),
    "lp.solve_bfs": ("fairselect.selectors",),
    "selectors.blind": ("fairselect.selectors",),
    "selectors.denoised_bfs": ("fairselect.selectors",),
    "selectors.fair_expec": ("fairselect.selectors",),
    "selectors.fair_expec_grp": ("fairselect.selectors",),
    "selectors.group_level_instance": ("fairselect.selectors",),
    "selectors.ceil_round": ("fairselect.selectors",),
    "selectors.impute_bayes": ("fairselect.selectors",),
    "selectors.thrsh": ("fairselect.selectors",),
    "selectors.mult_obj": ("fairselect.selectors",),
    "selectors.dependent_round": ("fairselect.selectors",),
    "metrics.compute_report": ("fairselect.metrics",),
    "core.constraints_from_alpha": ("fairselect.experiment", "fairselect.cli"),
    "core.violation_report": ("fairselect.experiment", "fairselect.cli"),
    "core.load_instance": ("fairselect.cli",),
    "core.validate_instance": ("fairselect.cli",),
    "experiment.run_trial": ("fairselect.experiment",),
    "experiment.run_experiment": ("fairselect.experiment",),
    "cli.main": ("fairselect.cli",),
}


class Tracer:
    """Records one span per call of every wrapped function, plus LP outcome
    counts read from ``solve_bfs`` return values."""

    def __init__(self):
        self.names = []          # span index -> layer name
        self.starts = []
        self.ends = []
        self.parents = []        # span index of the caller's span, or -1
        self.child_ns = []       # time covered by direct children
        self._stack = []
        self._saved = []         # (module, attribute, original)
        self._frac_bound = {}    # id(LinearProgram) -> 1 + sum(p_k - 1), capped at m
        self.solves = 0
        self.infeasible = 0
        self.fractional = []     # |fractional_indices| of each optimal vertex
        self.bound_violations = 0

    def install(self):
        for name, sites in WRAPPED.items():
            module_name, func = name.split(".")
            original = getattr(importlib.import_module("fairselect." + module_name), func)
            wrapper = self._wrap(name, original)
            for site in sites:
                mod = importlib.import_module(site)
                self._saved.append((mod, func, getattr(mod, func)))
                setattr(mod, func, wrapper)

    def restore(self):
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        observe = {"lp.build_denoised_lp": self._on_build,
                   "lp.solve_bfs": self._on_solve}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.child_ns.append(0)
            self.ends.append(0)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            self.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.ends[idx] = end
                self._stack.pop()
                parent = self.parents[idx]
                if parent >= 0:
                    self.child_ns[parent] += end - start
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _on_build(self, args, lp):
        inst = args[0]
        self._frac_bound[id(lp)] = min(inst.m, 1 + sum(pk - 1 for pk in inst.p))

    def _on_solve(self, args, sol):
        self.solves += 1
        bound = self._frac_bound.pop(id(args[0]), None)
        if sol.status.name == "INFEASIBLE":
            self.infeasible += 1
            return
        count = len(sol.fractional_indices)
        self.fractional.append(count)
        if bound is not None and count > bound:
            self.bound_violations += 1

    def layer_metrics(self) -> dict:
        """``<layer>.calls`` and ``<layer>.self_ms`` for every wrapped function
        (zero when unused), plus the LP outcome ratios."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_ns[name] += self.ends[i] - self.starts[i] - self.child_ns[i]
        out = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        out["lp.infeasible_frac"] = (self.infeasible / self.solves if self.solves else 0.0, "ratio")
        out["lp.fractional_per_solve"] = (
            sum(self.fractional) / len(self.fractional) if self.fractional else 0.0, "count")
        return out

    def write(self, path):
        """One JSON line per span, in call order."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"id": i, "name": name, "parent": self.parents[i],
                                     "start_ns": self.starts[i], "end_ns": self.ends[i]}) + "\n")
