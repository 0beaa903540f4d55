"""Command-line interface.

Verbs:
  gen         emit a synthetic instance file
  select      run one algorithm on an instance file, print the selection
  metrics     evaluate a given selection against true attributes
  experiment  run a seeded sweep and write the results table

Exit codes: 0 success, 1 usage/parse errors, 2 infeasible constraints.
Machine-readable JSON goes to stdout; item indices in output are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import selectors
from .core import (InfeasibleError, Instance, Selection, constraints_from_alpha, load_instance,
                   make_constraints, save_instance, target_vector, validate_instance,
                   violation_report)
from .datagen import KIND_DISPARATE_UTILITY, GeneratorSpec
from .experiment import (DRAW_SETTINGS, build_instance, check_setting, load_config,
                         run_experiment, write_per_trial, write_results)
from .metrics import compute_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _flag(convert, expected: str, low=None):
    """An argparse type: ``convert`` applied to the flag's text. Text it
    cannot convert, or a value below ``low``, is an error naming the flag."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be {expected}, not {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be {expected}, not {value}")
        return value
    return parse


_seed = _flag(int, "a non-negative integer", low=0)
_positive = _flag(int, "a positive integer", low=1)
_numbers = _flag(lambda text: [float(v) for v in text.split(",")], "comma-separated numbers")
_integers = _flag(lambda text: [int(v) for v in text.split(",")], "comma-separated integers")


def _print_json(payload) -> None:
    """Print strict JSON: a NaN or an infinity raises ValueError instead."""
    print(json.dumps(payload, allow_nan=False))


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only a lone number such as -1 for a value; no flag here
        # starts with a digit, so -1,2 and -.5,1 are values too
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_ERROR)


@functools.cache  # parse_args leaves no state behind, so main builds it once
def _build_parser() -> _Parser:
    parser = _Parser(prog="fairselect",
                     description="Fair subset selection under noisy protected attributes")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic instance file")
    gen.add_argument("--kind", choices=[k.replace("_", "-") for k in DRAW_SETTINGS], required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=_seed, default=0,
                     help="root of the seed tree the instance is drawn from, as in a sweep trial")
    reads = DRAW_SETTINGS[KIND_DISPARATE_UTILITY]  # the one kind that reads --tau and --bins
    gen.add_argument("--tau", type=float, help="label flip probability "
                     f"(disparate-utility only; default {reads['tau']:g})")
    gen.add_argument("--bins", type=int, help="utility bins for the probability estimate "
                     f"(disparate-utility only; default {reads['bins']})")
    gen.add_argument("--out", required=True)

    sel = sub.add_parser("select", help="run one algorithm on an instance file")
    sel.add_argument("--instance", required=True)
    sel.add_argument("--algorithm", choices=list(selectors.ALGORITHMS), required=True)
    sel.add_argument("--alpha", type=float, help="default 0; not with --lower and --upper")
    sel.add_argument("--delta", type=float, default=0.0)
    sel.add_argument("--target", choices=["equal", "proportional"], default="equal")
    sel.add_argument("--lambda", dest="lambda_", type=float, default=0.0)
    sel.add_argument("--seed", type=_seed, default=0)
    sel.add_argument("--lower", type=_numbers, help="comma-separated explicit lower bounds")
    sel.add_argument("--upper", type=_numbers, help="comma-separated explicit upper bounds")

    met = sub.add_parser("metrics", help="evaluate a selection on true attributes")
    met.add_argument("--instance", required=True)
    met.add_argument("--indices", type=_integers, required=True,
                     help="comma-separated 1-based item indices")
    met.add_argument("--target", choices=["equal", "proportional"], default="equal")
    met.add_argument("--ndcg", action="store_true")

    exp = sub.add_parser("experiment", help="run a seeded sweep from a config file")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)
    exp.add_argument("--format", choices=["csv", "json"], default="csv")
    exp.add_argument("--per-trial", default=None, help="also dump per-trial metric values")
    exp.add_argument("--workers", type=_positive, default=1,
                     help="worker processes (default 1); results do not depend on it")
    return parser


def _load_checked_instance(path) -> Instance:
    inst = load_instance(path)
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    return inst


def _check_output(flag: str, path) -> None:
    """Reject a path no file can be written at before the draw or sweep that fills it runs."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ValueError(f"{flag} must name a file in an existing directory, not {path}")


def cmd_gen(args) -> int:
    _check_output("--out", args.out)
    kind = args.kind.replace("-", "_")
    n, tau, bins = (check_setting(f"--{key}", getattr(args, key), kind, args.m)
                    for key in ("n", "tau", "bins"))
    inst = build_instance(GeneratorSpec(kind=kind, m=args.m, n=n, seed=args.seed), tau, bins)
    save_instance(inst, args.out)
    _print_json({"written": args.out, "m": inst.m, "n": inst.n, "p": list(inst.p)})
    return EXIT_OK


def cmd_select(args) -> int:
    bounds = args.lower is not None or args.upper is not None
    if bounds and (args.lower is None or args.upper is None):
        raise ValueError("--lower and --upper must be given together")
    if bounds and args.alpha is not None:
        raise ValueError("select reads no --alpha with --lower and --upper")
    # checked as a config's keys are, in its order, so both name the same bad setting first
    flags = {"delta": args.delta, "alpha": args.alpha or 0.0, "lambda": args.lambda_}
    delta, alpha, lambda_ = (check_setting(f"--{key}", value) for key, value in flags.items())
    inst = _load_checked_instance(args.instance)
    if inst.noise is None:
        raise ValueError("instance file carries no probability rows")
    if inst.s != 1:
        raise ValueError(f"select handles one protected attribute; the instance has s={inst.s}")
    t = target_vector(inst, proportional=args.target == "proportional")
    if bounds:
        if len(args.lower) != inst.p[0] or len(args.upper) != inst.p[0]:
            raise ValueError(f"--lower and --upper need one bound per group (p={inst.p[0]})")
        cs = make_constraints([args.lower], [args.upper], delta=delta, n=inst.n)
    else:
        cs = constraints_from_alpha(inst.n, t, alpha, delta=delta)

    # every algorithm breaks imputation ties from the stream (seed, 0)
    problem = selectors.Problem(inst, cs, t, seed=args.seed, imputed_key=(0,), lambda_=lambda_)
    sel = selectors.run_algorithm(args.algorithm, problem, (1,))
    payload = {
        "status": "ok",
        "algorithm": args.algorithm,
        "indices": (sel.indices + 1).tolist(),
        "utility": sel.total_utility,
        "cardinality": sel.cardinality,
    }
    modes = ("expected",) if inst.true_attrs is None else ("expected", "true")
    for attrs in modes:
        report = violation_report(sel.chosen, inst, cs, attrs=attrs)
        payload[f"{attrs}_violations"] = {
            "per_group": [list(map(float, v)) for v in report.fairness],
            "cardinality_excess": report.cardinality_excess,
            "max_violation": report.max_violation,
        }
    _print_json(payload)
    return EXIT_OK


def cmd_metrics(args) -> int:
    inst = _load_checked_instance(args.instance)
    indices = [v - 1 for v in args.indices]
    if any(i < 0 or i >= inst.m for i in indices):
        raise ValueError("indices out of range (they are 1-based)")
    if len(set(indices)) != len(indices):
        raise ValueError("--indices repeats an item")
    if len(indices) != inst.n:
        raise ValueError(f"--indices needs exactly n={inst.n} items, got {len(indices)}")
    mask = np.zeros(inst.m, dtype=bool)
    mask[indices] = True
    sel = Selection.from_mask(mask, inst.utilities)
    t = target_vector(inst, proportional=args.target == "proportional")
    report = compute_report(inst, sel, t, selectors.blind(inst).total_utility, with_ndcg=args.ndcg)
    # the report's fields in order; ndcg only when asked for
    _print_json({name: value for name, value in asdict(report).items() if value is not None})
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_output("--out", args.out)
    _check_output("--per-trial", args.per_trial)
    table = run_experiment(load_config(args.config), workers=args.workers)
    write_results(table, args.out, format=args.format)
    if args.per_trial:
        write_per_trial(table, args.per_trial)
    _print_json({"written": args.out, "rows": len(table.rows)})
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"gen": cmd_gen, "select": cmd_select,
                "metrics": cmd_metrics, "experiment": cmd_experiment}
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        _print_json({"status": "infeasible", "detail": str(exc)})
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:  # a KeyError is a bug, so it keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
