"""fairselect benchmark: one workload per invocation, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-de --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one extra traced pass, and
the spans are written to ``.bench_out/``. The line before the result is an
``info`` object: environment, sample counts and sweep digests. The library
is imported from ``src/`` of the checkout, never from an installed copy.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported so BLAS and OpenMP start single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


def _import_library():
    if not (SRC / "fairselect" / "__init__.py").is_file():
        sys.exit(f"error: no fairselect sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fairselect
    if Path(fairselect.__file__).resolve().parent != (SRC / "fairselect").resolve():
        sys.exit(f"error: imported fairselect from {fairselect.__file__}, not {SRC}")


def _git_commit():
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _environment(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _git_commit(), "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _import_library()
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"workload must be one of {bench_workloads.WORKLOADS}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        outcome = bench_workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir))

    if not outcome.op_ms or (args.trace and not outcome.traced_cost):
        sys.exit("error: no operation succeeded:\n" + "\n".join(outcome.problems))
    info = {"workload": args.workload, "env": _environment(args.seed),
            "op_samples": len(outcome.op_ms), "op_ms.p50": statistics.median(outcome.op_ms),
            "op_ms.min": min(outcome.op_ms),
            "units_per_s": outcome.units / outcome.busy_s,
            "setup_s.raw": statistics.median(outcome.setup_s), "setup_samples": len(outcome.setup_s),
            "problems": outcome.problems, **outcome.info}
    if len(outcome.op_ms) >= 100:   # at least ten samples above the 90th percentile
        info["op_ms.p90"] = statistics.quantiles(outcome.op_ms, n=10)[-1]
    if args.trace:
        spans = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        outcome.tracer.write(spans)
        info["spans"] = str(spans.relative_to(ROOT))
        metrics = outcome.tracer.layer_metrics()
        metrics["trace.overhead_frac"] = (
            statistics.median(outcome.traced_cost) / statistics.median(outcome.op_cost) - 1.0,
            "ratio")
        metrics["failed_frac"] = (outcome.failed / outcome.attempted, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(outcome.setup_cost) * bench_workloads.CALIBRATION_REFERENCE_S,
                        "s"),
            "op_cost.p50": (statistics.median(outcome.op_cost), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
