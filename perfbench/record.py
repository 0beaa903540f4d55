"""Run the benchmark over several seeds and record one trajectory point.

    python3 perfbench/record.py --out perfbench/trajectory/<commit>.json

For every workload in BENCHMARK.json this makes ten untraced runs (seeds
1..10) and one traced run (seed 1), one at a time, and prints each
end-to-end metric's median and its quartile spread as a share of the
median next to a third of the metric's bound. The point written holds the
environment, the end-to-end medians and quartiles, the medians of the raw
figures on the ``info`` lines, the traced per-layer figures and the pivot
counts (none yet: the solver does not report them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(info, result) of one benchmark run; raises if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks: {info['problems']}")
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="trajectory point to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw_names = ("op_ms.p50", "op_ms.min", "units_per_s")
    point = {"env": None, "end_to_end": {}, "raw": {}, "layers": {}, "pivots": None}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        raw = {name: [] for name in raw_names}
        for seed in range(1, RUNS + 1):
            info, result = run(workload, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in raw_names:
                raw[name].append(info[name])
            print(f"{workload:16s} seed {seed:2d} " + "  ".join(
                f"{name} {vals[-1]:.4f}" for name, vals in values.items()), flush=True)
        point["env"] = {k: v for k, v in info["env"].items() if k != "seed"}
        point["end_to_end"][workload] = {}
        point["raw"][workload] = {name: statistics.median(vals) for name, vals in raw.items()}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = spread < bounds[name] / 3
            steady = steady and ok
            point["end_to_end"][workload][name] = {"median": median, "q1": q1, "q3": q3,
                                                   "runs": len(vals)}
            print(f"{workload:16s} {name:12s} median {median:11.4f}  spread {spread:.3f}"
                  f"  (bound/3 {bounds[name] / 3:.3f}){'' if ok else '  NOT STEADY'}", flush=True)
        info, result = run(workload, 1, spec["run_seconds"], 1)
        point["layers"][workload] = {name: m["value"] for name, m in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
