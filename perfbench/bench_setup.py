"""Set-up of a ``select-*`` workload, run as a child process of ``run.py``:

    python3 perfbench/bench_setup.py <workload> <seed> <workdir>

writes the workload's seeded instance files into ``workdir`` and pickles
their references (path, sizes, utilities, HiGHS optimum, set-up times) to
``workdir/refs.pkl``. It runs apart from the measuring process so that its
allocations do not set that process's peak RSS.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pickle  # noqa: E402

import bench_workloads  # noqa: E402


def main(argv: list) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), argv[2]
    m, n, count = bench_workloads.SELECT_SIZES[workload]
    refs = [bench_workloads.make_instance(m, n, seed, i, workdir) for i in range(count)]
    (Path(workdir) / bench_workloads.REFS_FILE).write_bytes(pickle.dumps(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
