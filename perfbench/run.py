"""Benchmark of the ledg training loop and evaluation path.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk-fo --seed 1 --seconds 20 --trace 0

Workloads are listed in ``workloads.py``; ``bench.py`` describes the phases
of a run and the metrics it prints. The library is imported from ``src/``
next to this directory, with BLAS/OpenMP threads pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"

#: one BLAS/OpenMP thread: on a small shared host a second thread ties every
#: matmul to the load on another core, which made timings bimodal
BLAS_THREADS = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the ledg training loop.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "ledg" / "__init__.py").is_file():
        print(f"error: no ledg sources under {SOURCE}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    environment = {"blas_threads_env": BLAS_THREADS}
    sys.path.insert(0, str(SOURCE))
    import bench

    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), environment)


if __name__ == "__main__":
    sys.exit(main())
