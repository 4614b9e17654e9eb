"""Run one workload of the session benchmark and print its result as JSON.

    python3 sessionbench/run.py --workload qisa-m16 --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  The lines before it give the checkpoint hashes and each
command's median time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = HERE / "runs"


def blas_threads() -> int:
    """At most two BLAS threads, and never more than the CPUs this process may use."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qisa_lab" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'qisa_lab'}; "
              "run from the root of a qisa-lab checkout", file=sys.stderr)
        return 2
    threads = str(blas_threads())
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # read once, when numpy loads below
    os.environ["QISA_LAB_THREADS"] = threads
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import session

    workload = session.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{sorted(session.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"workload {workload.name} seed {args.seed} blas_threads {threads}")
    result = session.run(workload, args.seed, args.seconds, bool(args.trace), RUNS_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
