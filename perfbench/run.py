"""Run one workload of the GUPT benchmark and print its result as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload front_door --seed 1 --seconds 10 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``front_door``   HTTP server in its own process, durable journal, answer cache
``analytics``    in-process regression and k-means through the chamber path
``shard_plane``  remote backend over two TCP shard-node processes

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers of ``perfbench/layers.py`` after an untraced phase and
prints the per-layer metrics of a second, traced phase.  The last line
of standard output is the result object; the exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread before numpy is imported
# anywhere, here and (by inheritance) in every process the run starts.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
WORKLOADS = ("front_door", "analytics", "shard_plane")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"GUPT sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), os.environ.get("PYTHONPATH")) if p
    )
    import harness

    module = __import__(args.workload)
    # Seeds feed numpy's SeedSequence, which takes non-negative integers.
    workload = module.Workload(args.seed % 2**32)
    try:
        result = harness.run_workload(args, workload)
    finally:
        workload.close()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
