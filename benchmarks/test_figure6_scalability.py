"""Bench: Figure 6 — scalability of block execution.

Two experiments share this file:

* ``test_figure6`` regenerates the paper's completion-time-vs-restarts
  curve (everyone's time grows with the restart count; GUPT's slope
  stays comparable to the non-private run's).
* ``test_backend_scalability`` sweeps execution backends at growing
  block counts and writes ``BENCH_scalability.json``.  The paper's
  scalability claim (§7.4) is that sample-and-aggregate parallelizes
  embarrassingly; the sweep shows the *chamber overhead* side of that
  claim — the remote backend over two ``repro shard-node`` processes
  must beat fork-per-block :class:`SubprocessChamber` by >= 5x at 100+
  blocks while releasing bit-for-bit identical values under a fixed
  seed (every row plans at the same 2 logical shards: same plan draw,
  same noise draw, same aggregation).

``SCALABILITY_SCALE=smoke`` shrinks the sweep for CI (and skips the
5x assertion, which needs realistic block counts to be meaningful).
"""

import os
import time

import numpy as np
from common import write_bench

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.experiments import figure6
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import local_node_cluster
from repro.runtime.sandbox import SubprocessChamber

SEED = 424242
RECORDS_PER_BLOCK = 100
DIMENSIONS = 8
EPSILON = 0.5
SHARDS = 2
NODES = 2
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def block_mean(block):
    """Cheap analyst program: the chamber dispatch cost dominates."""
    return float(np.mean(block))


block_mean.output_dimension = 1


def _build_runtime(num_blocks: int, computation: ComputationManager) -> GuptRuntime:
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.0, 100.0, size=(num_blocks * RECORDS_PER_BLOCK, DIMENSIONS))
    manager = DatasetManager()
    manager.register(
        "scale",
        DataTable(values, input_ranges=[(0.0, 100.0)] * DIMENSIONS),
        total_budget=10.0,
    )
    return GuptRuntime(manager, computation_manager=computation, rng=SEED)


def _time_backend(name: str, num_blocks: int, make_manager) -> dict:
    computation = make_manager()
    runtime = _build_runtime(num_blocks, computation)
    try:
        started = time.perf_counter()
        result = runtime.run(
            "scale",
            block_mean,
            TightRange((0.0, 100.0)),
            epsilon=EPSILON,
            block_size=RECORDS_PER_BLOCK,
        )
        seconds = time.perf_counter() - started
    finally:
        runtime.close()
    assert result.num_blocks == num_blocks
    return {
        "backend": name,
        "blocks": num_blocks,
        "seconds": seconds,
        "value": [float(v) for v in result.value],
    }


def test_backend_scalability():
    smoke = os.environ.get("SCALABILITY_SCALE", "full") == "smoke"
    block_counts = [8, 16] if smoke else [32, 128]

    # Node processes unpickle ``block_mean`` by reference, so they need
    # this bench module importable.
    with local_node_cluster(
        NODES, spawn="process", env={"PYTHONPATH": BENCH_DIR}
    ) as cluster:
        configs = [
            ("subprocess-fork", lambda: ComputationManager(
                chamber=SubprocessChamber(), shards=SHARDS
            )),
            ("serial", lambda: ComputationManager(backend="serial", shards=SHARDS)),
            (f"remote-process-{NODES}", lambda: ComputationManager(
                backend="remote", shards=SHARDS, nodes=cluster.addresses
            )),
        ]

        rows = []
        for num_blocks in block_counts:
            for name, make_manager in configs:
                row = _time_backend(name, num_blocks, make_manager)
                rows.append(row)
                print(
                    f"\n{name:>16} blocks={num_blocks:>4} "
                    f"{row['seconds'] * 1e3:9.1f} ms  value[0]={row['value'][0]:.6f}"
                )

    # Released values are bit-for-bit identical across every backend at
    # each block count: same seed and shard count -> same plan, same
    # noise, and the chambers and shard nodes compute the same block
    # outputs.
    for num_blocks in block_counts:
        values = {
            tuple(r["value"]) for r in rows if r["blocks"] == num_blocks
        }
        assert len(values) == 1, f"backends disagree at {num_blocks} blocks: {values}"

    speedups = {}
    for num_blocks in block_counts:
        at_count = {r["backend"]: r["seconds"] for r in rows if r["blocks"] == num_blocks}
        speedups[str(num_blocks)] = (
            at_count["subprocess-fork"] / at_count[f"remote-process-{NODES}"]
        )

    write_bench(
        "scalability",
        "smoke" if smoke else "full",
        bench="backend_scalability",
        payload={
            "results": rows,
            "remote_speedup_vs_subprocess": speedups,
            "identical_released_values": True,
        },
        params={
            "records_per_block": RECORDS_PER_BLOCK,
            "dimensions": DIMENSIONS,
            "epsilon": EPSILON,
            "seed": SEED,
            "shards": SHARDS,
            "nodes": NODES,
        },
    )
    print(f"\nremote speedup vs fork-per-block: {speedups}")

    if not smoke:
        at_max = max(block_counts)
        assert at_max >= 100
        assert speedups[str(at_max)] >= 5.0, (
            f"remote only {speedups[str(at_max)]:.1f}x faster than fork-per-block "
            f"at {at_max} blocks"
        )


def test_figure6(benchmark):
    result = benchmark.pedantic(figure6.run, rounds=1, iterations=1)
    print("\n" + result.format_table())

    nonprivate = result.series["non-private"]
    helper = result.series["GUPT-helper"]
    loose = result.series["GUPT-loose"]
    # Time grows with the restart count for every series.
    assert nonprivate[-1] > nonprivate[0]
    assert helper[-1] > helper[0]
    # The private slope stays comparable to the non-private slope (the
    # paper's "overhead diminishes as computation grows"): GUPT's cost
    # per additional restart is at most ~2x the non-private cost.
    span = result.iteration_counts[-1] - result.iteration_counts[0]
    nonprivate_slope = (nonprivate[-1] - nonprivate[0]) / span
    for series in (helper, loose):
        slope = (series[-1] - series[0]) / span
        assert slope < 2.0 * nonprivate_slope
