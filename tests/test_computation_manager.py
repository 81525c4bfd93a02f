"""Unit tests for the computation manager."""

import time

import numpy as np
import pytest

from repro.core.blocks import draw_sharded_plan
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import BACKENDS, ComputationManager
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.timing import TimingDefense

BLOCKS = [np.full((10, 1), float(i)) for i in range(5)]
STACKED = np.stack(BLOCKS)

# The remote fan-out fixture: 64 rows at S = 4 shards on 4 nodes, 16
# disjoint blocks of 4 rows (resampling factor 1), so row value ``v``
# lands in exactly one block.
NODES = 4
FAN_OUT_VALUES = np.arange(64, dtype=float).reshape(-1, 1)
FAN_OUT_PLAN = dict(block_size=4, resampling_factor=1, plan_seed=2024)


def mean_program(block):
    return float(np.mean(block))


def shuffle_sensitive_program(block):
    """Output encodes the block index; early blocks finish last."""
    time.sleep((7 - block[0, 0]) * 0.004)
    return float(block[0, 0])


def always_fails_program(block):
    raise RuntimeError("boom")


def failing_on_even_program(block):
    if int(block[0, 0]) % 2 == 0:
        raise RuntimeError
    return float(np.mean(block))


def only_three_program(block):
    if 3.0 not in block[:, 0]:
        raise RuntimeError
    return 3.0


def skewed_by_row_program(block):
    """Output is the block's first row; low rows finish last.

    Shard 0 holds the lowest rows, so its node answers after the others.
    """
    time.sleep((64 - block[0, 0]) * 0.0003)
    return float(block[0, 0])


def slow_on_two(block):
    if block[0, 0] == 2.0:
        time.sleep(0.1)
    return float(np.mean(block))


def _manager_for(backend: str) -> ComputationManager:
    return ComputationManager(
        backend=backend, nodes=2 if backend == "remote" else None
    )


def _fan_out(program, metrics=None):
    """``program`` over the fan-out fixture on ``NODES`` shard nodes."""
    with ComputationManager(
        backend="remote", nodes=NODES, metrics=metrics
    ) as manager:
        assert manager.plan_shards == NODES
        _, batch = manager.run_sharded_collected(
            program, FAN_OUT_VALUES, dataset="fan", version=1,
            output_dimension=1, fallback=np.array([-1.0]), **FAN_OUT_PLAN,
        )
    return batch


def _serial_reference(program):
    """The same S-sharded plan through the serial chambers."""
    plan = draw_sharded_plan(
        FAN_OUT_VALUES.shape[0], shards=NODES, **FAN_OUT_PLAN
    )
    return ComputationManager().run_blocks_collected(
        program, 1, np.array([-1.0]), plan.stack(FAN_OUT_VALUES)
    )


class TestRunBlocks:
    def test_one_outcome_per_block_in_order(self):
        manager = ComputationManager()
        results = manager.run_blocks_collected(mean_program, 1, np.array([0.0]), STACKED)
        assert results.outputs[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_parallel_matches_serial(self):
        expected = _serial_reference(mean_program)
        batch = _fan_out(mean_program)
        assert batch.outputs[:, 0].tolist() == expected.outputs[:, 0].tolist()

    def test_partial_failure_uses_fallback(self):
        def failing_on_even(block):
            if int(block[0, 0]) % 2 == 0:
                raise RuntimeError
            return float(np.mean(block))

        manager = ComputationManager()
        results = manager.run_blocks_collected(
            failing_on_even, 1, np.array([-1.0]), STACKED
        )
        assert results.outputs[:, 0].tolist() == [-1.0, 1.0, -1.0, 3.0, -1.0]

    def test_total_failure_raises(self):
        def always_fails(block):
            raise RuntimeError

        manager = ComputationManager()
        with pytest.raises(ComputationError):
            manager.run_blocks_collected(always_fails, 1, np.array([0.0]), STACKED)

    def test_empty_blocks_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks_collected(mean_program, 1, np.array([0.0]), [])

    def test_bad_output_dimension_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks_collected(mean_program, 0, np.array([0.0]), STACKED)

    def test_fallback_shape_mismatch_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks_collected(
                mean_program, 1, np.array([0.0, 1.0]), STACKED
            )

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ComputationManager(backend="remote", nodes=0)
        with pytest.raises(ValueError):
            ComputationManager(backend="remote", shards=0)


class TestParallelFanOut:
    """The remote fan-out over ``nodes`` shard nodes: ordering,
    failures, metrics — the same per-block contract as the chambers."""

    def test_ordering_preserved_despite_skewed_latencies(self):
        # Shard 0's node answers last, so arrival order inverts shard
        # order; the outputs must still follow the combined plan.
        expected = _serial_reference(skewed_by_row_program)
        batch = _fan_out(skewed_by_row_program)
        assert batch.outputs[:, 0].tolist() == expected.outputs[:, 0].tolist()

    def test_partial_failures_counted_and_substituted(self):
        expected = _serial_reference(failing_on_even_program)
        failed = int((~expected.succeeded).sum())
        assert 0 < failed < expected.num_blocks
        metrics = MetricsRegistry()
        batch = _fan_out(failing_on_even_program, metrics=metrics)
        assert batch.outputs[:, 0].tolist() == expected.outputs[:, 0].tolist()
        assert batch.succeeded.tolist() == expected.succeeded.tolist()
        assert metrics.counter("blocks.executed").value == expected.num_blocks
        assert metrics.counter("blocks.success").value == expected.num_blocks - failed
        assert metrics.counter("blocks.fallback").value == failed
        assert metrics.gauge("blocks.pool_width").value == NODES

    def test_raises_only_when_every_block_fails(self):
        with pytest.raises(ComputationError):
            _fan_out(always_fails_program)
        batch = _fan_out(only_three_program)
        assert int(batch.succeeded.sum()) == 1

    def test_per_block_latency_recorded_for_every_block(self):
        metrics = MetricsRegistry()
        batch = _fan_out(mean_program, metrics=metrics)
        summary = metrics.histogram("blocks.latency_seconds").summary()
        assert summary["count"] == batch.num_blocks == 16
        assert summary["min"] >= 0.0


class TestBackendSelection:
    """Backend resolution and per-backend result-ordering guarantees."""

    def test_default_backend_is_serial(self):
        assert ComputationManager().backend == "serial"
        with pytest.raises(ValueError):
            ComputationManager(nodes=4)
        with ComputationManager(backend="remote", nodes=2) as manager:
            assert manager.backend == "remote"
            assert manager.sharded_backend is not None
        for retired in ("pool", "thread", "warp"):
            with pytest.raises(ValueError):
                ComputationManager(backend=retired)

    @pytest.mark.parametrize("backend", [None, "serial", "vectorized"])
    @pytest.mark.parametrize("node_kwargs", [
        {"nodes": 3},
        {"nodes": ["127.0.0.1:1"]},
        {"node_secret": "s"},
        {"nodes": 3, "node_secret": "s"},
    ])
    def test_node_options_need_the_remote_backend(self, backend, node_kwargs):
        """Node options off ``remote`` are refused, not silently ignored."""
        with pytest.raises(ValueError):
            ComputationManager(backend=backend, **node_kwargs)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_result_ordering_is_block_order(self, backend):
        # Per-block outputs encode the block index while completion
        # order is inverted; every backend must return submission order.
        blocks = np.stack([np.full((4, 1), float(i)) for i in range(8)])
        with _manager_for(backend) as manager:
            results = manager.run_blocks_collected(
                shuffle_sensitive_program, 1, np.array([-1.0]), blocks
            )
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(8)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_blocks_failed_raises_on_every_backend(self, backend):
        with _manager_for(backend) as manager:
            with pytest.raises(ComputationError):
                manager.run_blocks_collected(
                    always_fails_program, 1, np.array([0.0]), STACKED
                )


@pytest.mark.parametrize("backend", BACKENDS)
def test_chamber_timing_is_enforced_on_every_backend(backend):
    # The chamber is the manager's only timing source: whatever runs
    # the blocks must kill the over-budget block and substitute the
    # fallback.
    timing = TimingDefense(cycle_budget=0.05, pad=False)
    metrics = MetricsRegistry()
    with ComputationManager(
        chamber=InProcessChamber(timing=timing), backend=backend, metrics=metrics
    ) as manager:
        results = manager.run_blocks_collected(
            slow_on_two, 1, np.array([-1.0]), STACKED[:4]
        )
    assert results.succeeded.tolist() == [True, True, False, True]
    assert metrics.counter("blocks.killed").value == 1
    assert results.outputs[:, 0].tolist() == [0.0, 1.0, -1.0, 3.0]


class TestPoolWidth:
    """``blocks.pool_width`` reports the fan-out that actually ran."""

    @staticmethod
    def _run_blocks(metrics, backend, program):
        with ComputationManager(backend=backend, metrics=metrics) as manager:
            manager.run_blocks_collected(program, 1, np.array([0.0]), STACKED)

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("serial", 1),
            ("vectorized", 1),
            ("vectorized-degrade", 1),
            ("remote", 2),
        ],
    )
    def test_gauge_is_the_fan_out_of_each_path(self, path, expected):
        from repro.accounting.manager import DatasetManager
        from repro.core.gupt import GuptRuntime
        from repro.core.range_estimation import TightRange
        from repro.datasets.table import DataTable
        from repro.estimators.statistics import Mean

        metrics = MetricsRegistry()
        if path == "serial":
            self._run_blocks(metrics, "serial", mean_program)
        elif path.startswith("vectorized"):
            program = Mean() if path == "vectorized" else mean_program
            self._run_blocks(metrics, "vectorized", program)
        else:
            datasets = DatasetManager()
            datasets.register(
                "data",
                DataTable(np.linspace(0.0, 100.0, 400).reshape(-1, 1)),
                total_budget=1.0,
            )
            computation = ComputationManager(
                backend="remote", nodes=2, shards=4, metrics=metrics,
            )
            with GuptRuntime(
                datasets, computation_manager=computation, rng=1, metrics=metrics
            ) as runtime:
                runtime.run("data", Mean(), TightRange((0.0, 100.0)), epsilon=0.5)
            computation.close()
        # Each case really took the path it names.
        ran = {
            "vectorized": ("vectorized.batches", {}),
            "vectorized-degrade": (
                "vectorized.fallbacks", {"reason": "no_batch_form"}
            ),
            "remote": ("remote.queries", {}),
        }
        if path in ran:
            name, labels = ran[path]
            assert metrics.counter(name, **labels).value == 1
        assert metrics.gauge("blocks.pool_width").value == expected
