"""Unit tests for the computation manager."""

import time

import numpy as np
import pytest

from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.pool import PoolChamberBackend

BLOCKS = [np.full((10, 1), float(i)) for i in range(5)]


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
    if int(block[0, 0]) != 3:
        raise RuntimeError
    return 3.0


def _manager_for(backend: str, **kwargs) -> ComputationManager:
    return ComputationManager(backend=backend, max_workers=2, **kwargs)


class TestRunBlocks:
    def test_one_outcome_per_block_in_order(self):
        manager = ComputationManager()
        results = manager.run_blocks(mean_program, BLOCKS, 1, np.array([0.0]))
        assert [r.output[0] for r in results] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_parallel_matches_serial(self):
        serial = ComputationManager(max_workers=1)
        a = serial.run_blocks(mean_program, BLOCKS, 1, np.array([0.0]))
        with ComputationManager(backend="pool", max_workers=4) as parallel:
            b = parallel.run_blocks(mean_program, BLOCKS, 1, np.array([0.0]))
        assert [r.output[0] for r in a] == [r.output[0] for r in b]

    def test_partial_failure_uses_fallback(self):
        def failing_on_even(block):
            if int(block[0, 0]) % 2 == 0:
                raise RuntimeError
            return float(np.mean(block))

        manager = ComputationManager()
        results = manager.run_blocks(failing_on_even, BLOCKS, 1, np.array([-1.0]))
        assert [r.output[0] for r in results] == [-1.0, 1.0, -1.0, 3.0, -1.0]

    def test_total_failure_raises(self):
        def always_fails(block):
            raise RuntimeError

        manager = ComputationManager()
        with pytest.raises(ComputationError):
            manager.run_blocks(always_fails, BLOCKS, 1, np.array([0.0]))

    def test_empty_blocks_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks(mean_program, [], 1, np.array([0.0]))

    def test_bad_output_dimension_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks(mean_program, BLOCKS, 0, np.array([0.0]))

    def test_fallback_shape_mismatch_rejected(self):
        with pytest.raises(ComputationError):
            ComputationManager().run_blocks(mean_program, BLOCKS, 1, np.array([0.0, 1.0]))

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ComputationManager(max_workers=0)


class TestParallelFanOut:
    """The pool's ``max_workers > 1`` fan-out: ordering, failures, metrics."""

    def test_ordering_preserved_despite_skewed_latencies(self):
        # Early blocks sleep longest, so completion order inverts
        # submission order; the result list must still follow block order.
        blocks = [np.full((4, 1), float(i)) for i in range(8)]
        with ComputationManager(backend="pool", max_workers=4) as manager:
            results = manager.run_blocks(
                shuffle_sensitive_program, blocks, 1, np.array([0.0])
            )
        assert [r.output[0] for r in results] == [float(i) for i in range(8)]

    def test_partial_failures_counted_and_substituted(self):
        metrics = MetricsRegistry()
        with ComputationManager(
            backend="pool", max_workers=4, metrics=metrics
        ) as manager:
            results = manager.run_blocks(
                failing_on_even_program, BLOCKS, 1, np.array([-1.0])
            )
        assert [r.output[0] for r in results] == [-1.0, 1.0, -1.0, 3.0, -1.0]
        assert sum(1 for r in results if not r.succeeded) == 3
        assert metrics.counter("blocks.executed").value == 5
        assert metrics.counter("blocks.success").value == 2
        assert metrics.counter("blocks.fallback").value == 3
        assert metrics.gauge("blocks.pool_width").value == 4

    def test_raises_only_when_every_block_fails(self):
        with ComputationManager(backend="pool", max_workers=4) as manager:
            with pytest.raises(ComputationError):
                manager.run_blocks(always_fails_program, BLOCKS, 1, np.array([0.0]))
            results = manager.run_blocks(
                only_three_program, BLOCKS, 1, np.array([0.0])
            )
        assert sum(1 for r in results if r.succeeded) == 1

    def test_per_block_latency_recorded_for_every_block(self):
        metrics = MetricsRegistry()
        with ComputationManager(
            backend="pool", max_workers=4, metrics=metrics
        ) as manager:
            manager.run_blocks(mean_program, BLOCKS, 1, np.array([0.0]))
        summary = metrics.histogram("blocks.latency_seconds").summary()
        assert summary["count"] == len(BLOCKS)
        assert summary["min"] >= 0.0


class TestBackendSelection:
    """Backend resolution and per-backend result-ordering guarantees."""

    def test_default_backend_is_serial(self):
        assert ComputationManager().backend == "serial"
        assert ComputationManager(max_workers=4).backend == "serial"
        with ComputationManager(backend="pool", max_workers=2) as manager:
            assert manager.backend == "pool"
            assert manager.pool is not None

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_result_ordering_is_block_order(self, backend):
        # Per-block outputs encode the block index while completion
        # order is inverted; every backend must return submission order.
        blocks = [np.full((4, 1), float(i)) for i in range(8)]
        with PoolChamberBackend(workers=2, batch_size=1) as pool:
            with _manager_for(backend, pool=pool) as manager:
                results = manager.run_blocks(
                    shuffle_sensitive_program, blocks, 1, np.array([-1.0])
                )
        assert [r.output[0] for r in results] == [float(i) for i in range(8)]

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_all_blocks_failed_raises_on_every_backend(self, backend):
        with _manager_for(backend) as manager:
            with pytest.raises(ComputationError):
                manager.run_blocks(always_fails_program, BLOCKS, 1, np.array([0.0]))

    @pytest.mark.parametrize("backend", ["pool"])
    def test_chunked_dispatch_matches_serial(self, backend):
        serial = ComputationManager()
        expected = serial.run_blocks(mean_program, BLOCKS, 1, np.array([0.0]))
        with PoolChamberBackend(workers=2, batch_size=2) as pool:
            with _manager_for(backend, pool=pool) as manager:
                results = manager.run_blocks(
                    mean_program, BLOCKS, 1, np.array([0.0])
                )
        assert [r.output[0] for r in results] == [r.output[0] for r in expected]


class TestPoolWidth:
    """``blocks.pool_width`` reports the fan-out that actually ran."""

    @staticmethod
    def _run_blocks(metrics, backend, program, pool=None):
        with ComputationManager(
            backend=backend, max_workers=4, metrics=metrics, pool=pool
        ) as manager:
            manager.run_blocks(program, BLOCKS, 1, np.array([0.0]))

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("serial", 1),
            ("pool", 2),
            ("pool-unpicklable", 1),
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
        elif path.startswith("pool"):
            with PoolChamberBackend(workers=2) as pool:
                program = (
                    mean_program if path == "pool"
                    else lambda block: float(np.mean(block))
                )
                self._run_blocks(metrics, "pool", program, pool=pool)
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
                backend="remote", max_workers=4, nodes=2, shards=4,
                metrics=metrics,
            )
            with GuptRuntime(
                datasets, computation_manager=computation, rng=1, metrics=metrics
            ) as runtime:
                runtime.run("data", Mean(), TightRange((0.0, 100.0)), epsilon=0.5)
            computation.close()
        # Each case really took the path it names.
        ran = {
            "pool-unpicklable": ("pool.unpicklable_fallbacks", {}),
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
