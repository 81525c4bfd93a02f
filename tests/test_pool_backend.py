"""The persistent worker-pool backend: correctness, healing, telemetry.

Programs used with the pool live at module level so pickle can ship
them by reference; closures exercise the unpicklable fallback path.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import BACKENDS, ComputationManager
from repro.runtime.pool import PoolChamberBackend
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest
from repro.runtime.timing import TimingDefense

BLOCKS = [np.full((10, 1), float(i)) for i in range(12)]
FALLBACK = np.array([-1.0])


def mean_program(block):
    return float(np.mean(block))


def skewed_program(block):
    # Early blocks sleep longest so completion order inverts block order.
    time.sleep((11 - block[0, 0]) * 0.003)
    return float(block[0, 0])


def hang_on_two(block):
    if block[0, 0] == 2.0:
        time.sleep(30.0)
    return float(np.mean(block))


def die_on_one(block):
    if block[0, 0] == 1.0:
        os._exit(3)
    return float(np.mean(block))


def slow_on_two(block):
    if block[0, 0] == 2.0:
        time.sleep(0.1)
    return float(np.mean(block))


def mutate_on_two(block):
    if block[0, 0] == 2.0:
        block[0, 0] = 99.0
    return float(np.mean(block))


def always_fails(block):
    raise RuntimeError("boom")


@pytest.fixture
def pool_manager():
    manager = ComputationManager(backend="pool", max_workers=2)
    yield manager
    manager.close()


class TestPoolCorrectness:
    def test_matches_serial_in_order(self, pool_manager):
        serial = ComputationManager()
        a = serial.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        b = pool_manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        assert [r.output[0] for r in a] == [r.output[0] for r in b]

    def test_ordering_despite_skewed_latencies(self):
        with PoolChamberBackend(workers=2, batch_size=1) as pool:
            manager = ComputationManager(backend="pool", max_workers=2, pool=pool)
            results = manager.run_blocks(skewed_program, BLOCKS, 1, FALLBACK)
        assert [r.output[0] for r in results] == [float(i) for i in range(12)]

    def test_shm_and_pickle_paths_agree(self):
        big = [np.full((1000, 2), float(i)) for i in range(6)]  # > threshold
        shm = ComputationManager(backend="pool", max_workers=2)
        tiny_threshold = PoolChamberBackend(workers=2, shm_threshold_bytes=1)
        forced_pickle = ComputationManager(
            backend="pool",
            max_workers=2,
            pool=PoolChamberBackend(workers=2, shm_threshold_bytes=10**12),
        )
        try:
            a = shm.run_blocks(mean_program, big, 1, FALLBACK)
            b = forced_pickle.run_blocks(mean_program, big, 1, FALLBACK)
            c = tiny_threshold.run_blocks(mean_program, big, 1, FALLBACK)
        finally:
            shm.close()
            forced_pickle.pool.close()
            tiny_threshold.close()
        values = [[r.output[0] for r in run] for run in (a, b, c)]
        assert values[0] == values[1] == values[2]

    def test_partial_failure_substitutes_fallback(self, pool_manager):
        results = pool_manager.run_blocks(die_on_one, BLOCKS[:4], 1, FALLBACK)
        assert [r.output[0] for r in results] == [0.0, -1.0, 2.0, 3.0]
        assert not results[1].succeeded

    def test_all_failed_raises(self, pool_manager):
        with pytest.raises(ComputationError):
            pool_manager.run_blocks(always_fails, BLOCKS, 1, FALLBACK)

    def test_pool_survives_across_queries(self, pool_manager):
        first = pool_manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        second = pool_manager.run_blocks(skewed_program, BLOCKS, 1, FALLBACK)
        assert all(r.succeeded for r in first)
        assert all(r.succeeded for r in second)

    def test_blocks_are_read_only_in_workers(self):
        # In-place mutation fails that block (fallback) and cannot touch
        # the parent's arrays — the shared segment is repacked per batch.
        big = [np.full((1000, 1), float(i)) for i in range(4)]
        manager = ComputationManager(backend="pool", max_workers=1)
        try:
            results = manager.run_blocks(mutate_on_two, big, 1, FALLBACK)
        finally:
            manager.close()
        assert [r.succeeded for r in results] == [True, True, False, True]
        assert big[2][0, 0] == 2.0  # parent copy untouched


class TestPoolSelfHealing:
    def test_hung_worker_killed_and_replaced(self):
        metrics = MetricsRegistry()
        timing = TimingDefense(cycle_budget=0.2, pad=False)
        with PoolChamberBackend(
            workers=2, timing=timing, batch_size=2, metrics=metrics
        ) as pool:
            manager = ComputationManager(
                chamber=InProcessChamber(timing=timing), backend="pool",
                max_workers=2, metrics=metrics, pool=pool,
            )
            results = manager.run_blocks(hang_on_two, BLOCKS[:6], 1, FALLBACK)
        assert [r.output[0] for r in results] == [0.0, 1.0, -1.0, 3.0, 4.0, 5.0]
        assert results[2].killed
        assert metrics.counter("pool.worker_restarts").value >= 1
        assert metrics.counter("chamber.kills").value >= 1

    def test_crashed_worker_replaced_without_kill_semantics(self):
        metrics = MetricsRegistry()
        with PoolChamberBackend(workers=2, batch_size=2, metrics=metrics) as pool:
            manager = ComputationManager(
                backend="pool", max_workers=2, metrics=metrics, pool=pool
            )
            results = manager.run_blocks(die_on_one, BLOCKS[:6], 1, FALLBACK)
        assert [r.output[0] for r in results] == [0.0, -1.0, 2.0, 3.0, 4.0, 5.0]
        assert not results[1].succeeded
        assert not results[1].killed  # crash, not a budget kill
        assert metrics.counter("pool.worker_restarts").value >= 1

    def test_post_hoc_budget_kill_without_restart(self):
        # The overrun is modest: the result arrives (no parent-side
        # deadline kill) but exceeded() still marks the block killed —
        # the same rule both chambers apply.
        metrics = MetricsRegistry()
        manager = ComputationManager(
            chamber=InProcessChamber(
                timing=TimingDefense(cycle_budget=0.05, pad=False)
            ),
            backend="pool", max_workers=1, metrics=metrics,
        )
        try:
            results = manager.run_blocks(slow_on_two, BLOCKS[:6], 1, FALLBACK)
        finally:
            manager.close()
        assert results[2].killed
        assert results[2].output[0] == -1.0
        assert metrics.counter("pool.worker_restarts").value == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chamber_timing_is_enforced_on_every_backend(self, backend):
        # The chamber is the manager's only timing source: whatever runs
        # the blocks — including a pool the manager builds itself — must
        # kill the over-budget block and substitute the fallback.
        timing = TimingDefense(cycle_budget=0.05, pad=False)
        with ComputationManager(
            chamber=InProcessChamber(timing=timing), backend=backend,
            max_workers=1,
        ) as manager:
            results = manager.run_blocks(slow_on_two, BLOCKS[:4], 1, FALLBACK)
        assert [r.killed for r in results] == [False, False, True, False]
        assert [r.output[0] for r in results] == [0.0, 1.0, -1.0, 3.0]


class TestPoolFallbacks:
    def test_unpicklable_program_falls_back_to_chamber(self):
        metrics = MetricsRegistry()
        manager = ComputationManager(backend="pool", max_workers=2, metrics=metrics)
        try:
            results = manager.run_blocks(
                lambda block: float(np.mean(block)), BLOCKS, 1, FALLBACK
            )
        finally:
            manager.close()
        assert [r.output[0] for r in results] == [float(i) for i in range(12)]
        assert metrics.counter("pool.unpicklable_fallbacks").value == 1

    def test_close_is_idempotent_and_pool_restarts(self):
        manager = ComputationManager(backend="pool", max_workers=2)
        manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        manager.close()
        manager.close()
        # A closed pool transparently restarts on the next run.
        results = manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        assert all(r.succeeded for r in results)
        manager.close()

    def test_context_manager_closes(self):
        with ComputationManager(backend="pool", max_workers=2) as manager:
            manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
            pool = manager.pool
        assert pool._workers == []


class TestDeterminismUnderConcurrency:
    """Fixed seeds pin every bit of a release, whatever runs it.

    The same seeded queries through the serial chambers, the
    worker-pool backend, and the scheduler under real contention must
    produce bit-identical values — block parallelism and request
    interleaving may change wall-clock, never the released numbers.
    """

    SEEDS = [9000 + i for i in range(6)]

    @staticmethod
    def _service(backend, **kwargs):
        service = GuptService(
            metrics=MetricsRegistry(), rng=31337, backend=backend,
            workers=2, **kwargs,
        )
        owner = service.enroll(OWNER)
        analyst = service.enroll(ANALYST)
        rng = np.random.default_rng(404)
        table = DataTable(rng.uniform(0.0, 10.0, size=(96, 1)), column_names=("x",))
        service.register_dataset(owner.token, "d", table, total_budget=50.0)
        return service, analyst

    @classmethod
    def _request(cls, seed):
        return QueryRequest(
            dataset="d",
            program=mean_program,
            range_strategy=TightRange(((0.0, 10.0),)),
            epsilon=0.5,
            block_size=8,
            seed=seed,
        )

    def _run_blocking(self, backend):
        service, analyst = self._service(backend)
        try:
            values = []
            for seed in self.SEEDS:
                response = service.execute(analyst.token, self._request(seed))
                assert response.ok, response.error
                values.append(response.value)
        finally:
            service.close()
        return values

    def test_serial_pool_bit_identical(self):
        serial = self._run_blocking("serial")
        pool = self._run_blocking("pool")
        assert serial == pool  # tuple equality: bit-exact floats

    def test_scheduler_contention_bit_identical_to_serial(self):
        serial = self._run_blocking("serial")
        service, analyst = self._service(
            "pool", scheduler_workers=4, max_inflight=32, queue_depth=32,
        )
        try:
            # Reverse submission order from 31 extra contending threads'
            # worth of interleaving noise: the scheduler serializes the
            # dataset FIFO, the seeds pin the noise.
            handles = {
                seed: service.submit(analyst.token, self._request(seed))
                for seed in reversed(self.SEEDS)
            }
            scheduled = []
            for seed in self.SEEDS:
                response = service.result(handles[seed])
                assert response.ok, response.error
                scheduled.append(response.value)
        finally:
            service.close()
        assert scheduled == serial

    def test_concurrent_dispatch_into_shared_pool_is_safe(self):
        """Many threads drive one pool at once; every answer is right.

        This is the scheduler's real usage pattern: the backend's
        dispatch protocol is stateful, so concurrent ``run_blocks``
        calls serialize on the dispatch lock instead of corrupting each
        other's program broadcasts and batch bookkeeping.
        """
        manager = ComputationManager(backend="pool", max_workers=2)
        expected = [float(i) for i in range(12)]
        failures = []
        barrier = threading.Barrier(6)

        def drive(slot):
            barrier.wait()
            for _ in range(3):
                results = manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
                values = [r.output[0] for r in results]
                if values != expected:
                    failures.append((slot, values))

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            manager.close()
        assert failures == []


class TestPoolTelemetry:
    def test_pool_metrics_populated(self):
        metrics = MetricsRegistry()
        with PoolChamberBackend(workers=2, batch_size=3, metrics=metrics) as pool:
            manager = ComputationManager(
                backend="pool", max_workers=2, metrics=metrics, pool=pool
            )
            manager.run_blocks(mean_program, BLOCKS, 1, FALLBACK)
        snapshot = metrics.snapshot()
        assert snapshot["gauges"]["pool.workers"] == 2
        assert snapshot["gauges"]["pool.batch_size"] == 3
        assert "pool.worker_restarts" in snapshot["counters"]
        assert snapshot["histograms"]["pool.dispatch_seconds"]["count"] >= 4
        assert snapshot["histograms"]["blocks.latency_seconds"]["count"] == len(BLOCKS)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            ComputationManager(backend="warp")
        with pytest.raises(ValueError):
            ComputationManager(
                chamber=InProcessChamber(timing=TimingDefense(cycle_budget=0.05)),
                backend="pool",
                pool=PoolChamberBackend(workers=1),
            )
        with pytest.raises(ValueError):
            PoolChamberBackend(workers=0)
        with pytest.raises(ValueError):
            PoolChamberBackend(batch_size=0)
