"""Cross-query optimization must never change the released bits.

Two matrices pin the tentpole invariant of :mod:`repro.optimizer`:

* **Answer cache × backend**: for every execution backend, a seeded
  query releases bit-identical values with the cache disabled, on a
  cold cache (miss + store) and on a warm cache (replay) — the cache
  probe consumes no generator draws, and a replay is the stored bits.
* **Batch fusion × scheduling**: coalescing adjacent same-plan queries
  into one stacked dispatch is pure scheduling; fused and unfused
  services release identical bits for identical seeded requests.

Plus the scheduler-level mechanics underneath fusion: adjacency-only
coalescing, the per-dataset slot held across the whole batch, and the
fusion-disabled default.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.optimizer.fusion import default_fusion_key
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.service import (
    ANALYST,
    OWNER,
    GuptService,
    QueryRequest,
    QueryResponse,
)

SEED = 424242
QUERY_SEED = 7
EPSILON = 0.5
BLOCK_SIZE = 50
NUM_RECORDS = 1_000

BACKENDS = [None, "thread", "pool", "vectorized", "remote"]


def _values() -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(NUM_RECORDS, 1))


def _release(runtime) -> tuple:
    result = runtime.run(
        "data",
        Mean(),
        TightRange((0.0, 100.0)),
        epsilon=EPSILON,
        block_size=BLOCK_SIZE,
        rng=QUERY_SEED,
    )
    return tuple(float(v) for v in result.value), result.cached


def _runtime(backend, answer_cache_size=None) -> GuptRuntime:
    manager = DatasetManager()
    manager.register(
        "data", DataTable(_values(), input_ranges=[(0.0, 100.0)]),
        total_budget=100.0,
    )
    return GuptRuntime(
        manager, rng=SEED, backend=backend, workers=2, shards=2,
        answer_cache_size=answer_cache_size,
    )


class TestAnswerCacheMatrix:
    @pytest.mark.parametrize(
        "backend", BACKENDS, ids=[b or "serial" for b in BACKENDS]
    )
    def test_disabled_cold_warm_release_identical_bits(self, backend):
        with _runtime(backend) as plain:
            disabled, _ = _release(plain)
        with _runtime(backend, answer_cache_size=16) as cached:
            cold, cold_hit = _release(cached)
            warm, warm_hit = _release(cached)
        assert not cold_hit and warm_hit
        assert disabled == cold == warm

    def test_backends_agree_with_each_other(self):
        releases = set()
        for backend in BACKENDS:
            with _runtime(backend, answer_cache_size=16) as runtime:
                releases.add(_release(runtime)[0])
        assert len(releases) == 1


#: Set by ``slow_mean`` on its first block: the event-based signal that
#: the scheduler's single worker has actually taken the blocker query
#: (replacing a poll-and-sleep loop on the scheduler state — see the
#: DESIGN.md testing section).
BLOCKER_STARTED = threading.Event()


def slow_mean(block: np.ndarray) -> float:
    BLOCKER_STARTED.set()
    time.sleep(0.005)
    return float(np.mean(block))


class TestServiceFusionMatrix:
    def _drive(self, fusion_limit):
        """Three seeded same-plan queries behind a slow blocker; returns
        (values, metrics snapshot)."""
        service = GuptService(
            rng=7, scheduler_workers=1, fusion_limit=fusion_limit,
            metrics=MetricsRegistry(),
        )
        try:
            owner = service.enroll(OWNER).token
            analyst = service.enroll(ANALYST).token
            service.register_dataset(
                owner, "data",
                DataTable(_values(), input_ranges=[(0.0, 100.0)]),
                100.0,
            )
            service.register_dataset(
                owner, "blocker",
                DataTable(_values(), input_ranges=[(0.0, 100.0)]),
                100.0,
            )
            BLOCKER_STARTED.clear()
            blocker = service.submit(analyst, QueryRequest(
                dataset="blocker", program=slow_mean,
                range_strategy=TightRange((0.0, 100.0)),
                epsilon=EPSILON, output_dimension=1, block_size=BLOCK_SIZE,
            ))
            # Wait until the single worker has actually taken the
            # blocker (its program signals from inside the first block),
            # so the seeded queries below all queue up behind it —
            # adjacent in the dataset FIFO, which is what fusion
            # coalesces.
            assert BLOCKER_STARTED.wait(5.0), "blocker never started running"
            handles = [
                service.submit(analyst, QueryRequest(
                    dataset="data", program=Mean(),
                    range_strategy=TightRange((0.0, 100.0)),
                    epsilon=EPSILON, block_size=BLOCK_SIZE,
                    seed=QUERY_SEED + i,
                ))
                for i in range(3)
            ]
            responses = [service.result(handle) for handle in handles]
            assert service.result(blocker).ok
            assert all(r.ok for r in responses), responses
            values = [r.value for r in responses]
            counters = service.metrics_snapshot()["counters"]
            return values, counters
        finally:
            service.close()

    def test_fused_matches_unfused_bit_for_bit(self):
        fused_values, fused_counters = self._drive(fusion_limit=4)
        unfused_values, unfused_counters = self._drive(fusion_limit=None)
        assert fused_values == unfused_values
        assert fused_counters["optimizer.fused_batches"] >= 1.0
        assert fused_counters["optimizer.fused_queries"] >= 2.0
        assert "optimizer.fused_batches" not in unfused_counters

    def test_fusion_key_requires_seed_and_simple_plan(self):
        seeded = SimpleNamespace(
            dataset="d", block_size=50, resampling_factor=1,
            group_by=None, seed=3,
        )
        assert default_fusion_key(seeded) == ("d", 50, 1)
        unseeded = SimpleNamespace(
            dataset="d", block_size=50, resampling_factor=1,
            group_by=None, seed=None,
        )
        assert default_fusion_key(unseeded) is None
        grouped = SimpleNamespace(
            dataset="d", block_size=50, resampling_factor=1,
            group_by="region", seed=3,
        )
        assert default_fusion_key(grouped) is None


class TestSchedulerFusionMechanics:
    def _scheduler(self, registry, fusion_key, fusion_limit=4):
        return QueryScheduler(
            workers=1, metrics=registry,
            fusion_key=fusion_key, fusion_limit=fusion_limit,
        )

    def test_adjacent_same_key_queries_fuse(self):
        registry = MetricsRegistry()
        gate = threading.Event()
        running = threading.Event()
        dispatched = []

        def runner(request):
            if request.dataset == "blocker":
                running.set()
                gate.wait(5.0)
            dispatched.append((request.dataset, request.tag))
            return QueryResponse(ok=True, value=(1.0,), epsilon_charged=0.0)

        def key(request):
            return (request.dataset,) if request.dataset == "d" else None

        with self._scheduler(registry, key, fusion_limit=3) as scheduler:
            blocker = scheduler.submit(
                runner, SimpleNamespace(dataset="blocker", tag=0)
            )
            assert running.wait(5.0)
            handles = [
                scheduler.submit(runner, SimpleNamespace(dataset="d", tag=i))
                for i in range(1, 5)
            ]
            gate.set()
            assert scheduler.result(blocker).ok
            assert all(scheduler.result(h).ok for h in handles)

        # FIFO order survives fusion.
        assert [tag for _, tag in dispatched if _ == "d"] == [1, 2, 3, 4]
        counters = registry.snapshot()["counters"]
        # limit 3: leader + two followers fuse; the fourth runs alone.
        assert counters["optimizer.fused_batches"] == 1.0
        assert counters["optimizer.fused_queries"] == 2.0

    def test_non_matching_keys_do_not_fuse(self):
        registry = MetricsRegistry()
        gate = threading.Event()
        running = threading.Event()

        def runner(request):
            if request.dataset == "blocker":
                running.set()
                gate.wait(5.0)
            return QueryResponse(ok=True, value=(1.0,), epsilon_charged=0.0)

        def key(request):
            return (request.dataset, request.tag)  # all distinct

        with self._scheduler(registry, key) as scheduler:
            blocker = scheduler.submit(
                runner, SimpleNamespace(dataset="blocker", tag=0)
            )
            assert running.wait(5.0)
            handles = [
                scheduler.submit(runner, SimpleNamespace(dataset="d", tag=i))
                for i in range(1, 4)
            ]
            gate.set()
            assert scheduler.result(blocker).ok
            assert all(scheduler.result(h).ok for h in handles)
        counters = registry.snapshot()["counters"]
        assert counters["optimizer.fused_batches"] == 0.0

    def test_fusion_disabled_by_default(self):
        registry = MetricsRegistry()
        with QueryScheduler(workers=1, metrics=registry) as scheduler:
            handle = scheduler.submit(
                lambda request: QueryResponse(
                    ok=True, value=(1.0,), epsilon_charged=0.0
                ),
                SimpleNamespace(dataset="d"),
            )
            assert scheduler.result(handle).ok
        assert "optimizer.fused_batches" not in registry.snapshot()["counters"]

    def test_fusion_limit_validated(self):
        with pytest.raises(Exception):
            QueryScheduler(
                workers=1, metrics=MetricsRegistry(),
                fusion_key=lambda request: ("k",), fusion_limit=0,
            )
