"""Unit and integration tests for the block-plan cache.

Covers the cache mechanics (LRU bounds, byte budget, invalidation), the
privacy invariant that keys are built from public parameters only, the
contract that entries hold plans and never block rows, and the two ends
of the runtime integration: releases are bit-identical with a cold
cache, a warm cache and no cache at all, and re-registering a dataset
name can never serve plans drawn against the old records.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.blocks import BlockPlan
from repro.core.gupt import GuptRuntime
from repro.core.plan_cache import BlockPlanCache, PlanKey
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager


def make_key(seed=7, dataset="d", version=1, n=100, beta=10, gamma=1):
    return PlanKey(
        dataset=dataset,
        version=version,
        num_records=n,
        block_size=beta,
        resampling_factor=gamma,
        seed=seed,
    )


def drawer(key):
    """The pure draw function the engine supplies: seed -> plan."""
    return lambda: BlockPlan.draw(
        num_records=key.num_records,
        block_size=key.block_size,
        resampling_factor=key.resampling_factor,
        rng=np.random.default_rng(key.seed),
    )


class TestCacheMechanics:
    def test_hit_returns_same_plan_and_a_fresh_writable_stack(self):
        cache = BlockPlanCache(metrics=MetricsRegistry())
        values = np.arange(100, dtype=float).reshape(-1, 1)
        key = make_key()
        plan1, stacked1 = cache.plan_and_stack(key, values, drawer(key))
        plan2, stacked2 = cache.plan_and_stack(key, values, drawer(key))
        assert plan1 is plan2
        assert stacked1.shape == (10, 10, 1)
        # Each query gets its own gather: equal rows, separate memory,
        # writable, so a query may scribble on its stack and the next
        # one never sees it.
        np.testing.assert_array_equal(stacked1, stacked2)
        assert not np.shares_memory(stacked1, stacked2)
        assert stacked1.flags.writeable and stacked2.flags.writeable
        stacked1[...] = -1.0
        _, stacked3 = cache.plan_and_stack(key, values, drawer(key))
        np.testing.assert_array_equal(stacked3, stacked2)

    def test_different_seeds_are_different_entries(self):
        cache = BlockPlanCache(metrics=MetricsRegistry())
        values = np.arange(100, dtype=float).reshape(-1, 1)
        a, b = make_key(seed=1), make_key(seed=2)
        plan_a, _ = cache.plan_and_stack(a, values, drawer(a))
        plan_b, _ = cache.plan_and_stack(b, values, drawer(b))
        assert plan_a is not plan_b
        assert len(cache) == 2

    def test_lru_entry_bound(self):
        registry = MetricsRegistry()
        cache = BlockPlanCache(max_entries=2, metrics=registry)
        values = np.arange(100, dtype=float).reshape(-1, 1)
        keys = [make_key(seed=s) for s in range(3)]
        for key in keys:
            cache.plan_and_stack(key, values, drawer(key))
        assert len(cache) == 2
        # Oldest (seed=0) was evicted; a re-lookup is a miss again.
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.evictions"] == 1
        cache.plan_and_stack(keys[0], values, drawer(keys[0]))
        assert registry.snapshot()["counters"]["plan_cache.misses"] == 4

    def test_lru_recency_updated_on_hit(self):
        cache = BlockPlanCache(max_entries=2, metrics=MetricsRegistry())
        values = np.arange(100, dtype=float).reshape(-1, 1)
        a, b, c = (make_key(seed=s) for s in range(3))
        plan_a, _ = cache.plan_and_stack(a, values, drawer(a))
        cache.plan_and_stack(b, values, drawer(b))
        cache.plan_and_stack(a, values, drawer(a))  # refresh a
        cache.plan_and_stack(c, values, drawer(c))  # evicts b, not a
        plan_a2, _ = cache.plan_and_stack(a, values, drawer(a))
        assert plan_a2 is plan_a

    def test_byte_budget_evicts(self):
        # Each plan's index matrix is ~80 KB; a 100 KB budget can hold
        # one entry at a time (never zero — the newest survives).
        cache = BlockPlanCache(max_bytes=100_000, metrics=MetricsRegistry())
        values = np.zeros((10_000, 1))
        a, b = make_key(seed=1, n=10_000, beta=100), make_key(seed=2, n=10_000, beta=100)
        cache.plan_and_stack(a, values, drawer(a))
        cache.plan_and_stack(b, values, drawer(b))
        assert len(cache) == 1
        assert cache.nbytes <= 100_000 + values.nbytes  # newest entry retained

    def test_invalidate_scopes_by_dataset_name(self):
        registry = MetricsRegistry()
        cache = BlockPlanCache(metrics=registry)
        values = np.arange(100, dtype=float).reshape(-1, 1)
        keep, drop = make_key(dataset="keep"), make_key(dataset="drop")
        cache.plan_and_stack(keep, values, drawer(keep))
        cache.plan_and_stack(drop, values, drawer(drop))
        assert cache.invalidate("drop") == 1
        assert len(cache) == 1
        assert registry.snapshot()["counters"]["plan_cache.invalidations"] == 1
        # The surviving entry still hits.
        cache.plan_and_stack(keep, values, drawer(keep))
        assert registry.snapshot()["counters"]["plan_cache.hits"] == 1

    def test_clear_empties_everything(self):
        cache = BlockPlanCache(metrics=MetricsRegistry())
        values = np.arange(100, dtype=float).reshape(-1, 1)
        key = make_key()
        cache.plan_and_stack(key, values, drawer(key))
        cache.clear()
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_entry_holds_no_rows(self):
        # An entry is the drawn plan and its index bytes: no stack is
        # kept, so the cache's bytes are the index matrix's alone.
        cache = BlockPlanCache(metrics=MetricsRegistry())
        values = np.arange(100, dtype=float).reshape(-1, 1)
        key = make_key()
        plan, stacked = cache.plan_and_stack(key, values, drawer(key))
        (entry,) = cache._entries.values()
        assert entry.plan is plan
        assert not hasattr(entry, "stacked")
        assert cache.nbytes == plan.index_matrix.nbytes
        assert not any(
            isinstance(value, np.ndarray) and np.shares_memory(value, stacked)
            for value in (getattr(entry, slot) for slot in entry.__slots__)
        )

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            BlockPlanCache(max_entries=0)
        with pytest.raises(ValueError):
            BlockPlanCache(max_bytes=0)

    def test_metrics_populated(self):
        registry = MetricsRegistry()
        cache = BlockPlanCache(metrics=registry)
        values = np.arange(100, dtype=float).reshape(-1, 1)
        key = make_key()
        cache.plan_and_stack(key, values, drawer(key))
        cache.plan_and_stack(key, values, drawer(key))
        snapshot = registry.snapshot()
        assert snapshot["counters"]["plan_cache.misses"] == 1
        assert snapshot["counters"]["plan_cache.hits"] == 1
        assert snapshot["gauges"]["plan_cache.entries"] == 1
        assert snapshot["gauges"]["plan_cache.resident_mib"] > 0.0


class TestKeyPrivacyInvariant:
    def test_key_fields_are_public_parameters_only(self):
        """The key is the whole lookup identity — and holds no data.

        Every field is either registration identity, public geometry or
        the analyst-visible seed; there is deliberately no field that
        could hold a record value, and equality/hash derive only from
        those fields (frozen dataclass), so cache behavior is a function
        of public inputs.
        """
        fields = set(PlanKey.__dataclass_fields__)
        assert fields == {
            "dataset",
            "version",
            "num_records",
            "block_size",
            "resampling_factor",
            "seed",
            # Sharded plan protocol: the logical shard count is a public
            # plan parameter (the combined plan is a pure function of
            # seed and shards) — analyst-visible execution geometry,
            # never record-derived.
            "shards",
        }

    def test_same_public_parameters_same_entry_regardless_of_values(self):
        # Two different datasets' values with identical public geometry
        # produce the same key — the cache must be keyed, and therefore
        # versioned, at registration level, never content level.
        assert make_key() == make_key()
        assert hash(make_key()) == hash(make_key())
        assert make_key(version=1) != make_key(version=2)


class TestRuntimeIntegration:
    @staticmethod
    def _runtime(values, *args, **kwargs):
        manager = DatasetManager()
        manager.register(
            "d",
            DataTable(values, column_names=("x",)),
            total_budget=100.0,
        )
        return GuptRuntime(manager, *args, **kwargs)

    @staticmethod
    def _query(runtime, seed):
        return runtime.run(
            "d",
            Mean(),
            TightRange((0.0, 10.0)),
            epsilon=0.5,
            block_size=8,
            query_name="mean",
            rng=seed,
        ).scalar()

    def test_release_independent_of_cache_state(self):
        values = np.random.default_rng(5).uniform(0.0, 10.0, size=(96, 1))
        cached = self._runtime(values, rng=0)
        uncached = self._runtime(values, rng=0, plan_cache_size=0)
        # Same per-query seed: cold-cache, warm-cache and cache-disabled
        # runs release bit-identical values.
        cold = self._query(cached, seed=42)
        warm = self._query(cached, seed=42)
        off = self._query(uncached, seed=42)
        assert cold == warm == off
        assert cached.plan_cache is not None
        assert uncached.plan_cache is None

    def test_repeated_seeded_queries_hit(self):
        registry = MetricsRegistry()
        values = np.random.default_rng(5).uniform(0.0, 10.0, size=(96, 1))
        runtime = self._runtime(values, rng=0, metrics=registry)
        for _ in range(3):
            self._query(runtime, seed=42)
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.hits"] == 2

    def test_unseeded_queries_miss(self):
        # Fresh runtime randomness -> fresh plan seed -> distinct key:
        # the cache must never collapse genuinely independent plans.
        registry = MetricsRegistry()
        values = np.random.default_rng(5).uniform(0.0, 10.0, size=(96, 1))
        runtime = self._runtime(values, rng=0, metrics=registry)
        self._query(runtime, seed=None)
        self._query(runtime, seed=None)
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 2
        assert counters.get("plan_cache.hits", 0) == 0

    def test_reregistration_invalidates(self):
        registry = MetricsRegistry()
        manager = DatasetManager()
        rng = np.random.default_rng(5)
        manager.register(
            "d", DataTable(rng.uniform(0, 10, size=(96, 1))), total_budget=100.0
        )
        runtime = GuptRuntime(manager, rng=0, metrics=registry)
        self._query(runtime, seed=42)
        assert len(runtime.plan_cache) == 1
        first_version = manager.get("d").version

        manager.unregister("d")
        assert len(runtime.plan_cache) == 0  # eager eviction via the hook
        manager.register(
            "d", DataTable(rng.uniform(0, 10, size=(96, 1))), total_budget=100.0
        )
        assert manager.get("d").version > first_version

        # Same query seed against the new registration: the versioned
        # key makes this a miss, never a stale hit.
        self._query(runtime, seed=42)
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 2
        assert counters.get("plan_cache.hits", 0) == 0

    def test_grouped_plans_bypass_the_cache(self):
        registry = MetricsRegistry()
        manager = DatasetManager()
        rng = np.random.default_rng(5)
        labels = np.repeat(np.arange(12), 8).astype(float)
        table = DataTable(
            np.column_stack([rng.uniform(0, 10, size=96), labels]),
            column_names=("x", "user"),
        )
        manager.register("d", table, total_budget=100.0)
        runtime = GuptRuntime(manager, rng=0, metrics=registry)
        runtime.run(
            "d",
            Mean(),
            TightRange((0.0, 10.0)),
            epsilon=0.5,
            group_by="user",
            rng=42,
        )
        counters = registry.snapshot()["counters"]
        assert counters.get("plan_cache.misses", 0) == 0
        assert counters.get("plan_cache.hits", 0) == 0

    def test_close_clears_cache(self):
        values = np.random.default_rng(5).uniform(0.0, 10.0, size=(96, 1))
        runtime = self._runtime(values, rng=0)
        self._query(runtime, seed=42)
        assert len(runtime.plan_cache) == 1
        runtime.close()
        assert len(runtime.plan_cache) == 0

    def test_mutating_program_cannot_poison_the_cache(self):
        # Regression: the chamber fallback once ran programs on views
        # into a stack shared through the cache, so an in-place mutation
        # survived into every later query with the same plan key.  Now
        # every query gathers its own stack: a program that reads its
        # block and then zeroes it releases the same bits on the cold
        # run, the warm-cache run and with no cache.
        class ReadThenZero:
            output_dimension = 1

            def __call__(self, block):
                out = float(np.mean(block))
                block[...] = 0.0
                return out

        values = np.random.default_rng(5).uniform(1.0, 10.0, size=(96, 1))
        cached = self._runtime(
            values, ComputationManager(backend="vectorized"), rng=0
        )
        uncached = self._runtime(
            values, ComputationManager(backend="vectorized"), rng=0,
            plan_cache_size=0,
        )

        def query(runtime):
            return runtime.run(
                "d",
                ReadThenZero(),
                TightRange((0.0, 10.0)),
                epsilon=0.5,
                block_size=8,
                rng=42,
            ).scalar()

        cold = query(cached)
        warm = query(cached)
        off = query(uncached)
        assert cold == warm == off
        # The entry is the plan alone: there are no cached rows to zero.
        assert len(cached.plan_cache) == 1
        entry = next(iter(cached.plan_cache._entries.values()))
        assert cached.plan_cache.nbytes == entry.plan.index_matrix.nbytes

    def test_distinct_seed_queries_keep_only_index_bytes(self):
        # Every query draws its own plan seed, so each one misses and
        # inserts an entry.  What the runtime keeps across 20 such
        # queries on 200k x 5 rows is bounded by the plans' index bytes
        # (16 entries of ~1.6 MB): no query's ~8 MB block stack lives on.
        values = np.random.default_rng(5).uniform(0.0, 10.0, size=(200_000, 5))
        manager = DatasetManager()
        manager.register("d", DataTable(values), total_budget=100.0)
        runtime = GuptRuntime(
            manager, ComputationManager(backend="vectorized"), rng=0
        )

        def query(seed):
            runtime.run(
                "d", Mean(), TightRange((0.0, 10.0)), epsilon=0.1, rng=seed
            )

        query(0)  # warm imports and lazily built state before tracing
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(1, 21):
                query(seed)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        cache = runtime.plan_cache
        assert len(cache) == cache.max_entries
        index_bytes = sum(
            entry.plan.index_matrix.nbytes for entry in cache._entries.values()
        )
        assert kept <= index_bytes + 2**20, (kept, index_bytes)
        assert cache.nbytes == index_bytes

    def test_close_detaches_cache_from_caller_owned_manager(self):
        manager = DatasetManager()
        values = np.arange(100, dtype=float).reshape(-1, 1)
        manager.register(
            "d", DataTable(values, column_names=("x",)), total_budget=100.0
        )
        runtime = GuptRuntime(manager, rng=0)
        cache = runtime.plan_cache
        runtime.close()
        # The caller-owned manager outlives the runtime: close() must
        # unhook the cache, or every dead runtime would stay pinned and
        # keep being invoked on each registration change.  A leaked
        # hook would evict the entry below on unregister.
        key = make_key(dataset="d")
        cache.plan_and_stack(key, values, drawer(key))
        manager.unregister("d")
        assert len(cache) == 1
