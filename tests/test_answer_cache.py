"""The noisy-answer cache: zero-ε replay of already-published releases.

A differentially private release is just bits once published —
post-processing is free — so answering the *identical* seeded query
again by replaying the stored release costs no additional budget.
These tests pin the three load-bearing properties:

1. **Bit-identity**: a cache hit returns exactly the original release
   (value and all metadata), and a runtime with the cache disabled
   produces the same bits — the cache check consumes no generator
   draws.
2. **Zero marginal ε, on the books**: a hit opens no reservation,
   leaves ``budget.spent`` untouched, and records an explicit 0.0
   replay entry in the ledger and a ``replay`` frame in the durable
   journal, so the audit trail shows the replay happened.
3. **Safety valves**: dataset re-registration evicts the answer cache
   *and* the block-plan cache together, and anything that would make
   replay unsound (no caller seed, estimated budgets, unpicklable
   programs) bypasses the cache entirely.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.accounting.journal import REPLAY, journal_path, scan
from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean, Median
from repro.observability import MetricsRegistry
from repro.optimizer.answer_cache import build_answer_key
from repro.runtime.computation_manager import ComputationManager

SEED = 424242
QUERY_SEED = 7
EPSILON = 0.5
BLOCK_SIZE = 50
NUM_RECORDS = 1_000


def _values(num_records: int = NUM_RECORDS) -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(num_records, 1))


def _manager(metrics=None, state_dir=None) -> DatasetManager:
    manager = DatasetManager(metrics=metrics, state_dir=state_dir)
    manager.register(
        "data", DataTable(_values(), input_ranges=[(0.0, 100.0)]),
        total_budget=100.0,
    )
    return manager


def _run(runtime, *, program=None, rng=QUERY_SEED, epsilon=EPSILON):
    return runtime.run(
        "data",
        program if program is not None else Mean(),
        TightRange((0.0, 100.0)),
        epsilon=epsilon,
        block_size=BLOCK_SIZE,
        rng=rng,
    )


class TestReplayBitIdentity:
    def test_hit_replays_identical_bits(self):
        manager = _manager()
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            first = _run(runtime)
            second = _run(runtime)
        assert not first.cached
        assert second.cached
        np.testing.assert_array_equal(first.value, second.value)
        assert first.epsilon_total == second.epsilon_total
        assert first.num_blocks == second.num_blocks
        assert first.output_ranges == second.output_ranges
        np.testing.assert_array_equal(first.noise_scales, second.noise_scales)

    def test_hit_executes_no_blocks(self):
        registry = MetricsRegistry()
        with GuptRuntime(
            _manager(),
            ComputationManager(backend="vectorized", metrics=registry),
            rng=SEED,
            metrics=registry,
            answer_cache_size=16,
        ) as runtime:
            first = _run(runtime)
            counters = registry.snapshot()["counters"]
            executed, batches = counters["blocks.executed"], counters["vectorized.batches"]
            second = _run(runtime)
            counters = registry.snapshot()["counters"]
        assert executed > 0 and batches == 1
        assert second.cached
        np.testing.assert_array_equal(first.value, second.value)
        assert counters["blocks.executed"] == executed
        assert counters["vectorized.batches"] == batches

    def test_cache_check_consumes_no_draws(self):
        # The enabled-but-missing and disabled paths must release the
        # same bits: the cache probe happens before any generator use.
        with GuptRuntime(_manager(), rng=SEED, answer_cache_size=16) as cached:
            with_cache = _run(cached)
        with GuptRuntime(_manager(), rng=SEED) as plain:
            without_cache = _run(plain)
        np.testing.assert_array_equal(with_cache.value, without_cache.value)

    def test_replayed_value_is_read_only(self):
        with GuptRuntime(_manager(), rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime)
            replayed = _run(runtime)
            with pytest.raises(ValueError):
                replayed.value[0] = 0.0
            # A poisoning attempt must not corrupt later hits.
            again = _run(runtime)
        np.testing.assert_array_equal(again.value, replayed.value)


class TestZeroEpsilonAccounting:
    def test_hit_charges_nothing(self):
        manager = _manager()
        registered = manager.get("data")
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime)
            spent_after_first = registered.budget.spent
            _run(runtime)
            assert registered.budget.spent == spent_after_first

    def test_hit_records_zero_epsilon_ledger_entry(self):
        manager = _manager()
        registered = manager.get("data")
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime)
            _run(runtime)
        entries = list(registered.ledger)
        assert len(entries) == 2
        assert entries[-1].epsilon == 0.0
        # Ledger-sum-equals-budget-spent invariant survives the replay.
        assert sum(e.epsilon for e in entries) == registered.budget.spent

    def test_hit_writes_replay_journal_frame_and_no_reservation(self, tmp_path):
        state_dir = str(tmp_path)
        manager = _manager(state_dir=state_dir)
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime)
            frames_before = scan(journal_path(state_dir)).records
            _run(runtime)
            frames_after = scan(journal_path(state_dir)).records
        manager.close()
        new_frames = frames_after[len(frames_before):]
        assert [f["kind"] for f in new_frames] == [REPLAY]
        # Zero-ε frames omit the epsilon field entirely on the wire.
        assert new_frames[0].get("epsilon", 0.0) == 0.0
        assert new_frames[0]["dataset"] == "data"


class TestInvalidation:
    def test_reregistration_evicts_answer_and_plan_cache(self):
        manager = _manager()
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            original = _run(runtime)
            assert len(runtime.answer_cache) == 1
            assert len(runtime.plan_cache) >= 1
            manager.unregister("data")
            assert len(runtime.answer_cache) == 0
            assert len(runtime.plan_cache) == 0
            manager.register(
                "data",
                DataTable(_values() + 1.0, input_ranges=[(0.0, 101.0)]),
                total_budget=100.0,
            )
            fresh = _run(runtime)
        # A version bump means the old release must not be replayed.
        assert not fresh.cached
        assert not np.array_equal(fresh.value, original.value)

    def test_version_is_part_of_the_key(self):
        manager = _manager()
        registered = manager.get("data")
        key_v1 = build_answer_key(
            dataset="data", version=registered.version, program=Mean(),
            range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
            output_dimension=1, block_size=BLOCK_SIZE, resampling_factor=1,
            group_by=None, seed=QUERY_SEED, shards=1,
        )
        key_v2 = build_answer_key(
            dataset="data", version=registered.version + 1, program=Mean(),
            range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
            output_dimension=1, block_size=BLOCK_SIZE, resampling_factor=1,
            group_by=None, seed=QUERY_SEED, shards=1,
        )
        assert key_v1 != key_v2


class TestCacheBypass:
    def test_unseeded_query_bypasses(self):
        with GuptRuntime(_manager(), rng=SEED, answer_cache_size=16) as runtime:
            first = _run(runtime, rng=None)
            second = _run(runtime, rng=None)
        assert not first.cached and not second.cached
        assert len(runtime.answer_cache) == 0
        # Unseeded releases draw fresh noise — they must differ.
        assert not np.array_equal(first.value, second.value)

    def test_different_seed_misses(self):
        with GuptRuntime(_manager(), rng=SEED, answer_cache_size=16) as runtime:
            first = _run(runtime, rng=QUERY_SEED)
            second = _run(runtime, rng=QUERY_SEED + 1)
        assert not second.cached
        assert not np.array_equal(first.value, second.value)

    def test_different_program_misses(self):
        with GuptRuntime(_manager(), rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime, program=Mean())
            other = _run(runtime, program=Median())
        assert not other.cached

    def test_different_epsilon_misses(self):
        manager = _manager()
        registered = manager.get("data")
        with GuptRuntime(manager, rng=SEED, answer_cache_size=16) as runtime:
            _run(runtime, epsilon=EPSILON)
            other = _run(runtime, epsilon=EPSILON * 2)
        assert not other.cached
        assert registered.budget.spent == pytest.approx(EPSILON * 3)

    def test_unfingerprintable_program_is_uncacheable(self):
        # A closure over live, unpicklable state (a lock) has no stable
        # content identity; such programs must bypass the cache.
        lock = threading.Lock()

        def program(block, _lock=lock):
            return 0.0

        key = build_answer_key(
            dataset="data", version=1, program=program,
            range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
            output_dimension=1, block_size=BLOCK_SIZE, resampling_factor=1,
            group_by=None, seed=QUERY_SEED, shards=1,
        )
        assert key is None

    def test_redefined_function_body_misses(self):
        # pickle would serialize both of these by reference (identical
        # module + qualname) and replay the stale release; the content
        # digest must see the changed bytecode.  This is the notebook /
        # edited-module / long-lived-runtime scenario.
        def make(body: str):
            namespace = {"np": np}
            exec(
                f"def prog(block):\n    return {body}\n", namespace
            )
            fn = namespace["prog"]
            fn.__module__ = "analyst_notebook"
            return fn

        def key_for(program):
            return build_answer_key(
                dataset="data", version=1, program=program,
                range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
                output_dimension=1, block_size=BLOCK_SIZE,
                resampling_factor=1, group_by=None, seed=QUERY_SEED,
                shards=1,
            )

        mean_a = key_for(make("float(np.mean(block))"))
        mean_b = key_for(make("float(np.mean(block))"))
        maximum = key_for(make("float(np.max(block))"))
        assert mean_a is not None
        # Same logic → same identity (the cache still works) …
        assert mean_a == mean_b
        # … different body under the same name → different identity.
        assert mean_a != maximum

    def test_closure_value_is_part_of_identity(self):
        def make(offset: float):
            def prog(block):
                return float(np.mean(block)) + offset
            return prog

        def key_for(program):
            return build_answer_key(
                dataset="data", version=1, program=program,
                range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
                output_dimension=1, block_size=BLOCK_SIZE,
                resampling_factor=1, group_by=None, seed=QUERY_SEED,
                shards=1,
            )

        assert key_for(make(1.0)) == key_for(make(1.0))
        assert key_for(make(1.0)) != key_for(make(2.0))

    def test_referenced_global_value_is_part_of_identity(self):
        # Same bytecode, but the module global the code reads differs:
        # executing the two programs produces different outputs, so
        # their identities must differ too.
        def make(scale: float):
            namespace = {"np": np, "SCALE": scale}
            exec(
                "def prog(block):\n"
                "    return float(np.mean(block)) * SCALE\n",
                namespace,
            )
            return namespace["prog"]

        def key_for(program):
            return build_answer_key(
                dataset="data", version=1, program=program,
                range_strategy=TightRange((0.0, 100.0)), epsilon=EPSILON,
                output_dimension=1, block_size=BLOCK_SIZE,
                resampling_factor=1, group_by=None, seed=QUERY_SEED,
                shards=1,
            )

        assert key_for(make(1.0)) == key_for(make(1.0))
        assert key_for(make(1.0)) != key_for(make(3.0))

    def test_disabled_by_default(self):
        with GuptRuntime(_manager(), rng=SEED) as runtime:
            assert runtime.answer_cache is None
            first = _run(runtime)
            second = _run(runtime)
        assert not second.cached
        # Identical seeded query without the cache re-releases the same
        # bits by the one-draw protocol — but pays again.
        np.testing.assert_array_equal(first.value, second.value)


class TestLruAndMetrics:
    def test_lru_eviction(self):
        registry = MetricsRegistry()
        with GuptRuntime(
            _manager(), rng=SEED, metrics=registry, answer_cache_size=2
        ) as runtime:
            cache = runtime.answer_cache
            _run(runtime, rng=1)
            _run(runtime, rng=2)
            _run(runtime, rng=1)      # refresh 1 in LRU order
            _run(runtime, rng=3)      # evicts 2
            assert len(cache) == 2
            assert _run(runtime, rng=1).cached
            assert not _run(runtime, rng=2).cached
        counters = registry.snapshot()["counters"]
        assert counters["optimizer.cache_evictions"] >= 1.0

    def test_hit_miss_counters(self):
        registry = MetricsRegistry()
        manager = _manager(metrics=registry)
        with GuptRuntime(
            manager, rng=SEED, metrics=registry, answer_cache_size=16
        ) as runtime:
            _run(runtime)
            _run(runtime)
        counters = registry.snapshot()["counters"]
        assert counters['optimizer.cache_misses{dataset="data"}'] == 1.0
        assert counters['optimizer.cache_hits{dataset="data"}'] == 1.0
        assert counters['optimizer.replays{dataset="data"}'] == 1.0
        assert counters['budget.replays{dataset="data"}'] == 1.0
