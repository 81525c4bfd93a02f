"""Tests for the vectorized block-execution fast path.

Three layers: the batch primitives (batch execution, fallback
substitution), the computation manager's backend selection with its
counted fallback hierarchy, and the end-to-end guarantees — bit-identical
releases across the full serial/vectorized/remote matrix for the
same seeded request, and release-safe telemetry.
"""

import threading

import numpy as np
import pytest

from repro.core.gupt import GuptRuntime
from repro.accounting.manager import DatasetManager
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import (
    Count,
    Mean,
    Median,
    Quantile,
    StandardDeviation,
    Variance,
)
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import BACKENDS, ComputationManager
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest
from repro.runtime.timing import TimingDefense
from repro.runtime.vectorized import (
    VectorizedProgram,
    run_batch_blocks,
    supports_batch,
)

FALLBACK = np.array([5.0])
BLOCKS = [np.full((4, 1), float(i)) for i in range(6)]


def plain_mean(block):
    return float(np.mean(block))


class TestBatchPrimitives:
    def test_supports_batch_detection(self):
        assert supports_batch(Mean())
        assert not supports_batch(plain_mean)

    def test_raising_batch_lookup_means_no_batch_form(self):
        class HostileLookup:
            @property
            def run_batch(self):
                raise RuntimeError("hostile run_batch lookup")

        assert not supports_batch(HostileLookup())

    def test_estimators_satisfy_the_protocol(self):
        for program in (Mean(), Median(), Variance(), StandardDeviation()):
            assert isinstance(program, VectorizedProgram)

    def test_run_batch_blocks_outputs(self):
        stacked = np.stack(BLOCKS)
        batch = run_batch_blocks(Mean(), stacked, 1, FALLBACK)
        assert batch.num_blocks == 6
        assert batch.outputs.shape == (6, 1)
        assert list(batch.outputs[:, 0]) == [float(i) for i in range(6)]
        assert batch.succeeded.all()

    def test_nonfinite_rows_substituted_with_fallback(self):
        class NaNBatch:
            def __call__(self, block):
                return float(np.mean(block))

            def run_batch(self, stacked):
                out = np.mean(stacked[:, :, 0], axis=1)
                out[2] = np.nan
                return out

        batch = run_batch_blocks(NaNBatch(), np.stack(BLOCKS), 1, FALLBACK)
        assert batch.outputs[2, 0] == 5.0
        assert list(batch.succeeded) == [True, True, False, True, True, True]
        assert np.isfinite(batch.outputs).all()

    def test_raising_batch_returns_none(self):
        class Broken:
            def __call__(self, block):
                return 0.0

            def run_batch(self, stacked):
                raise RuntimeError("boom")

        assert run_batch_blocks(Broken(), np.stack(BLOCKS), 1, FALLBACK) is None

    def test_wrong_shape_batch_returns_none(self):
        class WrongShape:
            def __call__(self, block):
                return 0.0

            def run_batch(self, stacked):
                return np.zeros((stacked.shape[0] + 1,))

        assert run_batch_blocks(WrongShape(), np.stack(BLOCKS), 1, FALLBACK) is None

    def test_batch_call_sees_read_only_view(self):
        # The stacked array may be a cache entry shared across queries:
        # in-place mutation must raise (degrading the batch) rather
        # than write through, on cold and warm caches alike.
        class Mutator:
            def __call__(self, block):
                return float(np.mean(block))

            def run_batch(self, stacked):
                stacked[...] = 0.0
                return np.mean(stacked[:, :, 0], axis=1)

        stacked = np.stack(BLOCKS)
        assert run_batch_blocks(Mutator(), stacked, 1, FALLBACK) is None
        assert np.array_equal(stacked, np.stack(BLOCKS))

    def test_no_state_carryover_across_queries(self):
        class Stateful:
            def __init__(self):
                self.calls = 0

            def __call__(self, block):
                return 0.0

            def run_batch(self, stacked):
                self.calls += 1
                return np.full(stacked.shape[0], float(self.calls))

        program = Stateful()
        stacked = np.stack(BLOCKS)
        first = run_batch_blocks(program, stacked, 1, FALLBACK)
        second = run_batch_blocks(program, stacked, 1, FALLBACK)
        # Each query ran against a fresh instance: counter stays at 1.
        assert list(first.outputs[:, 0]) == [1.0] * 6
        assert list(second.outputs[:, 0]) == [1.0] * 6
        assert program.calls == 0


class TestManagerBackend:
    def test_vectorized_in_backends(self):
        assert "vectorized" in BACKENDS

    def test_batch_path_taken_for_batch_programs(self):
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        results = manager.run_blocks_collected(Mean(), 1, FALLBACK, np.stack(BLOCKS))
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        counters = registry.snapshot()["counters"]
        assert counters["vectorized.batches"] == 1
        assert "blocks.executed" in counters

    def test_fallback_no_batch_form(self):
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        results = manager.run_blocks_collected(plain_mean, 1, FALLBACK, np.stack(BLOCKS))
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1
        assert counters.get("vectorized.batches", 0) == 0

    def test_fallback_timing_defense(self):
        registry = MetricsRegistry()
        manager = ComputationManager(
            chamber=InProcessChamber(timing=TimingDefense(cycle_budget=5.0)),
            backend="vectorized",
            metrics=registry,
        )
        results = manager.run_blocks_collected(Mean(), 1, FALLBACK, np.stack(BLOCKS))
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="timing_defense"}'] == 1

    def test_fallback_ragged_blocks(self):
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        ragged = BLOCKS + [np.full((3, 1), 6.0)]
        results = manager.run_blocks_collected(Mean(), 1, FALLBACK, ragged)
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(7)]
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="ragged_blocks"}'] == 1

    def test_uncopyable_batch_program_follows_the_chamber_rule(self):
        """A program neither pickle nor deepcopy can copy never runs as
        the analyst's own object: its batch form is never called, and
        the chambers fail it as on serial."""

        class LockedCounter:
            def __init__(self):
                self.lock = threading.Lock()
                self.calls = 0

            def __call__(self, block):
                self.calls += 1
                return float(self.calls)

            def run_batch(self, stacked):
                self.calls += 1
                return np.full(stacked.shape[0], float(self.calls))

        program = LockedCounter()
        errors = {}
        for backend in ("serial", "vectorized"):
            registry = MetricsRegistry()
            manager = ComputationManager(backend=backend, metrics=registry)
            with pytest.raises(ComputationError) as error:
                manager.run_blocks_collected(
                    program, 1, FALLBACK, np.stack(BLOCKS)
                )
            errors[backend] = str(error.value)
        assert errors["vectorized"] == errors["serial"]
        assert program.calls == 0
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1

    def test_fallback_batch_error(self, monkeypatch):
        class Broken:
            def __call__(self, block):
                return float(np.mean(block))

            def run_batch(self, stacked):
                raise RuntimeError("boom")

        def boom(self, stacked):
            raise RuntimeError("boom")

        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        results = manager.run_blocks_collected(Broken(), 1, FALLBACK, np.stack(BLOCKS))
        # An analyst's batch form is never called: per block answers.
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        # A built-in batch form that raises degrades to the per-block
        # __call__ path, which still answers the query.
        monkeypatch.setattr(Mean, "run_batch", boom)
        results = manager.run_blocks_collected(Mean(), 1, FALLBACK, np.stack(BLOCKS))
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1
        assert counters['vectorized.fallbacks{reason="batch_error"}'] == 1

    def test_collected_matrix_matches_execution_list(self):
        vec = ComputationManager(backend="vectorized", metrics=MetricsRegistry())
        serial = ComputationManager(backend="serial", metrics=MetricsRegistry())
        collected = vec.run_blocks_collected(Mean(), 1, FALLBACK, np.stack(BLOCKS))
        executions = serial.run_blocks_collected(Mean(), 1, FALLBACK, np.stack(BLOCKS))
        assert np.array_equal(collected.outputs, executions.outputs)
        assert collected.succeeded.all()

    def test_collected_without_blocks_list(self):
        # The fast path needs only the stacked view; no per-block list.
        manager = ComputationManager(backend="vectorized", metrics=MetricsRegistry())
        collected = manager.run_blocks_collected(
            Mean(), 1, FALLBACK, np.stack(BLOCKS)
        )
        assert list(collected.outputs[:, 0]) == [float(i) for i in range(6)]

    def test_collected_degrades_to_chambers(self):
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        collected = manager.run_blocks_collected(
            plain_mean, 1, FALLBACK, np.stack(BLOCKS)
        )
        assert list(collected.outputs[:, 0]) == [float(i) for i in range(6)]
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1

    def test_mutating_batch_degrades_to_chambers(self, monkeypatch):
        def mutating_batch(self, stacked):
            stacked *= 0.0
            return np.mean(stacked[:, :, 0], axis=1)

        monkeypatch.setattr(Mean, "run_batch", mutating_batch)
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        stacked = np.stack(BLOCKS)
        results = manager.run_blocks_collected(Mean(), 1, FALLBACK, stacked)
        # The in-place write raised against the read-only view; the
        # per-block path answered and the stacked array is untouched.
        assert results.outputs[:, 0].tolist() == [float(i) for i in range(6)]
        assert np.array_equal(stacked, np.stack(BLOCKS))
        counters = registry.snapshot()["counters"]
        assert counters['vectorized.fallbacks{reason="batch_error"}'] == 1

    def test_frozen_stacked_falls_back_with_writable_copies(self):
        # A caller may pass its own read-only stack: the chamber
        # fallback must hand programs per-block copies, so a legitimate
        # mutating program still succeeds without touching the caller's
        # rows.
        def read_then_zero(block):
            out = float(np.mean(block))
            block[...] = 0.0
            return out

        manager = ComputationManager(
            backend="vectorized", metrics=MetricsRegistry()
        )
        stacked = np.stack(BLOCKS)
        stacked.flags.writeable = False
        collected = manager.run_blocks_collected(
            read_then_zero, 1, FALLBACK, stacked
        )
        assert list(collected.outputs[:, 0]) == [float(i) for i in range(6)]
        assert collected.succeeded.all()
        assert np.array_equal(np.asarray(stacked), np.stack(BLOCKS))

    def test_empty_input_is_an_error_not_a_fallback(self):
        # Regression: no blocks at all used to count a ragged_blocks
        # degrade before the chamber path raised.
        registry = MetricsRegistry()
        manager = ComputationManager(backend="vectorized", metrics=registry)
        with pytest.raises(ComputationError):
            manager.run_blocks_collected(Mean(), 1, FALLBACK, [])
        counters = registry.snapshot()["counters"]
        assert not any(k.startswith("vectorized.fallbacks") for k in counters)

    def test_precomputed_stacked_view_used(self, monkeypatch):
        seen = []
        batch_form = Mean.run_batch

        def counting_batch(self, stacked):
            seen.append(stacked.shape)
            return batch_form(self, stacked)

        monkeypatch.setattr(Mean, "run_batch", counting_batch)
        manager = ComputationManager(backend="vectorized", metrics=MetricsRegistry())
        stacked = np.stack(BLOCKS)
        manager.run_blocks_collected(Mean(), 1, FALLBACK, stacked)
        assert seen == [(6, 4, 1)]


class TestTrustRule:
    """Only the platform's own estimators get the fused path."""

    @staticmethod
    def _run(program):
        registry = MetricsRegistry()
        manager = ComputationManager(metrics=registry)
        results = manager.run_blocks_collected(program, 1, FALLBACK, np.stack(BLOCKS))
        return results.outputs[:, 0].tolist(), registry.snapshot()["counters"]

    @staticmethod
    def _hostile_batch(self, stacked):
        return np.full(stacked.shape[0], 99.0)

    def test_subclass_runs_per_block(self):
        class Sub(Mean):
            run_batch = TestTrustRule._hostile_batch

        outputs, counters = self._run(Sub())
        assert outputs == [float(i) for i in range(6)]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1

    def test_instance_attribute_cannot_stand_in_for_the_method(self):
        program = Mean()
        object.__setattr__(program, "run_batch", lambda stacked: np.full(6, 99.0))
        outputs, counters = self._run(program)
        assert outputs == [float(i) for i in range(6)]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1

    def test_instance_state_must_be_plain_numbers(self):
        # A pickling hook that could swap the fresh instance for another
        # type, and a field that is not a plain number (an arbitrary
        # object there would see the records through its comparisons).
        swapped = Mean()
        object.__setattr__(swapped, "__reduce_ex__", lambda protocol: (Mean, ()))
        snooping = Count(threshold=0.5)
        object.__setattr__(snooping, "threshold", np.float32(0.5))
        for program in (swapped, snooping):
            _, counters = self._run(program)
            assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1

    def test_type_identity_not_equality(self):
        class AlwaysEqual(type):
            def __eq__(cls, other):
                return True

            __hash__ = type.__hash__

        class Impostor(metaclass=AlwaysEqual):
            output_dimension = 1
            run_batch = TestTrustRule._hostile_batch

            def __call__(self, block):
                return float(np.mean(block))

        assert Impostor == Mean
        outputs, counters = self._run(Impostor())
        assert outputs == [float(i) for i in range(6)]
        assert counters['vectorized.fallbacks{reason="untrusted_program"}'] == 1


class TestEstimatorBatchParity:
    """run_batch must be the exact vectorization of __call__ — bit-equal."""

    @pytest.mark.parametrize(
        "program",
        [
            Mean(),
            Median(),
            Quantile(q=0.3),
            Variance(),
            StandardDeviation(),
            Count(threshold=0.5),
            Mean(column=1),
            Count(threshold=0.2, column=1, above=False),
        ],
        ids=lambda p: f"{type(p).__name__}-col{p.column}",
    )
    def test_bitwise_parity(self, program):
        rng = np.random.default_rng(99)
        blocks = [rng.uniform(0.0, 1.0, size=(17, 3)) for _ in range(12)]
        stacked = np.stack(blocks)
        batch = program.run_batch(stacked)
        serial = np.array([program(block) for block in blocks])
        assert np.array_equal(batch, serial)  # bit-identical, not approx


class TestDeterminismMatrix:
    """The same seeded request releases identical bits on every backend."""

    SEEDS = [4200 + i for i in range(5)]

    @staticmethod
    def _service(backend):
        service = GuptService(
            metrics=MetricsRegistry(), rng=31337, backend=backend
        )
        owner = service.enroll(OWNER)
        analyst = service.enroll(ANALYST)
        rng = np.random.default_rng(404)
        table = DataTable(rng.uniform(0.0, 10.0, size=(96, 1)), column_names=("x",))
        service.register_dataset(owner.token, "d", table, total_budget=50.0)
        return service, analyst

    def _run(self, backend, program):
        service, analyst = self._service(backend)
        try:
            values = []
            for seed in self.SEEDS:
                response = service.execute(
                    analyst.token,
                    QueryRequest(
                        dataset="d",
                        program=program,
                        range_strategy=TightRange(((0.0, 10.0),)),
                        epsilon=0.5,
                        block_size=8,
                        seed=seed,
                    ),
                )
                assert response.ok, response.error
                values.append(response.value)
        finally:
            service.close()
        return values

    def test_all_backends_bit_identical(self):
        released = {b: self._run(b, Mean()) for b in BACKENDS}
        assert (
            released["serial"]
            == released["vectorized"]
            == released["remote"]
        )

    def test_matrix_holds_for_median(self):
        # Median exercises a different numpy reduction path (partition,
        # not pairwise sum).
        assert self._run("serial", Median()) == self._run("vectorized", Median())

    def test_warm_cache_repeat_is_bit_identical(self):
        service, analyst = self._service("vectorized")
        request = QueryRequest(
            dataset="d",
            program=Mean(),
            range_strategy=TightRange(((0.0, 10.0),)),
            epsilon=0.5,
            block_size=8,
            seed=777,
        )
        try:
            cold = service.execute(analyst.token, request)
            warm = service.execute(analyst.token, request)
        finally:
            service.close()
        assert cold.ok and warm.ok
        assert cold.value == warm.value


class TestVectorizedTelemetryReleaseSafety:
    # Mirrors tests/test_observability.py: every record lies in the
    # sentinel band; no release-safe metric can legitimately reach it.
    SENTINEL_LO, SENTINEL_HI = 7000.0, 7400.0

    def test_fast_path_metrics_stay_below_the_band(self):
        from tests.test_observability import numeric_leaves

        registry = MetricsRegistry()
        manager = DatasetManager(metrics=registry)
        rng = np.random.default_rng(11)
        values = rng.uniform(
            self.SENTINEL_LO + 50.0, self.SENTINEL_HI - 50.0, size=2000
        )
        manager.register(
            "census",
            DataTable(values, column_names=["v"]),
            total_budget=20.0,
        )
        runtime = GuptRuntime(
            manager,
            ComputationManager(backend="vectorized", metrics=registry),
            rng=7,
            metrics=registry,
        )
        result = runtime.run(
            "census",
            Mean(),
            TightRange((self.SENTINEL_LO, self.SENTINEL_HI)),
            epsilon=2.0,
            rng=3,
        )
        assert self.SENTINEL_LO - 60 < result.scalar() < self.SENTINEL_HI + 60
        snapshot = registry.snapshot()
        assert snapshot["counters"]["vectorized.batches"] >= 1
        assert any(k.startswith("plan_cache.") for k in snapshot["counters"])
        leaves = numeric_leaves(snapshot)
        assert leaves, "snapshot unexpectedly empty"
        assert max(abs(v) for v in leaves) < self.SENTINEL_LO / 2
