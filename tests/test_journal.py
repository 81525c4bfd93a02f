"""Unit tests for the durable privacy-budget journal.

Four concerns, one file:

1. the wire format round-trips and every torn-tail shape (truncated
   header, truncated payload, flipped byte, garbage append) is detected
   and truncated to the last intact record;
2. replay is *conservative*: a reservation with no terminal record is
   spent, a recovery barrier settles pre-crash holds even when
   reservation ids are reused, and recovered remaining budget is never
   higher than the in-memory truth was;
3. the manager/streaming integration journals every lifecycle event and
   re-registration adopts recovered spends with ``math.fsum`` parity;
4. nothing in the journal or the ``journal.*`` metrics derives from
   record values or released outputs (the sentinel-band check).
"""

import json
import math
import os
import struct
import zlib

import numpy as np
import pytest

from repro.accounting import journal as journal_module
from repro.accounting.budget import PrivacyBudget
from repro.accounting.journal import (
    COMMIT,
    CONSERVATIVE_DETAIL,
    JOURNAL_NAME,
    MAGIC,
    RECOVERY,
    REGISTER,
    REPLAY,
    RESERVE,
    RETIRE,
    ROLLBACK,
    BudgetJournal,
    compact,
    fsck,
    journal_path,
    recover,
    replay,
    scan,
)
from repro.accounting.manager import DatasetManager
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import (
    DatasetError,
    GuptError,
    JournalCorruption,
    JournalError,
    PrivacyBudgetExhausted,
)
from repro.observability import MetricsRegistry
from repro.streaming import StreamingGupt, WindowConfig
from repro.testing import failpoints

_FRAME = struct.Struct("<II")


@pytest.fixture(autouse=True)
def _clean_failpoints():
    failpoints.reset()
    yield
    failpoints.reset()


@pytest.fixture
def state_dir(tmp_path):
    return str(tmp_path)


@pytest.fixture
def path(state_dir):
    return journal_path(state_dir)


def table(n=32, lo=0.0, hi=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return DataTable(rng.uniform(lo, hi, size=(n, 1)), column_names=("x",))


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip(self, path):
        with BudgetJournal(path) as journal:
            journal.append(REGISTER, "census", epsilon=2.0)
            journal.append(RESERVE, "census", epsilon=0.25, reservation_id=0,
                           query="q1")
            journal.append(COMMIT, "census", epsilon=0.25, reservation_id=0,
                           query="q1")
        scanned = scan(path)
        assert not scanned.torn
        assert [r["kind"] for r in scanned.records] == [REGISTER, RESERVE, COMMIT]
        assert scanned.records[0] == {
            "kind": REGISTER, "dataset": "census", "epsilon": 2.0,
        }
        assert scanned.records[1]["rid"] == 0
        assert scanned.records[1]["query"] == "q1"
        assert scanned.valid_bytes == scanned.total_bytes == os.path.getsize(path)

    def test_missing_file_scans_empty(self, path):
        scanned = scan(path)
        assert scanned.records == [] and not scanned.torn

    def test_unknown_kind_rejected_at_append(self, path):
        with BudgetJournal(path) as journal:
            with pytest.raises(JournalError):
                journal.append("upsert", "census")

    def test_bad_magic_is_corruption_not_empty(self, path):
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL!" + b"x" * 32)
        with pytest.raises(JournalCorruption):
            scan(path)

    def test_reopen_appends_after_existing_records(self, path):
        with BudgetJournal(path) as journal:
            journal.append(REGISTER, "census", epsilon=2.0)
        with BudgetJournal(path) as journal:
            journal.append(COMMIT, "census", epsilon=0.5)
        scanned = scan(path)
        assert [r["kind"] for r in scanned.records] == [REGISTER, COMMIT]


class TestTornTails:
    """Every way a crash can shear the tail, detected and truncated."""

    def _intact(self, path, events=3):
        with BudgetJournal(path) as journal:
            journal.append(REGISTER, "census", epsilon=2.0)
            for i in range(events - 1):
                journal.append(COMMIT, "census", epsilon=0.25,
                               reservation_id=i, query=f"q{i}")
        return os.path.getsize(path)

    def test_torn_magic_header(self, path):
        with open(path, "wb") as handle:
            handle.write(MAGIC[:4])
        scanned = scan(path)
        assert scanned.torn and scanned.reason == "torn header"
        assert scanned.records == [] and scanned.valid_bytes == 0

    def test_torn_frame_header(self, path):
        intact = self._intact(path)
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00")
        scanned = scan(path)
        assert scanned.torn and scanned.reason == "torn frame header"
        assert scanned.valid_bytes == intact and len(scanned.records) == 3

    def test_torn_payload(self, path):
        intact = self._intact(path)
        payload = b'{"kind":"commit","dataset":"census"}'
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        scanned = scan(path)
        assert scanned.torn and scanned.reason == "torn record payload"
        assert scanned.valid_bytes == intact

    def test_flipped_byte_fails_checksum(self, path):
        self._intact(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 3)
            byte = handle.read(1)
            handle.seek(size - 3)
            handle.write(bytes([byte[0] ^ 0xFF]))
        scanned = scan(path)
        assert scanned.torn and scanned.reason == "checksum mismatch"
        assert len(scanned.records) == 2

    def test_valid_frame_invalid_json(self, path):
        intact = self._intact(path)
        payload = b"\xff\xfenot json"
        with open(path, "ab") as handle:
            handle.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        scanned = scan(path)
        assert scanned.torn and scanned.reason == "undecodable payload"
        assert scanned.valid_bytes == intact

    def test_implausible_length_stops_scan(self, path):
        intact = self._intact(path)
        with open(path, "ab") as handle:
            handle.write(_FRAME.pack(1 << 30, 0))
        scanned = scan(path)
        assert scanned.torn and "implausible" in scanned.reason
        assert scanned.valid_bytes == intact

    def test_recover_truncates_and_counts(self, path):
        intact = self._intact(path)
        with open(path, "ab") as handle:
            handle.write(b"\x99" * 11)
        registry = MetricsRegistry()
        result = recover(path, metrics=registry)
        assert result.torn and result.truncated_bytes == 11
        assert os.path.getsize(path) == intact
        assert registry.snapshot()["counters"]["journal.torn_tail_truncations"] == 1
        # Nothing before the tear was lost.
        assert result.datasets["census"].spent == pytest.approx(0.5)
        # And the file now scans clean.
        assert not scan(path).torn


# ----------------------------------------------------------------------
# Conservative replay
# ----------------------------------------------------------------------
class TestConservativeReplay:
    def test_unsettled_reservation_is_spent(self):
        result = replay([
            {"kind": REGISTER, "dataset": "d", "epsilon": 2.0},
            {"kind": RESERVE, "dataset": "d", "epsilon": 0.5, "rid": 0,
             "query": "q1"},
        ])
        state = result.datasets["d"]
        assert state.spent == 0.5 and state.conservative == 1
        assert state.committed[0].detail == CONSERVATIVE_DETAIL

    def test_rollback_returns_the_hold(self):
        result = replay([
            {"kind": REGISTER, "dataset": "d", "epsilon": 2.0},
            {"kind": RESERVE, "dataset": "d", "epsilon": 0.5, "rid": 0},
            {"kind": ROLLBACK, "dataset": "d", "epsilon": 0.5, "rid": 0},
        ])
        state = result.datasets["d"]
        assert state.spent == 0.0 and state.conservative == 0

    def test_recovery_barrier_defeats_rid_reuse(self):
        # Per-budget reservation ids restart at 0 after a crash.  Without
        # the barrier, generation 2's commit of rid 0 would settle
        # generation 1's abandoned rid-0 hold and the crash-lost epsilon
        # would be resurrected.
        result = replay([
            {"kind": REGISTER, "dataset": "d", "epsilon": 2.0},
            {"kind": RESERVE, "dataset": "d", "epsilon": 0.5, "rid": 0},
            {"kind": RECOVERY, "dataset": ""},
            {"kind": RESERVE, "dataset": "d", "epsilon": 0.25, "rid": 0},
            {"kind": COMMIT, "dataset": "d", "epsilon": 0.25, "rid": 0},
        ])
        state = result.datasets["d"]
        assert state.spent == 0.75  # 0.5 conservative + 0.25 committed
        assert state.conservative == 1

    def test_retire_is_terminal(self):
        result = replay([
            {"kind": REGISTER, "dataset": "d", "epsilon": 2.0},
            {"kind": RESERVE, "dataset": "d", "epsilon": 0.5, "rid": 0},
            {"kind": RETIRE, "dataset": "d"},
        ])
        assert "d" not in result.datasets
        assert result.retired[0].retired
        # The hold died with the dataset: no conservative spend invented.
        assert result.retired[0].conservative == 0

    def test_anomalies_flagged_not_fatal(self):
        result = replay([
            {"kind": REGISTER, "dataset": "d", "epsilon": 2.0},
            {"kind": REGISTER, "dataset": "d", "epsilon": 3.0},
            {"kind": COMMIT, "dataset": "ghost", "epsilon": 0.5},
            {"kind": ROLLBACK, "dataset": "d", "rid": 9},
        ])
        assert len(result.anomalies) == 3
        assert result.datasets["d"].total == 2.0  # first registration wins

    def test_fsum_parity_with_ledger(self):
        # 0.1 is not dyadic: naive left-to-right float addition drifts
        # from the correctly-rounded sum.  Recovered spend is defined as
        # the fsum of the individually recovered epsilons — the same
        # arithmetic the audit ledger uses — so the two agree bit-for-bit
        # even where running addition would not.
        from repro.accounting.ledger import PrivacyLedger

        epsilons = [0.1] * 10
        records = [{"kind": REGISTER, "dataset": "d", "epsilon": 2.0}]
        ledger = PrivacyLedger()
        for i, eps in enumerate(epsilons):
            records.append({"kind": RESERVE, "dataset": "d", "epsilon": eps,
                            "rid": i})
            records.append({"kind": COMMIT, "dataset": "d", "epsilon": eps,
                            "rid": i})
            ledger.record(eps, f"q{i}")
        state = replay(records).datasets["d"]
        assert state.spent == ledger.total_spent == math.fsum(epsilons)

    def test_dyadic_spends_recover_bit_exact_against_budget(self):
        # With dyadic epsilons every addition is exact, so the recovered
        # state must equal the live PrivacyBudget to the last bit.
        epsilons = [3 / 1024, 5 / 1024, 7 / 1024, 509 / 1024]
        records = [{"kind": REGISTER, "dataset": "d", "epsilon": 2.0}]
        for i, eps in enumerate(epsilons):
            records.append({"kind": RESERVE, "dataset": "d", "epsilon": eps,
                            "rid": i})
            records.append({"kind": COMMIT, "dataset": "d", "epsilon": eps,
                            "rid": i})
        state = replay(records).datasets["d"]
        budget = PrivacyBudget(2.0)
        for eps in epsilons:
            budget.charge(eps)
        assert state.spent == budget.spent
        assert state.remaining == budget.remaining


# ----------------------------------------------------------------------
# Manager integration
# ----------------------------------------------------------------------
class TestManagerJournaling:
    def test_lifecycle_event_stream(self, state_dir, path):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            registered.charge(0.25, "q1")
            reservation = registered.reserve(0.25, "q2")
            reservation.commit()
            rolled = registered.reserve(0.5, "q3")
            rolled.rollback()
            manager.unregister("census")
        kinds = [r["kind"] for r in scan(path).records]
        assert kinds == [
            REGISTER, RESERVE, COMMIT, RESERVE, COMMIT, RESERVE, ROLLBACK,
            RETIRE,
        ]

    def test_charge_is_reserve_plus_commit_on_disk(self, state_dir, path):
        with DatasetManager(state_dir=state_dir) as manager:
            manager.register("census", table(), total_budget=2.0).charge(
                0.5, "q1"
            )
        records = scan(path).records
        assert records[1]["kind"] == RESERVE and records[2]["kind"] == COMMIT
        assert records[1]["rid"] == records[2]["rid"]

    def test_recovery_matches_live_state_exactly(self, state_dir, path):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            for i in range(5):
                registered.charge(0.125, f"q{i}")
            live_spent = registered.budget.spent
            live_remaining = registered.budget.remaining
        recovered = recover(path).datasets["census"]
        assert recovered.spent == live_spent
        assert recovered.remaining == live_remaining

    def test_reregistration_adopts_recovered_spend(self, state_dir):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            registered.charge(0.25, "q1")
            registered.charge(0.5, "q2")
        with DatasetManager(state_dir=state_dir) as manager:
            assert manager.recovered_names() == ["census"]
            registered = manager.register("census", table(), total_budget=2.0)
            assert manager.recovered_names() == []
            assert registered.budget.spent == 0.75
            assert registered.budget.remaining == 1.25
            ledger = [(e.query, e.epsilon) for e in registered.ledger]
            assert ledger == [("q1", 0.25), ("q2", 0.5)]

    def test_reregistration_total_must_match(self, state_dir):
        with DatasetManager(state_dir=state_dir) as manager:
            manager.register("census", table(), total_budget=2.0)
        with DatasetManager(state_dir=state_dir) as manager:
            with pytest.raises(DatasetError):
                manager.register("census", table(), total_budget=4.0)

    def test_inflight_reservation_recovers_as_spent(self, state_dir):
        manager = DatasetManager(state_dir=state_dir)
        registered = manager.register("census", table(), total_budget=2.0)
        registered.charge(0.25, "q1")
        registered.reserve(0.5, "q2")  # never settled: crash now
        manager.journal.abandon()

        with DatasetManager(state_dir=state_dir) as successor:
            adopted = successor.register("census", table(), total_budget=2.0)
            # Conservative: the in-flight 0.5 counts as spent...
            assert adopted.budget.spent == 0.75
            # ...and the recovered remaining is never above the truth
            # (truth here: 1.25 if q2 died pre-release, 1.25 if post).
            assert adopted.budget.remaining <= 1.25
            entries = {e.query: e for e in adopted.ledger}
            assert entries["q2"].detail == CONSERVATIVE_DETAIL

    def test_restart_cycle_writes_recovery_barrier(self, state_dir, path):
        with DatasetManager(state_dir=state_dir) as manager:
            manager.register("census", table(), total_budget=2.0)
        registry = MetricsRegistry()
        with DatasetManager(metrics=registry, state_dir=state_dir):
            pass
        kinds = [r["kind"] for r in scan(path).records]
        assert kinds == [REGISTER, RECOVERY]
        assert registry.snapshot()["counters"]["journal.recoveries"] == 1

    def test_retired_dataset_can_register_fresh(self, state_dir):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            registered.charge(1.0, "q1")
            manager.unregister("census")
        with DatasetManager(state_dir=state_dir) as manager:
            assert manager.recovered_names() == []
            fresh = manager.register("census", table(), total_budget=5.0)
            assert fresh.budget.spent == 0.0

    def test_exhaustion_arithmetic_survives_restart(self, state_dir):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=1.0)
            for i in range(3):
                registered.charge(0.25, f"q{i}")
        with DatasetManager(state_dir=state_dir) as manager:
            adopted = manager.register("census", table(), total_budget=1.0)
            adopted.charge(0.25, "q3")
            with pytest.raises(PrivacyBudgetExhausted):
                adopted.charge(0.25, "q4")

    def test_journal_error_on_reserve_refuses_query(self, state_dir):
        failpoints.arm("journal.append.pre", "error", fire_on_hit=2)
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            with pytest.raises((JournalError, failpoints.FailpointError)):
                registered.reserve(0.25, "q1")
            # The in-memory hold was released: nothing leaks.
            assert registered.budget.reserved == 0.0
            assert registered.budget.remaining == 2.0

    def test_no_journal_without_state_dir(self):
        manager = DatasetManager()
        assert manager.journal is None
        manager.register("census", table(), total_budget=2.0).charge(0.5, "q")
        manager.close()


# ----------------------------------------------------------------------
# fsync discipline: one per charged query, settlements ride on the next
# ----------------------------------------------------------------------
class TestFsyncDiscipline:
    @pytest.fixture
    def fsync_calls(self, monkeypatch, path):
        """Record the journal's length at every real ``os.fsync``."""
        real_fsync = os.fsync
        lengths: list[int] = []

        def spy(fd):
            real_fsync(fd)
            lengths.append(os.path.getsize(path))

        monkeypatch.setattr(journal_module.os, "fsync", spy)
        return lengths

    def test_charged_query_fsyncs_once_and_replay_never(
        self, state_dir, fsync_calls
    ):
        from repro.core.gupt import GuptRuntime

        registry = MetricsRegistry()
        datasets = DatasetManager(metrics=registry, state_dir=state_dir)
        runtime = GuptRuntime(
            datasets, metrics=registry, rng=3, answer_cache_size=4
        )
        runtime.dataset_manager.register("census", table(), total_budget=4.0)
        counter = registry.counter("journal.fsyncs")

        def run():
            return runtime.run(
                "census", Mean(), TightRange((0.0, 10.0)), epsilon=0.5, rng=11
            )

        def step(action):
            counted, real = counter.value, len(fsync_calls)
            outcome = action()
            # The counter moves with real fsyncs, one for one.
            assert counter.value - counted == len(fsync_calls) - real
            return outcome, len(fsync_calls) - real

        charged, added = step(run)
        assert not charged.cached and added == 1  # the reserve; not the commit
        replayed, added = step(run)
        assert replayed.cached and added == 0
        def close():
            runtime.close()
            datasets.close()

        _, added = step(close)
        assert added == 1  # the pending commit and replay records
        kinds = [r["kind"] for r in scan(journal_path(state_dir)).records]
        assert kinds == [REGISTER, RESERVE, COMMIT, REPLAY]

    def test_close_without_pending_records_does_not_fsync(
        self, state_dir, fsync_calls
    ):
        manager = DatasetManager(state_dir=state_dir)
        manager.register("census", table(), total_budget=2.0)
        synced = len(fsync_calls)
        manager.close()
        assert len(fsync_calls) == synced

    @pytest.mark.parametrize("last", ["commit", "rollback"])
    def test_power_loss_after_last_fsync_recovers_conservatively(
        self, state_dir, path, fsync_calls, last
    ):
        manager = DatasetManager(state_dir=state_dir)
        registered = manager.register("census", table(), total_budget=2.0)
        queries = [("kept", 0.25, "commit"), ("returned", 0.5, "rollback")]
        if last == "rollback":
            queries.reverse()
        for query, epsilon, settle in queries:
            getattr(registered.reserve(epsilon, query), settle)()
        manager.journal.abandon()  # the process dies without close()

        # Power loss: the disk keeps only what the last fsync covered.
        full = scan(path)
        synced_bytes = fsync_calls[-1]
        with open(path, "r+b") as handle:
            handle.truncate(synced_bytes)
        survived = len(scan(path).records)
        lost = [r for r in full.records[survived:] if r["kind"] in (COMMIT, ROLLBACK)]

        state = recover(path).datasets["census"]
        assert state.spent >= 0.25  # never below the true spend
        assert not state.pending
        conservative = {
            spend.query for spend in state.committed
            if spend.detail == CONSERVATIVE_DETAIL
        }
        assert conservative == {record["query"] for record in lost}
        lost_rollbacks = sum(r["epsilon"] for r in lost if r["kind"] == ROLLBACK)
        assert state.spent == 0.25 + lost_rollbacks


# ----------------------------------------------------------------------
# Streaming integration
# ----------------------------------------------------------------------
class TestStreamingJournal:
    def _stream(self, state_dir, **kwargs):
        config = WindowConfig(
            window_epochs=kwargs.pop("window_epochs", 2),
            aging_epochs=kwargs.pop("aging_epochs", 2),
            epsilon_per_epoch=kwargs.pop("epsilon_per_epoch", 1.0),
        )
        return StreamingGupt(config, rng=0, state_dir=state_dir)

    def test_epoch_lifecycle_journaled(self, state_dir):
        stream = self._stream(state_dir)
        rng = np.random.default_rng(0)
        for _ in range(4):
            stream.ingest(rng.uniform(0, 10, size=50))
            stream.advance()
        stream.close()
        records = scan(journal_path(state_dir)).records
        registers = [r for r in records if r["kind"] == REGISTER]
        retires = [r for r in records if r["kind"] == RETIRE]
        assert [r["dataset"] for r in registers] == [
            f"epoch-{i}" for i in range(5)
        ]
        # aging_epochs=2: epochs 0 and 1 aged out by the time epoch 4 opened.
        assert [r["dataset"] for r in retires] == ["epoch-0", "epoch-1"]

    def test_query_reserves_then_commits_every_live_epoch(self, state_dir):
        stream = self._stream(state_dir)
        rng = np.random.default_rng(0)
        stream.ingest(rng.uniform(0, 10, size=100))
        stream.advance()
        stream.ingest(rng.uniform(0, 10, size=100))
        stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.25)
        stream.close()
        records = scan(journal_path(state_dir)).records
        reserves = [r for r in records if r["kind"] == RESERVE]
        commits = [r for r in records if r["kind"] == COMMIT]
        assert {r["dataset"] for r in reserves} == {"epoch-0", "epoch-1"}
        assert {r["dataset"] for r in commits} == {"epoch-0", "epoch-1"}
        assert all(r["epsilon"] == 0.25 for r in reserves + commits)

    def test_refused_query_journals_rollbacks(self, state_dir):
        stream = self._stream(state_dir, epsilon_per_epoch=0.25)
        rng = np.random.default_rng(0)
        stream.ingest(rng.uniform(0, 10, size=100))
        stream.advance()
        stream.ingest(rng.uniform(0, 10, size=100))
        # Epoch 1 (current) still has 0.25; spend epoch 0 down first so
        # the multi-epoch reserve fails halfway and must unwind.
        stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.25)
        with pytest.raises(PrivacyBudgetExhausted):
            stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.25)
        stream.close()
        records = scan(journal_path(state_dir)).records
        rollbacks = [r for r in records if r["kind"] == ROLLBACK]
        assert rollbacks == []  # exhaustion hit before any journaled hold
        # Replay agrees both epochs are fully spent by query 1 only.
        result = replay(records)
        assert result.datasets["epoch-0"].spent == 0.25
        assert result.datasets["epoch-1"].spent == 0.25


# ----------------------------------------------------------------------
# fsck / compaction
# ----------------------------------------------------------------------
class TestFsck:
    def _spend(self, state_dir, epsilons=(0.25, 0.5)):
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            for i, eps in enumerate(epsilons):
                registered.charge(eps, f"q{i}")

    def test_clean_report(self, state_dir, path):
        self._spend(state_dir)
        report = fsck(path)
        assert report.exists and report.clean and not report.anomalies
        assert report.datasets["census"]["spent"] == 0.75
        assert report.datasets["census"]["remaining"] == 1.25
        payload = report.to_dict()
        assert payload["torn"] is False and payload["truncated_bytes"] == 0

    def test_missing_journal(self, path):
        report = fsck(path)
        assert not report.exists and report.records == 0

    def test_repair_truncates_torn_tail(self, state_dir, path):
        self._spend(state_dir)
        intact = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        unrepaired = fsck(path)
        assert unrepaired.torn and not unrepaired.clean
        assert os.path.getsize(path) == intact + 3  # fsck alone never writes
        repaired = fsck(path, repair=True)
        assert repaired.torn and repaired.repaired and repaired.clean
        assert os.path.getsize(path) == intact
        assert repaired.datasets["census"]["spent"] == 0.75

    def test_compaction_preserves_spend_bit_for_bit(self, state_dir, path):
        epsilons = [0.1] * 7
        self._spend(state_dir, epsilons=epsilons)
        before = recover(path).datasets["census"]
        size_before = os.path.getsize(path)
        written = compact(path)
        after = recover(path).datasets["census"]
        assert after.spent == before.spent  # fsum parity through rewrite
        assert after.remaining == before.remaining
        assert written == 1 + len(epsilons)
        assert os.path.getsize(path) < size_before
        # A compacted journal is a valid seed for a successor manager.
        with DatasetManager(state_dir=state_dir) as manager:
            adopted = manager.register("census", table(), total_budget=2.0)
            assert adopted.budget.spent == before.spent

    def test_cli_fsck_round_trip(self, state_dir, path, capsys):
        from repro.cli import main

        self._spend(state_dir)
        assert main(["fsck", "--state-dir", state_dir]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["datasets"]["census"]["spent"] == 0.75
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad")
        assert main(["fsck", "--state-dir", state_dir]) == 1
        capsys.readouterr()
        assert main(["fsck", "--state-dir", state_dir, "--repair"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repaired"] is True
        assert payload["datasets"]["census"]["spent"] == 0.75

    def test_cli_fsck_missing_journal(self, state_dir, capsys):
        from repro.cli import main

        assert main(["fsck", "--state-dir", state_dir]) == 1
        assert "no journal" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Failpoints
# ----------------------------------------------------------------------
class TestFailpoints:
    def test_error_mode_raises_on_nth_hit(self):
        failpoints.arm("site.x", "error", fire_on_hit=3)
        failpoints.hit("site.x")
        failpoints.hit("site.x")
        with pytest.raises(failpoints.FailpointError):
            failpoints.hit("site.x")
        # One-shot: disarmed after firing.
        failpoints.hit("site.x")
        assert failpoints.hit_count("site.x") == 4

    def test_env_spec_parsing(self, monkeypatch):
        monkeypatch.setenv(
            failpoints.ENV_VAR, "a.b=error, c.d = error@2"
        )
        failpoints.reset()
        assert failpoints.is_armed("a.b")
        assert failpoints.is_armed("c.d")
        failpoints.hit("c.d")
        with pytest.raises(failpoints.FailpointError):
            failpoints.hit("c.d")

    def test_bad_env_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(failpoints.ENV_VAR, "nonsense=explode")
        with pytest.raises(GuptError):
            failpoints.reset()
            failpoints.is_armed("anything")

    def test_unarmed_sites_are_free(self):
        failpoints.hit("never.armed")
        assert failpoints.hit_count("never.armed") == 1
        assert not failpoints.is_armed("never.armed")


# ----------------------------------------------------------------------
# Release safety: the journal never carries data-derived values
# ----------------------------------------------------------------------
SENTINEL_LO, SENTINEL_HI = 7000.0, 7400.0


def numeric_leaves(payload):
    if isinstance(payload, bool):
        return []
    if isinstance(payload, (int, float)):
        return [float(payload)]
    if isinstance(payload, dict):
        out = []
        for key, value in payload.items():
            out.extend(numeric_leaves(key))
            out.extend(numeric_leaves(value))
        return out
    if isinstance(payload, (list, tuple)):
        out = []
        for value in payload:
            out.extend(numeric_leaves(value))
        return out
    if isinstance(payload, str):
        try:
            return [float(payload)]
        except ValueError:
            return []
    return []


class TestJournalReleaseSafety:
    """Satellite: no journal record or journal.* metric derives from
    block outputs or released values beyond the epsilon amounts."""

    def test_journal_and_metrics_stay_out_of_sentinel_band(self, state_dir,
                                                           path):
        from repro.core.gupt import GuptRuntime

        registry = MetricsRegistry()
        rng = np.random.default_rng(7)
        sentinel_table = DataTable(
            rng.uniform(SENTINEL_LO + 50, SENTINEL_HI - 50, size=(400, 1)),
            column_names=("v",),
            input_ranges=[(SENTINEL_LO, SENTINEL_HI)],
        )
        datasets = DatasetManager(metrics=registry, state_dir=state_dir)
        runtime = GuptRuntime(datasets, metrics=registry, rng=3)
        runtime.dataset_manager.register(
            "census", sentinel_table, total_budget=4.0
        )
        result = runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)),
            epsilon=1.0,
        )
        runtime.close()
        datasets.close()
        released = float(result.value[0])
        assert SENTINEL_LO <= released <= SENTINEL_HI  # the leak would be real

        # 1. Every numeric leaf of every journal record stays far below
        #    the band: epsilons, reservation ids, totals only.
        for record in scan(path).records:
            for leaf in numeric_leaves(record):
                assert not (SENTINEL_LO <= abs(leaf) <= SENTINEL_HI), record

        # 2. The raw journal bytes never contain the released value.
        with open(path, "rb") as handle:
            raw = handle.read().decode("latin-1")
        assert repr(released) not in raw
        assert f"{released:.6f}"[:8] not in raw

        # 3. journal.* metrics (and the rest of the snapshot) stay out of
        #    the band too.
        snapshot = registry.snapshot()
        journal_metrics = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("journal.")
        }
        assert journal_metrics.get('journal.records_written{kind="register"}') == 1
        assert journal_metrics.get("journal.fsyncs", 0) >= 3
        for leaf in numeric_leaves(snapshot):
            assert not (SENTINEL_LO <= abs(leaf) <= SENTINEL_HI)

    def test_query_names_carry_no_values(self, state_dir, path):
        # The journal stores the query *name* the analyst supplied and
        # nothing else about the query: no program text, no outputs.
        with DatasetManager(state_dir=state_dir) as manager:
            registered = manager.register("census", table(), total_budget=2.0)
            registered.charge(0.25, "median-income-by-zip")
        for record in scan(path).records:
            assert set(record) <= {
                "kind", "dataset", "epsilon", "rid", "query", "detail",
            }
