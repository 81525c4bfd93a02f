"""Unit tests for the streaming (windowed) GUPT extension."""

import numpy as np
import pytest

from repro.accounting.journal import (
    REGISTER,
    RESERVE,
    ROLLBACK,
    journal_path,
    recover,
    scan,
)
from repro.accounting.manager import DatasetManager
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import DatasetError, GuptError, PrivacyBudgetExhausted
from repro.streaming import StreamingGupt, WindowConfig
from repro.testing import failpoints
from repro.testing.failpoints import FailpointError


def fill(stream, epochs, per_epoch=200, center=10.0, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    for _ in range(epochs):
        stream.ingest(rng.normal(center, 1.0, size=per_epoch).clip(0, 20))
        stream.advance()


class TestWindowConfig:
    def test_defaults_valid(self):
        WindowConfig()

    @pytest.mark.parametrize("kwargs", [
        {"window_epochs": 0},
        {"window_epochs": 4, "aging_epochs": 2},
        {"epsilon_per_epoch": 0.0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(GuptError):
            WindowConfig(**kwargs)


class TestIngestAndWindow:
    def test_window_includes_recent_epochs_only(self):
        stream = StreamingGupt(WindowConfig(window_epochs=2, aging_epochs=5))
        stream.ingest(np.full(10, 1.0))
        stream.advance()
        stream.ingest(np.full(10, 2.0))
        stream.advance()
        stream.ingest(np.full(10, 3.0))
        # Window = current (3.0) + last 2 closed epochs... window_epochs=2
        # keeps epochs with index > current-2, i.e. epochs 1 and 2.
        window = stream.window_values().ravel()
        assert set(window) == {2.0, 3.0}

    def test_empty_window_rejected(self):
        stream = StreamingGupt()
        with pytest.raises(GuptError):
            stream.window_values()

    def test_epoch_counter(self):
        stream = StreamingGupt()
        assert stream.epoch == 0
        stream.advance()
        assert stream.epoch == 1

    @pytest.mark.parametrize("bad", [np.empty((0, 1)), np.array([[np.nan]])])
    def test_invalid_ingest_rejected(self, bad):
        with pytest.raises(GuptError):
            StreamingGupt().ingest(bad)


class TestAging:
    def test_old_epochs_join_aged_pool(self):
        config = WindowConfig(window_epochs=1, aging_epochs=2)
        stream = StreamingGupt(config)
        stream.ingest(np.full(5, 1.0))
        stream.advance()          # epoch 0 closed
        assert stream.aged_values() is None
        stream.advance()          # epoch 1 closed (empty)
        stream.advance()          # epoch 0 now older than aging horizon
        aged = stream.aged_values()
        assert aged is not None
        assert set(aged.ravel()) == {1.0}

    def test_aged_pool_grows(self):
        config = WindowConfig(window_epochs=1, aging_epochs=1)
        stream = StreamingGupt(config)
        for value in (1.0, 2.0, 3.0):
            stream.ingest(np.full(5, value))
            stream.advance()
        stream.advance()
        aged = stream.aged_values()
        assert {1.0, 2.0} <= set(aged.ravel())


class TestQuery:
    def test_query_estimates_window_mean(self):
        stream = StreamingGupt(WindowConfig(epsilon_per_epoch=100.0), rng=0)
        fill(stream, epochs=3)
        result = stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=50.0)
        assert result.scalar() == pytest.approx(10.0, abs=1.0)

    def test_query_charges_every_live_epoch(self):
        stream = StreamingGupt(WindowConfig(window_epochs=3, epsilon_per_epoch=5.0), rng=0)
        fill(stream, epochs=2)
        stream.ingest(np.full(50, 10.0))
        stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=1.0)
        remaining = stream.remaining_budgets()
        assert all(value == pytest.approx(4.0) for value in remaining.values())

    def test_exhausted_epoch_blocks_the_query_atomically(self):
        stream = StreamingGupt(WindowConfig(window_epochs=3, epsilon_per_epoch=2.0), rng=0)
        fill(stream, epochs=2)
        stream.ingest(np.full(50, 10.0))
        stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=1.5)
        before = stream.remaining_budgets()
        with pytest.raises(PrivacyBudgetExhausted):
            stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=1.0)
        assert stream.remaining_budgets() == before

    def test_retired_epochs_budget_no_longer_charged(self):
        config = WindowConfig(window_epochs=1, aging_epochs=3, epsilon_per_epoch=2.0)
        stream = StreamingGupt(config, rng=0)
        stream.ingest(np.full(60, 5.0))
        stream.advance()
        stream.ingest(np.full(60, 7.0))
        # Window covers only the newest closed/current data; epoch 0 is
        # retired and must not be charged.
        stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=2.0)
        # A second full-budget query still works because epoch 0's budget
        # was untouched and epoch 1... no: epoch 1 was charged. Verify by
        # a refused second query instead.
        with pytest.raises(PrivacyBudgetExhausted):
            stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=0.5)

    def test_invalid_epsilon_rejected(self):
        stream = StreamingGupt(rng=0)
        stream.ingest(np.full(10, 1.0))
        with pytest.raises(GuptError):
            stream.query(Mean(), TightRange((0.0, 2.0)), epsilon=0.0)

    def test_fresh_data_restores_queryability(self):
        config = WindowConfig(window_epochs=1, epsilon_per_epoch=1.0)
        stream = StreamingGupt(config, rng=0)
        stream.ingest(np.full(60, 5.0))
        stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=1.0)
        with pytest.raises(PrivacyBudgetExhausted):
            stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.5)
        # New epoch, new data, new budget.
        stream.advance()
        stream.ingest(np.full(60, 6.0))
        result = stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=1.0)
        assert 0.0 <= result.scalar() <= 10.0


class TestRestart:
    """A stream reopened on its state dir resumes its epochs' budgets."""

    def test_restart_refuses_a_replayed_spend(self, tmp_path):
        config = WindowConfig(window_epochs=1, aging_epochs=1, epsilon_per_epoch=1.0)
        stream = StreamingGupt(config, rng=0, state_dir=str(tmp_path))
        stream.ingest(np.full(60, 5.0))
        stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.9)
        stream.close()

        reopened = StreamingGupt(config, rng=0, state_dir=str(tmp_path))
        reopened.ingest(np.full(60, 5.0))
        with pytest.raises(PrivacyBudgetExhausted):
            reopened.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.9)
        assert reopened.remaining_budgets() == {0: pytest.approx(0.1)}
        reopened.close()
        recovered = recover(journal_path(str(tmp_path))).datasets
        assert recovered["epoch-0"].spent == 0.9
        assert all(state.spent <= state.total for state in recovered.values())

    def test_restart_after_aging_never_reregisters_a_retired_epoch(self, tmp_path):
        config = WindowConfig(window_epochs=2, aging_epochs=2, epsilon_per_epoch=1.0)
        stream = StreamingGupt(config, rng=0, state_dir=str(tmp_path))
        fill(stream, epochs=5)
        stream.ingest(np.full(60, 5.0))
        stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=0.4)
        before = stream.remaining_budgets()
        stream.close()

        reopened = StreamingGupt(config, rng=0, state_dir=str(tmp_path))
        reopened.close()
        assert reopened.epoch == 5
        assert reopened.remaining_budgets() == before == {
            5: pytest.approx(0.6), 4: pytest.approx(0.6)
        }
        registers = [
            r["dataset"] for r in scan(journal_path(str(tmp_path))).records
            if r["kind"] == REGISTER
        ]
        assert registers == [f"epoch-{i}" for i in range(6)]

    def test_restart_with_another_epsilon_per_epoch_is_refused(self, tmp_path):
        stream = StreamingGupt(
            WindowConfig(epsilon_per_epoch=1.0), rng=0, state_dir=str(tmp_path)
        )
        stream.ingest(np.full(60, 5.0))
        stream.query(Mean(), TightRange((0.0, 10.0)), epsilon=0.5)
        stream.close()
        path = journal_path(str(tmp_path))
        before = recover(path).datasets["epoch-0"]

        with pytest.raises(DatasetError):
            StreamingGupt(
                WindowConfig(epsilon_per_epoch=2.0), rng=0, state_dir=str(tmp_path)
            )
        after = recover(path).datasets
        assert list(after) == ["epoch-0"]
        assert (after["epoch-0"].total, after["epoch-0"].spent) == (
            before.total, before.spent
        )

    def test_foreign_state_dir_is_refused(self, tmp_path):
        with DatasetManager(state_dir=str(tmp_path)) as manager:
            manager.register("census", DataTable(np.ones((10, 1))), total_budget=1.0)
        with pytest.raises(GuptError, match="census"):
            StreamingGupt(state_dir=str(tmp_path))
        registers = [
            r["dataset"] for r in scan(journal_path(str(tmp_path))).records
            if r["kind"] == REGISTER
        ]
        assert registers == ["census"]

    def test_failed_second_reserve_rolls_back_the_first_hold(self, tmp_path):
        config = WindowConfig(window_epochs=2, epsilon_per_epoch=1.0)
        stream = StreamingGupt(config, rng=0, state_dir=str(tmp_path))
        fill(stream, epochs=1)
        stream.ingest(np.full(60, 5.0))
        before = stream.remaining_budgets()
        failpoints.arm("manager.reserve.held", "error", fire_on_hit=2)
        try:
            with pytest.raises(FailpointError):
                stream.query(Mean(), TightRange((0.0, 20.0)), epsilon=0.5)
        finally:
            failpoints.reset()
            stream.close()
        assert stream.remaining_budgets() == before

        records = scan(journal_path(str(tmp_path))).records
        reserves = [r for r in records if r["kind"] == RESERVE]
        rollbacks = [r for r in records if r["kind"] == ROLLBACK]
        assert [r["dataset"] for r in reserves] == ["epoch-1"]
        assert [(r["dataset"], r["rid"]) for r in rollbacks] == [
            ("epoch-1", reserves[0]["rid"])
        ]
        recovered = recover(journal_path(str(tmp_path))).datasets
        assert {name: state.spent for name, state in recovered.items()} == {
            "epoch-0": 0.0, "epoch-1": 0.0
        }
