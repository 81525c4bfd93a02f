"""Windowed GUPT over an epoch-structured stream.

Model
-----
Time is divided into epochs.  Records ingested during epoch ``t`` are
live while ``t`` is within the last ``window_epochs`` epochs, then
retire.  Retired epochs older than ``aging_epochs`` are treated as
privacy-expired (the §3.3 aging model applied to time) and join the
aged pool used for block-size search and accuracy->epsilon estimation.

Budgets
-------
Each epoch's records carry their own budget of ``epsilon_per_epoch``.
A query over the current window touches every live epoch, so it charges
its epsilon against *each* live epoch's budget (the window is a union
of disjoint epoch datasets; a record lives in exactly one epoch, but a
query output depends on all of them, so sequential composition applies
per epoch independently).  When any live epoch cannot afford a query,
the query is refused — conservative and simple.

This is a reproduction-scale design, not a full streaming-DP treatment
(no continual-observation counters); it exercises exactly the GUPT
machinery the paper says should be extended to streams.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.accounting.budget import PrivacyBudget
from repro.accounting.journal import (
    COMMIT,
    REGISTER,
    RESERVE,
    RETIRE,
    ROLLBACK,
    BudgetJournal,
)
from repro.core.range_estimation import RangeStrategy
from repro.core.sample_aggregate import SampleAggregateEngine, SampleAggregateResult
from repro.core.aggregation import ranges_from_pairs
from repro.core.range_estimation import RangeContext
from repro.exceptions import GuptError, PrivacyBudgetExhausted
from repro.mechanisms.rng import RandomSource, as_generator

#: Journal file name for a stream's per-epoch budget events.
STREAM_JOURNAL_NAME = "stream.wal"


@dataclass(frozen=True)
class WindowConfig:
    """Shape of the stream's windowing and budgets.

    Attributes
    ----------
    window_epochs:
        How many most-recent epochs a query sees.
    aging_epochs:
        Epochs older than this many epochs ago are privacy-expired and
        feed the aged pool.  Must be >= window_epochs.
    epsilon_per_epoch:
        Total budget each epoch's records can absorb over their lifetime.
    block_size:
        Block size for queries (None = n**0.6 of the window).
    """

    window_epochs: int = 4
    aging_epochs: int = 12
    epsilon_per_epoch: float = 2.0
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.window_epochs < 1:
            raise GuptError("window_epochs must be >= 1")
        if self.aging_epochs < self.window_epochs:
            raise GuptError("aging_epochs must be >= window_epochs")
        if self.epsilon_per_epoch <= 0:
            raise GuptError("epsilon_per_epoch must be positive")


@dataclass
class _Epoch:
    index: int
    records: list[np.ndarray]
    budget: PrivacyBudget

    def values(self) -> np.ndarray | None:
        if not self.records:
            return None
        return np.vstack(self.records)


class StreamingGupt:
    """Windowed private analytics with per-epoch budgets and aging.

    With ``state_dir=`` the stream journals every per-epoch budget
    lifecycle event — epoch registration, query reserve/commit/rollback
    and the *retire* of an epoch aging out — to a write-ahead journal
    (``stream.wal``), the same format and fsync rule as the dataset
    manager's.
    The journal is an audit trail of budget arithmetic only: stream
    *records* are never journaled and a crashed stream's data is gone,
    but replaying the journal proves exactly which epochs spent what and
    which were retired, so no restart can resurrect an exhausted or
    retired epoch's budget.
    """

    def __init__(
        self,
        config: WindowConfig | None = None,
        rng: RandomSource = None,
        state_dir: Optional[str] = None,
    ):
        self._config = config or WindowConfig()
        self._rng = as_generator(rng)
        self._epochs: deque[_Epoch] = deque()
        self._aged_rows: list[np.ndarray] = []
        self._journal: Optional[BudgetJournal] = None
        if state_dir is not None:
            self._journal = BudgetJournal(
                os.path.join(state_dir, STREAM_JOURNAL_NAME)
            )
        self._queries = 0
        self._current = self._new_epoch(0)
        self._engine = SampleAggregateEngine()

    @property
    def journal(self) -> Optional[BudgetJournal]:
        """The stream's budget journal (``None`` when in-memory)."""
        return self._journal

    def close(self) -> None:
        """Flush and close the stream's journal (no-op when in-memory)."""
        if self._journal is not None:
            self._journal.close()

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Index of the epoch currently accepting records."""
        return self._current.index

    def ingest(self, records) -> None:
        """Append records (rows) to the current epoch."""
        array = np.asarray(records, dtype=float)
        if array.ndim == 1:
            array = array.reshape(-1, 1)
        if array.ndim != 2 or array.shape[0] == 0:
            raise GuptError("ingest expects a non-empty 1-D or 2-D batch")
        if not np.all(np.isfinite(array)):
            raise GuptError("records must be finite")
        self._current.records.append(array)

    def advance(self) -> int:
        """Close the current epoch and open the next; returns its index.

        Epochs falling outside the aging horizon are drained into the
        aged pool; their unspent budgets are discarded (expired data no
        longer needs one).
        """
        self._epochs.append(self._current)
        next_index = self._current.index + 1
        self._current = self._new_epoch(next_index)
        horizon = next_index - self._config.aging_epochs
        while self._epochs and self._epochs[0].index < horizon:
            expired = self._epochs.popleft()
            if self._journal is not None:
                # Retire is terminal: the epoch's budget is discarded
                # with it and no replay can bring it back.
                self._journal.append(RETIRE, f"epoch-{expired.index}")
            values = expired.values()
            if values is not None:
                self._aged_rows.append(values)
        return next_index

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def window_values(self) -> np.ndarray:
        """The records a query would see (current + recent epochs)."""
        live = [self._current] + [
            e for e in self._epochs
            if e.index > self._current.index - self._config.window_epochs
        ]
        parts = [e.values() for e in live if e.values() is not None]
        if not parts:
            raise GuptError("the window contains no records yet")
        return np.vstack(parts)

    def aged_values(self) -> np.ndarray | None:
        """Privacy-expired rows available for parameter estimation."""
        if not self._aged_rows:
            return None
        return np.vstack(self._aged_rows)

    def remaining_budgets(self) -> dict[int, float]:
        """Remaining epsilon per live epoch (current included)."""
        live = [self._current] + [
            e for e in self._epochs
            if e.index > self._current.index - self._config.window_epochs
        ]
        return {e.index: e.budget.remaining for e in live}

    def query(
        self,
        program: Callable,
        range_strategy: RangeStrategy,
        epsilon: float,
        output_dimension: int | None = None,
    ) -> SampleAggregateResult:
        """Run one private query over the current window.

        Charges ``epsilon`` against every live epoch atomically: if any
        epoch cannot afford it, nothing is charged and the query is
        refused.
        """
        if epsilon <= 0 or not np.isfinite(epsilon):
            raise GuptError(f"epsilon must be positive, got {epsilon}")
        values = self.window_values()
        dimension = (
            int(output_dimension)
            if output_dimension is not None
            else int(getattr(program, "output_dimension", 1))
        )

        live = [self._current] + [
            e for e in self._epochs
            if e.index > self._current.index - self._config.window_epochs
        ]
        contributing = [e for e in live if e.values() is not None]
        # Transactional multi-epoch spend: reserve against every epoch
        # first, then commit all holds.  The old check-then-charge loop
        # was a race — two interleaved queries could both pass every
        # ``can_afford`` test, then one would fail its charge halfway
        # through, leaving the earlier epochs charged for a query that
        # was refused.  Reservations make the refusal leave every epoch
        # untouched, bit-for-bit.
        self._queries += 1
        query_name = f"stream-query-{self._queries}"
        held: list[tuple[_Epoch, int, bool]] = []

        def unwind() -> None:
            # Journal the rollbacks first (conservative ordering, same
            # as the dataset manager), then return every hold.
            for reserved_epoch, reservation_id, journaled in held:
                if journaled and self._journal is not None:
                    self._journal.append(
                        ROLLBACK, f"epoch-{reserved_epoch.index}",
                        epsilon=epsilon, reservation_id=reservation_id,
                        query=query_name,
                    )
                reserved_epoch.budget.release_reservation(reservation_id)

        for epoch in contributing:
            try:
                reservation_id = epoch.budget.reserve(epsilon)
            except PrivacyBudgetExhausted:
                unwind()
                raise PrivacyBudgetExhausted(
                    epsilon, epoch.budget.remaining, f"epoch-{epoch.index}"
                ) from None
            held.append((epoch, reservation_id, False))
            if self._journal is not None:
                try:
                    self._journal.append(
                        RESERVE, f"epoch-{epoch.index}",
                        epsilon=epsilon, reservation_id=reservation_id,
                        query=query_name,
                    )
                except BaseException:
                    unwind()
                    raise
                held[-1] = (epoch, reservation_id, True)
        for epoch, reservation_id, _ in held:
            # Write-ahead: a crash between the durable commit and the
            # in-memory one resolves as spent either way on replay.
            if self._journal is not None:
                self._journal.append(
                    COMMIT, f"epoch-{epoch.index}",
                    epsilon=epsilon, reservation_id=reservation_id,
                    query=query_name,
                )
            epoch.budget.commit_reservation(reservation_id)

        epsilon_range = range_strategy.budget_fraction * epsilon
        epsilon_noise = epsilon - epsilon_range

        holder: dict[str, object] = {}

        def block_outputs_fn(fallback: np.ndarray) -> np.ndarray:
            sampled = self._engine.sample(
                values, program, dimension, fallback,
                block_size=self._config.block_size, rng=self._rng,
            )
            holder["sampled"] = sampled
            return sampled.outputs

        context = RangeContext(
            input_values=values,
            input_ranges=(None,) * values.shape[1],
            output_dimension=dimension,
            block_outputs_fn=block_outputs_fn,
        )
        estimate = range_strategy.estimate(context, epsilon_range, rng=self._rng)
        sampled = holder.get("sampled")
        if sampled is None:
            fallback = np.array([r.midpoint for r in ranges_from_pairs(estimate.ranges)])
            sampled = self._engine.sample(
                values, program, dimension, fallback,
                block_size=self._config.block_size, rng=self._rng,
            )
        return self._engine.aggregate(sampled, epsilon_noise, estimate.ranges, rng=self._rng)

    # ------------------------------------------------------------------
    def _new_epoch(self, index: int) -> _Epoch:
        if self._journal is not None:
            self._journal.append(
                REGISTER, f"epoch-{index}",
                epsilon=self._config.epsilon_per_epoch,
            )
        return _Epoch(
            index=index,
            records=[],
            budget=PrivacyBudget(
                self._config.epsilon_per_epoch, dataset=f"epoch-{index}"
            ),
        )
