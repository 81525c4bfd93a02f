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
Each epoch's records carry their own budget of ``epsilon_per_epoch``:
epoch ``N`` is the budget-only dataset ``epoch-N`` of a
:class:`~repro.accounting.manager.DatasetManager` the stream owns,
registered when the epoch opens and unregistered when it ages out.
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

import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.accounting.journal import BudgetJournal
from repro.accounting.manager import (
    BudgetReservation,
    DatasetManager,
    RegisteredDataset,
)
from repro.core.range_estimation import RangeStrategy
from repro.core.sample_aggregate import SampleAggregateEngine, SampleAggregateResult
from repro.core.aggregation import ranges_from_pairs
from repro.core.range_estimation import RangeContext
from repro.exceptions import GuptError
from repro.mechanisms.rng import RandomSource, as_generator


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
    dataset: RegisteredDataset


def _epoch_index(name: str) -> int:
    """``N`` for a stream's dataset ``epoch-N``; any other name is refused."""
    match = re.fullmatch(r"epoch-(0|[1-9][0-9]*)", name)
    if match is None:
        raise GuptError(
            f"the state dir's journal holds dataset {name!r}, which is not "
            "a stream epoch; a stream needs a state dir of its own"
        )
    return int(match.group(1))


class StreamingGupt:
    """Windowed private analytics with per-epoch budgets and aging.

    With ``state_dir=`` the stream's dataset manager journals every
    per-epoch budget event — epoch registration, query
    reserve/commit/rollback and the retire of an epoch aging out — to
    the state dir's ``budget.wal``, and a stream opened on that state
    dir resumes its epochs: every live ``epoch-N`` in the journal is
    registered again oldest first, adopting its recovered spends, and
    the newest becomes the current epoch.  Retired epochs never come
    back, and a state dir whose journal holds any dataset other than a
    stream epoch is refused.  Stream *records* are never journaled: a
    reopened epoch starts empty, but its budget stays spent, so no
    restart can hand a replayed record a fresh budget.
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
        self._queries = 0
        self._engine = SampleAggregateEngine()
        self._manager = DatasetManager(state_dir=state_dir)
        try:
            recovered = sorted(
                _epoch_index(name) for name in self._manager.recovered_names()
            )
            for index in recovered[:-1]:
                self._epochs.append(self._open_epoch(index))
            self._current = self._open_epoch(recovered[-1] if recovered else 0)
        except BaseException:
            self._manager.close()
            raise

    @property
    def journal(self) -> Optional[BudgetJournal]:
        """The stream's budget journal (``None`` when in-memory)."""
        return self._manager.journal

    def close(self) -> None:
        """Flush and close the stream's journal (no-op when in-memory)."""
        self._manager.close()

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
        self._current = self._open_epoch(next_index)
        horizon = next_index - self._config.aging_epochs
        while self._epochs and self._epochs[0].index < horizon:
            expired = self._epochs.popleft()
            # Retire is terminal: the epoch's budget is discarded with
            # it and no replay can bring it back.
            self._manager.unregister(expired.dataset.name)
            self._aged_rows.extend(expired.records)
        return next_index

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------
    def window_values(self) -> np.ndarray:
        """The records a query would see (current + recent epochs)."""
        parts = [records for epoch in self._live() for records in epoch.records]
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
        return {e.index: e.dataset.budget.remaining for e in self._live()}

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

        # Hold the epsilon on every contributing epoch before committing
        # any: a refusal rolls back the holds already taken, so it leaves
        # every epoch's budget untouched, bit for bit.
        self._queries += 1
        query_name = f"stream-query-{self._queries}"
        held: list[BudgetReservation] = []
        try:
            for epoch in self._live():
                if epoch.records:
                    held.append(epoch.dataset.reserve(epsilon, query_name))
        except BaseException:
            for reservation in held:
                reservation.rollback()
            raise
        for reservation in held:
            reservation.commit()

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
    def _live(self) -> list[_Epoch]:
        """The current epoch, then the closed epochs still in the window."""
        horizon = self._current.index - self._config.window_epochs
        return [self._current] + [e for e in self._epochs if e.index > horizon]

    def _open_epoch(self, index: int) -> _Epoch:
        dataset = self._manager.register(
            f"epoch-{index}", None, total_budget=self._config.epsilon_per_epoch
        )
        return _Epoch(index=index, records=[], dataset=dataset)
