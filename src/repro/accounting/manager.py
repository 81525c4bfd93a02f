"""The dataset manager: registration, budgets, ledgers and aged slices.

This is the data owner's interface to GUPT (Figure 2 of the paper).  The
owner registers a dataset together with a *total* privacy budget; every
subsequent query must charge its epsilon here before touching the data.
The manager also materializes the dataset's *aged* (privacy-expired)
slice under the aging-of-sensitivity model of §3.3, which downstream
components use for parameter estimation at zero privacy cost.

Spending is transactional.  Every charge flows through a
:class:`BudgetReservation`: the epsilon is *reserved* first (an atomic
check-and-hold on the budget), then either *committed* (ledger entry
written, epsilon permanently spent) or *rolled back* (the hold returned
untouched).  There is deliberately no check-then-spend path — under
concurrent queries a separate "can afford?" test followed by a charge
lets two requests both pass the test and jointly overspend, which is
exactly the interleaving the paper's §5.2 budget-attack defense must
exclude in a hosted deployment.

Spending can also be *durable*.  A manager created with ``state_dir=``
writes every budget lifecycle event to a write-ahead journal
(:mod:`repro.accounting.journal`; one fsync per charged query) and, on
startup, replays whatever an earlier process left behind: committed
spends are restored bit-for-bit, and reservations that were in flight at
the crash are resolved *conservatively* as spent — a restart can waste
epsilon, never mint it.
Without ``state_dir`` the manager is purely in-memory, as before.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.accounting.budget import PrivacyBudget
from repro.accounting.journal import (
    COMMIT,
    RECOVERY,
    REGISTER,
    REPLAY,
    RESERVE,
    RETIRE,
    ROLLBACK,
    BudgetJournal,
    RecoveredDataset,
    journal_path,
    recover,
)
from repro.accounting.ledger import PrivacyLedger
from repro.datasets.table import DataTable
from repro.exceptions import DatasetError, GuptError
from repro.mechanisms.rng import RandomSource
from repro.observability import MetricsRegistry, get_registry
from repro.testing import failpoints

#: Reservation lifecycle states.
RESERVATION_PENDING = "pending"
RESERVATION_COMMITTED = "committed"
RESERVATION_ROLLED_BACK = "rolled-back"


class BudgetReservation:
    """A transactional hold on part of one dataset's privacy budget.

    The reservation is created in the *pending* state with the epsilon
    already held against the budget (so no concurrent reservation can
    claim it).  Exactly one terminal transition follows:

    * :meth:`commit` — the epsilon becomes spent and a ledger entry is
      recorded; this is irreversible, matching the fact that a private
      release cannot be un-released.
    * :meth:`rollback` — the hold is dropped and the budget restored to
      its exact prior state.  Rolling back twice is a no-op; rolling
      back a committed reservation raises, because the release already
      happened.

    Used as a context manager, a clean exit commits and an exception
    rolls back — unless the body already settled the reservation.
    """

    def __init__(
        self, dataset: "RegisteredDataset", reservation_id: int,
        epsilon: float, query: str,
    ):
        self._dataset = dataset
        self._reservation_id = reservation_id
        self._epsilon = float(epsilon)
        self._query = query
        self._state = RESERVATION_PENDING
        self._lock = threading.Lock()

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def query(self) -> str:
        return self._query

    @property
    def state(self) -> str:
        return self._state

    @property
    def pending(self) -> bool:
        return self._state == RESERVATION_PENDING

    def commit(self, detail: str = "") -> None:
        """Spend the held epsilon and write the ledger entry."""
        with self._lock:
            if self._state != RESERVATION_PENDING:
                raise GuptError(
                    f"cannot commit a {self._state} reservation "
                    f"(query {self._query!r})"
                )
            self._dataset._commit_reservation(self, detail)
            self._state = RESERVATION_COMMITTED

    def rollback(self) -> None:
        """Return the held epsilon untouched (idempotent)."""
        with self._lock:
            if self._state == RESERVATION_ROLLED_BACK:
                return
            if self._state == RESERVATION_COMMITTED:
                raise GuptError(
                    f"cannot roll back a committed reservation "
                    f"(query {self._query!r}); the release already happened"
                )
            self._dataset._rollback_reservation(self)
            self._state = RESERVATION_ROLLED_BACK

    def __enter__(self) -> "BudgetReservation":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.pending:
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


@dataclass
class RegisteredDataset:
    """A dataset plus its privacy state inside the manager.

    Attributes
    ----------
    name:
        Registration key.
    table:
        The privacy-sensitive records queries run against; ``None`` for
        a budget-only registration, whose records live elsewhere (a
        stream's epochs are registered this way).
    budget:
        Remaining epsilon for this dataset.
    ledger:
        Append-only audit trail of all charges.
    aged:
        Records considered privacy-expired under the aging model (may be
        ``None`` when the owner declares no aged data).  Drawn from the
        same distribution as ``table`` but *disjoint* from it.
    version:
        Monotone registration generation assigned by the owning manager.
        Anything derived from the dataset's *contents* (memoized block
        plans, cached answers) keys on ``(name, version)`` so a
        retire-and-re-register under the same name can never serve
        derivations of the old records.
    metrics:
        Registry receiving budget burn-down gauges; ``None`` uses the
        process default.
    journal:
        Durable write-ahead journal shared with the owning manager;
        ``None`` keeps the dataset purely in-memory.
    """

    name: str
    table: Optional[DataTable]
    budget: PrivacyBudget
    ledger: PrivacyLedger = field(default_factory=PrivacyLedger)
    aged: Optional[DataTable] = None
    version: int = 0
    metrics: Optional[MetricsRegistry] = field(default=None, repr=False, compare=False)
    journal: Optional[BudgetJournal] = field(default=None, repr=False, compare=False)

    def _registry(self) -> MetricsRegistry:
        return self.metrics or get_registry()

    def _record_budget_gauges(self, registry: MetricsRegistry) -> None:
        registry.gauge("budget.epsilon_spent", dataset=self.name).set(self.budget.spent)
        registry.gauge("budget.epsilon_reserved", dataset=self.name).set(
            self.budget.reserved
        )
        registry.gauge("budget.epsilon_remaining", dataset=self.name).set(
            self.budget.remaining
        )

    def reserve(self, epsilon: float, query: str) -> BudgetReservation:
        """Atomically hold ``epsilon`` for one query.

        Raises :class:`~repro.exceptions.PrivacyBudgetExhausted` — with
        nothing held — when the epsilon cannot fit alongside spent
        budget and other in-flight reservations, so an exhausted budget
        rejects at reservation time and no interleaving can overspend.

        Under a journaled manager the hold is made durable before the
        reservation is handed out: a query never runs without a durable
        trace, so a crash mid-query resolves conservatively as spent.
        A journal failure releases the hold and refuses the query.
        """
        reservation_id = self.budget.reserve(epsilon)
        if self.journal is not None:
            try:
                failpoints.hit("manager.reserve.held")
                self.journal.append(
                    RESERVE, self.name,
                    epsilon=epsilon, reservation_id=reservation_id, query=query,
                )
            except BaseException:
                self.budget.release_reservation(reservation_id)
                raise
        registry = self._registry()
        registry.counter("budget.reservations", dataset=self.name).inc()
        self._record_budget_gauges(registry)
        return BudgetReservation(self, reservation_id, epsilon, query)

    def charge(self, epsilon: float, query: str, detail: str = "") -> None:
        """One-shot spend: reserve and immediately commit.

        Budget telemetry (epsilon spent/remaining, charge count) is pure
        accounting arithmetic — already public to the analyst via
        :class:`~repro.runtime.service.DatasetDescription` — so exporting
        it as gauges leaks nothing beyond the existing interface.
        """
        self.reserve(epsilon, query).commit(detail)

    def record_replay(self, query: str, detail: str = "answer-cache replay") -> None:
        """Audit a zero-ε replay of an already-published release.

        A cache hit hands out bits the analyst already holds, which is
        free under post-processing — so no reservation is opened and no
        budget moves.  The event still lands in both audit surfaces (a
        ``REPLAY`` journal record and a 0.0-epsilon ledger entry) so an
        auditor can verify the "zero marginal ε" claim against the same
        trail that proves every real spend.  Failing closed: a journal
        that cannot record the event refuses the replay, exactly like a
        reserve would.
        """
        if self.journal is not None:
            self.journal.append(REPLAY, self.name, query=query, detail=detail)
        self.ledger.record(0.0, query, detail)
        registry = self._registry()
        registry.counter("budget.replays", dataset=self.name).inc()
        self._record_budget_gauges(registry)

    # -- reservation callbacks (invoked under the reservation's lock) ----
    def _commit_reservation(self, reservation: BudgetReservation, detail: str) -> None:
        # Write-ahead: the commit record is written before the in-memory
        # spend.  A crash between the two leaves a commit that recovery
        # honors; a journal *failure* — or a power loss before the next
        # fsync — leaves the hold pending, which recovery resolves
        # conservatively as spent: either way the recovered remaining
        # budget is never above the truth.
        if self.journal is not None:
            self.journal.append(
                COMMIT, self.name,
                epsilon=reservation.epsilon,
                reservation_id=reservation._reservation_id,
                query=reservation.query, detail=detail,
            )
            failpoints.hit("manager.commit.durable")
        self.budget.commit_reservation(reservation._reservation_id)
        self.ledger.record(reservation.epsilon, reservation.query, detail)
        registry = self._registry()
        registry.counter("budget.charges", dataset=self.name).inc()
        registry.counter("budget.epsilon_charged", dataset=self.name).inc(
            reservation.epsilon
        )
        self._record_budget_gauges(registry)

    def _rollback_reservation(self, reservation: BudgetReservation) -> None:
        # Journal first here too: a journal failure keeps the hold (the
        # conservative direction), and a crash after the durable
        # rollback correctly frees the epsilon on recovery.
        if self.journal is not None:
            self.journal.append(
                ROLLBACK, self.name,
                epsilon=reservation.epsilon,
                reservation_id=reservation._reservation_id,
                query=reservation.query,
            )
        self.budget.release_reservation(reservation._reservation_id)
        registry = self._registry()
        registry.counter("budget.reservation_rollbacks", dataset=self.name).inc()
        self._record_budget_gauges(registry)


class DatasetManager:
    """Registry of datasets with privacy budgets (trusted component).

    Parameters
    ----------
    metrics:
        Registry receiving budget and journal telemetry; ``None`` uses
        the process default.
    state_dir:
        Directory holding the durable budget journal.  When given, every
        budget lifecycle event is journaled write-ahead, and a
        journal left behind by an earlier process is recovered on
        construction: re-registering a recovered dataset name (with the
        same total budget) adopts its recovered spends bit-for-bit, and
        reservations that were in flight at the crash count as spent.
        ``None`` keeps the manager purely in-memory.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        state_dir: Optional[str] = None,
    ) -> None:
        self._datasets: dict[str, RegisteredDataset] = {}
        self._lock = threading.Lock()
        self._metrics = metrics
        self._versions = itertools.count(1)
        self._invalidation_hooks: list[Callable[[str], None]] = []
        self._journal: Optional[BudgetJournal] = None
        self._recovered: dict[str, RecoveredDataset] = {}
        if state_dir is not None:
            registry = metrics or get_registry()
            path = journal_path(state_dir)
            replayed = recover(path, metrics=registry)
            self._recovered = replayed.datasets
            self._journal = BudgetJournal(path, metrics=metrics)
            if replayed.records:
                # Recovery barrier: reservations from earlier process
                # generations can never be settled now; the barrier makes
                # every future replay resolve them conservatively even
                # once fresh reservations reuse their ids.
                self._journal.append(RECOVERY, "")
                registry.counter("journal.recoveries").inc()

    @property
    def journal(self) -> Optional[BudgetJournal]:
        """The manager's durable journal (``None`` when in-memory)."""
        return self._journal

    def recovered_names(self) -> list[str]:
        """Recovered datasets awaiting re-registration by their owner."""
        with self._lock:
            return list(self._recovered)

    def add_invalidation_hook(
        self, callback: Callable[[str], None]
    ) -> Callable[[], None]:
        """Call ``callback(name)`` whenever ``name``'s registration changes.

        Fired on both register and unregister, *outside* the manager's
        lock (a hook may call back into the manager).  Consumers use it
        to eagerly drop content-derived caches — version-scoped cache
        keys already make stale hits impossible, so the hook is purely
        about reclaiming memory promptly.

        Returns an unsubscribe callable: a consumer that is shut down
        before the manager (e.g. a runtime against a caller-owned
        manager) must call it so the manager does not pin the dead
        consumer and keep invoking it forever.  Unsubscribing twice is
        a no-op.
        """
        with self._lock:
            self._invalidation_hooks.append(callback)
        return lambda: self.remove_invalidation_hook(callback)

    def remove_invalidation_hook(self, callback: Callable[[str], None]) -> None:
        """Remove a previously added hook; a no-op if it is not present."""
        with self._lock:
            try:
                self._invalidation_hooks.remove(callback)
            except ValueError:
                pass

    def _notify_invalidation(self, name: str) -> None:
        with self._lock:
            hooks = list(self._invalidation_hooks)
        for hook in hooks:
            hook(name)

    def close(self) -> None:
        """Flush and close the durable journal (no-op when in-memory)."""
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "DatasetManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def register(
        self,
        name: str,
        table: Optional[DataTable],
        total_budget: float,
        aged_fraction: float = 0.0,
        aged_table: Optional[DataTable] = None,
        rng: RandomSource = None,
    ) -> RegisteredDataset:
        """Register ``table`` under ``name`` with a total privacy budget.

        ``table=None`` registers the budget alone: the manager then
        holds no records for ``name``, only its accounting.

        Aged data can be supplied in two ways:

        * ``aged_table`` — an explicit privacy-expired dataset (e.g. the
          70-year-old census of the paper's Example 1), or
        * ``aged_fraction`` — carve a uniformly random fraction out of
          ``table`` itself and treat it as expired; the remainder stays
          privacy-sensitive.  This mirrors the paper's simplifying model
          where "a constant fraction of the dataset has completely aged
          out" (§3.3) and is what the Figure 7/8 experiments do with 10%.

        A :class:`~repro.datasets.table.FederatedTable` registers here
        too — budgets, ledgers and journals are coordinator-side by
        design, whoever holds the rows — but cannot carve an aged slice:
        aging needs the records, and federated records never enter this
        process.
        """
        if not name:
            raise DatasetError("dataset name must be non-empty")
        if aged_table is not None and aged_fraction:
            raise DatasetError("pass either aged_table or aged_fraction, not both")
        if getattr(table, "federated", False) and (
            aged_fraction or aged_table is not None
        ):
            raise DatasetError(
                f"dataset {name!r} is federated: aged slices need the rows, "
                "which never enter the coordinator"
            )

        sensitive = table
        aged = aged_table
        if aged_fraction:
            if not 0.0 < aged_fraction < 1.0:
                raise DatasetError("aged_fraction must be in (0, 1)")
            aged, sensitive = table.split(aged_fraction, rng=rng)

        registered = RegisteredDataset(
            name=name,
            table=sensitive,
            budget=PrivacyBudget(total_budget, dataset=name),
            ledger=PrivacyLedger(dataset=name),
            aged=aged,
            version=next(self._versions),
            metrics=self._metrics,
            journal=self._journal,
        )
        with self._lock:
            if name in self._datasets:
                raise DatasetError(f"dataset {name!r} is already registered")
            recovered = self._recovered.get(name)
            if recovered is not None:
                # Adopt the journal's recovered state: the register
                # record is already durable, so none is re-written, and
                # the recovered spends (conservative resolutions
                # included) are replayed into the fresh budget and
                # ledger with ``math.fsum`` parity.
                if recovered.total != registered.budget.total:
                    raise DatasetError(
                        f"dataset {name!r} was journaled with total budget "
                        f"{recovered.total:.6g}, cannot re-register with "
                        f"{registered.budget.total:.6g}"
                    )
                for spend in recovered.committed:
                    registered.ledger.record(
                        spend.epsilon, spend.query, spend.detail
                    )
                registered.budget.restore_spent(
                    [spend.epsilon for spend in recovered.committed]
                )
                del self._recovered[name]
            elif self._journal is not None:
                self._journal.append(
                    REGISTER, name, epsilon=registered.budget.total
                )
            self._datasets[name] = registered
        registry = self._metrics or get_registry()
        registry.gauge("budget.epsilon_total", dataset=name).set(
            registered.budget.total
        )
        registry.gauge("budget.epsilon_remaining", dataset=name).set(
            registered.budget.remaining
        )
        self._notify_invalidation(name)
        return registered

    def get(self, name: str) -> RegisteredDataset:
        """Look up a registered dataset."""
        with self._lock:
            try:
                return self._datasets[name]
            except KeyError:
                raise DatasetError(f"no dataset registered under {name!r}") from None

    def unregister(self, name: str) -> None:
        """Remove a dataset (its budget and ledger are discarded).

        Journaled as a ``retire`` record first, so a recovered journal
        never resurrects a dataset its owner withdrew — and a subsequent
        re-registration under the same name starts a fresh budget, as an
        explicit owner action legitimately may.
        """
        with self._lock:
            if name not in self._datasets:
                raise DatasetError(f"no dataset registered under {name!r}")
            if self._journal is not None:
                self._journal.append(RETIRE, name)
            del self._datasets[name]
        self._notify_invalidation(name)

    def names(self) -> list[str]:
        """Registered dataset names in registration order."""
        with self._lock:
            return list(self._datasets)

    def remaining_budget(self, name: str) -> float:
        """Convenience accessor for a dataset's remaining epsilon."""
        return self.get(name).budget.remaining
