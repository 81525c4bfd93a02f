"""The query scheduler: admission, queueing and dispatch for the service.

GUPT's Figure 2 deployment is a *hosted* platform: many analysts submit
queries concurrently against shared datasets.  This module is the
serving layer that makes that safe and fair:

* **Admission control.**  A submission is rejected — with a structured
  :class:`~repro.runtime.service.QueryResponse`, never an exception —
  when its principal already has ``max_inflight`` queries in flight or
  the global queue holds ``queue_depth`` queries.  Back-pressure is
  explicit and observable instead of an unbounded queue.
* **Per-dataset FIFO fairness.**  Queries are queued per dataset and
  dispatched in submission order, one in flight per dataset at a time;
  datasets take turns round-robin.  Serializing each dataset's queries
  keeps its budget burn-down order deterministic and stops one hot
  dataset from starving the others; parallelism comes from concurrent
  datasets and from the block-level execution backend underneath
  (the remote :class:`ComputationManager`).
* **Per-query timeouts.**  A query that exceeds ``query_timeout`` —
  waiting or running — resolves to a structured timeout response.  A
  still-queued query is killed before it ever reserves budget; a
  running query cannot be interrupted mid-release, so its value is
  discarded and any committed epsilon stays spent (discarding a
  released value is always privacy-safe; un-spending is not).
* **Clean shutdown.**  ``close(drain=True)`` stops admissions, lets
  queued and running queries finish, and leaves ``scheduler.queue_depth``
  at zero; ``close(drain=False)`` resolves queued queries with shutdown
  responses and only waits for the running ones.

Every admitted query gets exactly one terminal response, retrievable
any number of times through its :class:`QueryHandle`.  Waiters that
cannot block a thread (the HTTP tier's event loop) register a one-shot
callback with :meth:`QueryScheduler.watch` instead of polling; it fires
on the ticket's next state change, outside the scheduler lock.

Telemetry (all release-safe: queue geometry, counts and wall-clock,
never query values): ``scheduler.queue_depth``, ``scheduler.running``,
``scheduler.submitted``, ``scheduler.admission_rejections``,
``scheduler.completed``, ``scheduler.timeout_kills``,
``scheduler.cancellations``, ``scheduler.reservation_rollbacks``,
``scheduler.wait_seconds``, ``scheduler.run_seconds``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.exceptions import GuptError, UnknownHandleError
from repro.observability import MetricsRegistry, get_registry
from repro.testing import failpoints

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.runtime.service import QueryRequest, QueryResponse

#: Ticket lifecycle states.
_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"


@dataclass(frozen=True)
class QueryHandle:
    """An opaque claim ticket for one submitted query.

    Carries only public metadata (no token, no values): the scheduler's
    sequence id, the target dataset and the submitting principal's
    public name.
    """

    id: int
    dataset: str
    principal: str = ""


class _Ticket:
    """Scheduler-internal state for one submission."""

    __slots__ = (
        "handle", "request", "runner", "deadline", "state",
        "response", "done", "submitted_at", "started_at", "watchers",
    )

    def __init__(self, handle, request, runner, deadline):
        self.handle = handle
        self.request = request
        self.runner = runner
        self.deadline = deadline
        self.state = _QUEUED
        self.response = None
        self.done = threading.Event()
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.watchers: list[Callable[[], None]] = []


class QueryScheduler:
    """Admits, queues and dispatches queries across worker threads.

    Parameters
    ----------
    workers:
        Dispatcher threads.  Each runs one query at a time; useful
        parallelism requires queries on distinct datasets (per-dataset
        FIFO serializes same-dataset queries) or a parallel block-level
        backend underneath.
    max_inflight:
        Per-principal cap on queries that are queued or running.
    queue_depth:
        Global cap on queued (admitted, not yet running) queries.
    query_timeout:
        Seconds from submission until a query times out; ``None``
        disables timeouts.
    metrics:
        Registry receiving the scheduler's release-safe telemetry;
        ``None`` uses the process default.
    """

    def __init__(
        self,
        workers: int = 4,
        max_inflight: int = 8,
        queue_depth: int = 64,
        query_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if workers < 1:
            raise GuptError("workers must be >= 1")
        if max_inflight < 1:
            raise GuptError("max_inflight must be >= 1")
        if queue_depth < 1:
            raise GuptError("queue_depth must be >= 1")
        if query_timeout is not None and query_timeout <= 0:
            raise GuptError("query_timeout must be positive (or None)")
        self._max_inflight = max_inflight
        self._queue_depth = queue_depth
        self._query_timeout = query_timeout
        self._metrics = metrics

        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queues: dict[str, deque[_Ticket]] = {}
        self._rotation: deque[str] = deque()
        self._busy_datasets: set[str] = set()
        self._inflight: dict[str, int] = {}
        self._tickets: dict[int, _Ticket] = {}
        # Watch callbacks whose ticket changed state, queued under the
        # lock and fired by whichever thread releases it next.
        self._fired: deque[Callable[[], None]] = deque()
        self._ids = itertools.count()
        self._queued_total = 0
        self._running_total = 0
        self._closing = False
        self._close_finished = False

        registry = self._registry()
        registry.gauge("scheduler.queue_depth").set(0)
        registry.gauge("scheduler.running").set(0)
        registry.gauge("scheduler.workers").set(workers)
        # Materialize the counters at zero so snapshots always carry them.
        for name in (
            "scheduler.submitted",
            "scheduler.admission_rejections",
            "scheduler.completed",
            "scheduler.timeout_kills",
            "scheduler.cancellations",
            "scheduler.reservation_rollbacks",
        ):
            registry.counter(name).inc(0)

        self._threads = [
            threading.Thread(
                target=self._worker, name=f"gupt-scheduler-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    @property
    def queue_depth(self) -> int:
        """Queries admitted but not yet dispatched."""
        return self._queued_total

    @property
    def query_timeout(self) -> float | None:
        return self._query_timeout

    def submit(
        self,
        runner: Callable[["QueryRequest"], "QueryResponse"],
        request: "QueryRequest",
        principal: str = "",
    ) -> QueryHandle:
        """Admit one query; always returns a handle, never raises.

        ``runner`` is the blocking execution callable (the service binds
        it to the authenticated principal); the scheduler invokes it on
        a dispatcher thread.  A rejected submission's handle resolves
        immediately to the structured rejection response.
        """
        registry = self._registry()
        deadline = (
            time.perf_counter() + self._query_timeout
            if self._query_timeout is not None
            else None
        )
        with self._lock:
            handle = QueryHandle(
                id=next(self._ids), dataset=request.dataset, principal=principal
            )
            ticket = _Ticket(handle, request, runner, deadline)
            self._tickets[handle.id] = ticket
            registry.counter("scheduler.submitted").inc()
            if self._closing:
                self._reject(
                    ticket, "scheduler is shutting down",
                    "scheduler_shutdown", registry,
                )
                return handle
            if self._inflight.get(principal, 0) >= self._max_inflight:
                self._reject(
                    ticket,
                    f"principal has {self._max_inflight} queries in flight "
                    f"(limit {self._max_inflight})",
                    "max_inflight",
                    registry,
                )
                return handle
            if self._queued_total >= self._queue_depth:
                self._reject(
                    ticket,
                    f"scheduler queue is full ({self._queue_depth} queries)",
                    "queue_full",
                    registry,
                )
                return handle
            queue = self._queues.setdefault(request.dataset, deque())
            queue.append(ticket)
            if request.dataset not in self._rotation:
                self._rotation.append(request.dataset)
            self._inflight[principal] = self._inflight.get(principal, 0) + 1
            self._queued_total += 1
            registry.gauge("scheduler.queue_depth").set(self._queued_total)
            self._work.notify()
        return handle

    def result(self, handle: QueryHandle, timeout: float | None = None):
        """Block until the query resolves; returns its terminal response.

        ``timeout`` bounds *this wait*, not the query: when it elapses
        first, ``None`` is returned and the query keeps running — call
        again later.  The per-query timeout configured on the scheduler
        is enforced independently.
        """
        ticket = self._ticket(handle)
        wait_deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while True:
            remaining = None
            if wait_deadline is not None:
                remaining = max(0.0, wait_deadline - time.perf_counter())
            if ticket.deadline is not None and ticket.state == _QUEUED:
                # Wake up at the query's own deadline so a queued query
                # stuck behind a long-running one still times out on
                # schedule rather than when a worker finally pops it.
                # A running query is settled by its worker, so waiting
                # for it just blocks on ``done``.
                until_deadline = max(0.0, ticket.deadline - time.perf_counter())
                remaining = (
                    until_deadline if remaining is None
                    else min(remaining, until_deadline)
                )
            if ticket.done.wait(remaining):
                return ticket.response
            if ticket.deadline is not None and (
                time.perf_counter() >= ticket.deadline
            ):
                self._expire(ticket)
                if ticket.done.is_set():
                    return ticket.response
            if wait_deadline is not None and time.perf_counter() >= wait_deadline:
                return None

    def watch(self, handle: QueryHandle, callback: Callable[[], None]) -> str:
        """Call ``callback()`` once, on the query's next state change.

        Returns the state at registration; the callback fires when the
        ticket moves past it (queued → running, or → done) and is
        dropped once it fires.  It runs on a scheduler or caller thread
        that does not hold the scheduler lock, so it must be quick and
        must not raise.  A done ticket never changes again, so its
        callback is not registered.
        """
        ticket = self._ticket(handle)
        with self._lock:
            if ticket.state != _DONE:
                ticket.watchers.append(callback)
            return ticket.state

    def unwatch(self, handle: QueryHandle, callback: Callable[[], None]) -> None:
        """Drop a :meth:`watch` callback that has not fired (else a no-op)."""
        ticket = self._ticket(handle)
        with self._lock:
            if callback in ticket.watchers:
                ticket.watchers.remove(callback)

    def expires_in(self, handle: QueryHandle) -> float | None:
        """Seconds until a still-queued query times out (0.0 once due).

        ``None`` without a ``query_timeout`` or once the query left the
        queue.  Nothing expires a queued query on its own; a waiter that
        reaches this deadline settles it with ``result(handle, 0)``.
        """
        ticket = self._ticket(handle)
        if ticket.deadline is None or ticket.state != _QUEUED:
            return None
        return max(0.0, ticket.deadline - time.perf_counter())

    def cancel(self, handle: QueryHandle) -> bool:
        """Cancel a still-queued query; returns whether it was cancelled.

        A running or finished query cannot be cancelled (its reservation
        may already be committed); the method returns ``False`` and the
        query resolves normally.
        """
        ticket = self._ticket(handle)
        registry = self._registry()
        with self._lock:
            if ticket.state != _QUEUED:
                return False
            registry.counter("scheduler.cancellations").inc()
            self._finalize_queued(
                ticket,
                self._response(
                    ok=False, error="query cancelled before dispatch",
                    code="cancelled",
                ),
                "cancelled",
                registry,
            )
        self._fire_watchers()
        return True

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until no queries are queued or running."""
        deadline = time.perf_counter() + timeout if timeout is not None else None
        with self._idle:
            while self._queued_total > 0 or self._running_total > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    def close(self, drain: bool = True) -> None:
        """Stop admissions, settle the queue, and join the workers.

        Exactly-once: the first call performs the shutdown (refusals,
        thread joins, final gauge writes); later calls — overlapping
        teardown paths, context-manager exit after an explicit close —
        return immediately without touching anything.
        """
        registry = self._registry()
        with self._lock:
            if self._close_finished:
                return
            if not self._closing:
                self._closing = True
                if not drain:
                    for queue in self._queues.values():
                        for ticket in list(queue):
                            if ticket.state == _QUEUED:
                                self._finalize_queued(
                                    ticket,
                                    self._response(
                                        ok=False,
                                        error="scheduler shut down before dispatch",
                                        code="scheduler_shutdown",
                                    ),
                                    "shutdown",
                                    registry,
                                )
            self._work.notify_all()
        self._fire_watchers()
        for thread in self._threads:
            thread.join()
        registry.gauge("scheduler.queue_depth").set(self._queued_total)
        registry.gauge("scheduler.running").set(0)
        with self._lock:
            self._close_finished = True

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _response(ok: bool, error: str, code: str):
        from repro.runtime.service import QueryResponse

        return QueryResponse(ok=ok, error=error, code=code)

    def _ticket(self, handle: QueryHandle) -> _Ticket:
        ticket = self._tickets.get(handle.id)
        if ticket is None:
            raise UnknownHandleError(f"unknown query handle {handle.id}")
        return ticket

    def state(self, handle: QueryHandle) -> str:
        """Lifecycle state of one submission: queued, running or done.

        Public metadata only (the same states the queue-depth and
        running gauges aggregate); safe to surface to the submitting
        analyst, e.g. as the HTTP tier's poll/SSE status field.
        """
        return self._ticket(handle).state

    def _set_state(self, ticket: _Ticket, state: str) -> None:
        """Move a ticket to ``state`` and queue its watchers (lock held).

        Settling a ticket calls this last, after its response and
        telemetry: a ``result`` waiter or a watcher on another thread may
        run as soon as ``done`` is set, and ``done`` is set before
        ``state`` so a lock-free reader that sees "done" can always
        collect the response.
        """
        if state == _DONE:
            ticket.done.set()
        ticket.state = state
        self._fired.extend(ticket.watchers)
        ticket.watchers.clear()

    def _fire_watchers(self) -> None:
        """Run queued watch callbacks (lock *not* held; any thread)."""
        while self._fired:
            try:
                callback = self._fired.popleft()
            except IndexError:  # another thread took the last one
                return
            callback()

    def _reject(self, ticket: _Ticket, reason: str, code: str, registry) -> None:
        """Settle a submission that was never admitted (lock held)."""
        registry.counter("scheduler.admission_rejections").inc()
        registry.counter("scheduler.completed", outcome="rejected").inc()
        ticket.response = self._response(ok=False, error=reason, code=code)
        self._set_state(ticket, _DONE)

    def _finalize_queued(
        self, ticket: _Ticket, response, outcome: str, registry
    ) -> None:
        """Resolve an admitted-but-queued ticket (lock held).

        The ticket stays in its dataset deque — dispatch skips settled
        tickets — so cancellation and expiry are O(1).
        """
        ticket.response = response
        self._queued_total -= 1
        principal = ticket.handle.principal
        self._inflight[principal] = self._inflight.get(principal, 1) - 1
        registry.counter("scheduler.completed", outcome=outcome).inc()
        registry.gauge("scheduler.queue_depth").set(self._queued_total)
        self._set_state(ticket, _DONE)
        self._idle.notify_all()

    def _timed_out_before_dispatch(self, registry):
        """Count a pre-run timeout kill; returns its terminal response."""
        registry.counter("scheduler.timeout_kills").inc()
        return self._response(
            ok=False,
            error="query timed out before dispatch; no budget was spent",
            code="timeout",
        )

    def _expire(self, ticket: _Ticket) -> None:
        """Time out a still-queued ticket (called from ``result``)."""
        registry = self._registry()
        with self._lock:
            if ticket.state != _QUEUED:
                return
            self._finalize_queued(
                ticket, self._timed_out_before_dispatch(registry),
                "timeout", registry,
            )
        self._fire_watchers()

    def _next_ticket(self) -> _Ticket | None:
        """Pop the next dispatchable ticket, round-robin (lock held)."""
        registry = self._registry()
        for _ in range(len(self._rotation)):
            dataset = self._rotation.popleft()
            queue = self._queues.get(dataset)
            if not queue:
                self._queues.pop(dataset, None)
                continue
            if dataset in self._busy_datasets:
                self._rotation.append(dataset)
                continue
            ticket = None
            while queue:
                candidate = queue.popleft()
                if candidate.state != _QUEUED:
                    continue  # settled by cancel/expire; lazily dropped
                if candidate.deadline is not None and (
                    time.perf_counter() >= candidate.deadline
                ):
                    self._finalize_queued(
                        candidate, self._timed_out_before_dispatch(registry),
                        "timeout", registry,
                    )
                    continue
                ticket = candidate
                break
            if queue:
                self._rotation.append(dataset)
            else:
                self._queues.pop(dataset, None)
            if ticket is not None:
                self._busy_datasets.add(dataset)
                return ticket
        return None

    def _settle(
        self,
        ticket: _Ticket,
        response,
        outcome: str,
        elapsed: float,
        registry,
    ) -> None:
        """Resolve one dispatched ticket and free its dataset's slot."""
        with self._work:
            ticket.response = response
            self._running_total -= 1
            principal = ticket.handle.principal
            self._inflight[principal] = self._inflight.get(principal, 1) - 1
            dataset = ticket.handle.dataset
            self._busy_datasets.discard(dataset)
            if self._queues.get(dataset) and dataset not in self._rotation:
                self._rotation.append(dataset)
            registry.counter("scheduler.completed", outcome=outcome).inc()
            registry.gauge("scheduler.running").set(self._running_total)
            registry.histogram("scheduler.run_seconds").observe(elapsed)
            self._set_state(ticket, _DONE)
            self._work.notify_all()
            self._idle.notify_all()
        self._fire_watchers()

    def _worker(self) -> None:
        registry = self._registry()
        while True:
            with self._work:
                ticket = self._next_ticket()
                # _next_ticket may expire queued tickets: leave the lock
                # to fire their watchers.
                while ticket is None and not self._fired:
                    if self._closing and self._queued_total == 0:
                        return
                    self._work.wait(0.05)
                    ticket = self._next_ticket()
                if ticket is not None:
                    self._set_state(ticket, _RUNNING)
                    self._queued_total -= 1
                    self._running_total += 1
                    registry.gauge("scheduler.queue_depth").set(self._queued_total)
                    registry.gauge("scheduler.running").set(self._running_total)
            self._fire_watchers()
            if ticket is not None:
                self._dispatch_one(ticket, registry)

    def _dispatch_one(self, ticket: _Ticket, registry) -> None:
        """Run one claimed ticket to its terminal response."""
        ticket.started_at = time.perf_counter()
        registry.histogram("scheduler.wait_seconds").observe(
            ticket.started_at - ticket.submitted_at
        )
        if ticket.deadline is not None and ticket.started_at >= ticket.deadline:
            # The deadline can pass between the pop and this point; like
            # the queued-expiry path, the query is killed before its
            # runner — and before any reservation — ever executes.
            self._settle(
                ticket, self._timed_out_before_dispatch(registry),
                "timeout", 0.0, registry,
            )
            return

        try:
            # Durability crash site: killing the process here models
            # a service dying with a dispatched-but-unstarted query —
            # nothing is reserved yet, so recovery must charge zero.
            failpoints.hit("scheduler.dispatch")
            response = ticket.runner(ticket.request)
        except BaseException as exc:  # noqa: BLE001 - boundary of last resort
            # The runner (service layer) already converts GuptErrors;
            # anything else must still become a structured response.
            response = self._response(
                ok=False,
                error=f"internal error: {type(exc).__name__}",
                code="internal_error",
            )

        elapsed = time.perf_counter() - ticket.started_at
        outcome = "ok" if response.ok else "error"
        if ticket.deadline is not None and time.perf_counter() > ticket.deadline:
            # The query overran while running.  The release cannot be
            # taken back, so its value is discarded; epsilon that was
            # committed stays spent (stated in the error — budget
            # arithmetic only, never values).
            registry.counter("scheduler.timeout_kills").inc()
            charged = getattr(response, "epsilon_charged", 0.0)
            response = self._response(
                ok=False,
                error=(
                    "query timed out while running; result discarded"
                    + (
                        f" (epsilon {charged:.6g} already spent)"
                        if charged
                        else " (no budget was spent)"
                    )
                ),
                code="timeout",
            )
            outcome = "timeout"
        if getattr(response, "epsilon_rolled_back", 0.0) > 0.0:
            registry.counter("scheduler.reservation_rollbacks").inc()

        self._settle(ticket, response, outcome, elapsed, registry)


__all__ = ["QueryHandle", "QueryScheduler"]
