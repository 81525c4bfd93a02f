"""The query scheduler: admission, fairness, timeouts, shutdown, stress.

Two layers of tests:

* **Unit battery** — drives :class:`QueryScheduler` with plain runner
  callables (the scheduler is generic over them), pinning admission
  control, per-dataset FIFO order, round-robin fairness, timeout and
  cancellation semantics, structured-error guarantees and clean
  shutdown.
* **Acceptance stress** — the ISSUE's 32-thread scenario against the
  real :class:`GuptService` at an exact-fit budget: total epsilon never
  exceeds the budget (bit-exact), every admitted query gets exactly one
  terminal response, and the post-drain queue depth reads zero.
"""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.exceptions import GuptError
from repro.observability import MetricsRegistry
from repro.runtime import scheduler as scheduler_module
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.service import (
    ANALYST,
    OWNER,
    GuptService,
    QueryRequest,
    QueryResponse,
)


def _request(dataset="d"):
    """The scheduler only reads ``request.dataset``; a stub suffices."""
    return SimpleNamespace(dataset=dataset)


def _ok(request):
    return QueryResponse(ok=True, value=(1.0,), epsilon_charged=0.1)


class TestAdmission:
    def test_accepts_and_resolves(self):
        with QueryScheduler(workers=2, metrics=MetricsRegistry()) as scheduler:
            handle = scheduler.submit(_ok, _request())
            response = scheduler.result(handle)
            assert response.ok
            assert response.value == (1.0,)

    def test_per_principal_inflight_limit(self):
        registry = MetricsRegistry()
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, max_inflight=2, metrics=registry) as scheduler:
            first = scheduler.submit(blocked, _request(), principal="eve")
            second = scheduler.submit(blocked, _request(), principal="eve")
            third = scheduler.submit(blocked, _request(), principal="eve")
            other = scheduler.submit(blocked, _request(), principal="bob")
            rejected = scheduler.result(third)
            assert not rejected.ok
            assert "in flight" in rejected.error
            gate.set()
            assert scheduler.result(first).ok
            assert scheduler.result(second).ok
            assert scheduler.result(other).ok  # limits are per principal
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.admission_rejections"] == 1.0

    def test_queue_depth_limit(self):
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(
            workers=1, max_inflight=64, queue_depth=2, metrics=MetricsRegistry()
        ) as scheduler:
            handles = [scheduler.submit(blocked, _request()) for _ in range(6)]
            gate.set()
            responses = [scheduler.result(h) for h in handles]
        refused = [r for r in responses if not r.ok]
        assert refused and all("queue is full" in r.error for r in refused)
        # Everyone got exactly one terminal answer either way.
        assert len(responses) == 6

    def test_rejection_never_raises(self):
        def boom(request):
            raise RuntimeError("runner should never run")

        with QueryScheduler(
            workers=1, max_inflight=1, metrics=MetricsRegistry()
        ) as scheduler:
            gate = threading.Event()

            def blocked(request):
                gate.wait(5.0)
                return _ok(request)

            scheduler.submit(blocked, _request(), principal="p")
            handle = scheduler.submit(boom, _request(), principal="p")
            response = scheduler.result(handle)  # resolved, not raised
            assert not response.ok
            gate.set()

    def test_unknown_handle_raises(self):
        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            bogus = SimpleNamespace(id=10_000, dataset="d", principal="")
            with pytest.raises(GuptError, match="unknown query handle"):
                scheduler.result(bogus)


class TestFairnessAndOrder:
    def test_per_dataset_fifo_order(self):
        """Same-dataset queries run strictly in submission order."""
        order: list[int] = []
        lock = threading.Lock()

        def tracked(request):
            with lock:
                order.append(request.index)
            return _ok(request)

        with QueryScheduler(
            workers=4, max_inflight=64, metrics=MetricsRegistry()
        ) as scheduler:
            handles = []
            for i in range(12):
                request = _request("d")
                request.index = i
                handles.append(scheduler.submit(tracked, request))
            for handle in handles:
                scheduler.result(handle)
        assert order == list(range(12))

    def test_one_inflight_per_dataset(self):
        """Two same-dataset queries never overlap, even with idle workers."""
        active = []
        overlap = []
        lock = threading.Lock()

        def tracked(request):
            with lock:
                active.append(request.dataset)
                if active.count(request.dataset) > 1:
                    overlap.append(request.dataset)
            time.sleep(0.02)
            with lock:
                active.remove(request.dataset)
            return _ok(request)

        with QueryScheduler(workers=4, metrics=MetricsRegistry()) as scheduler:
            handles = [scheduler.submit(tracked, _request("d")) for _ in range(6)]
            for handle in handles:
                scheduler.result(handle)
        assert overlap == []

    def test_round_robin_across_datasets(self):
        """A hot dataset cannot starve the others: everyone finishes."""
        finished: list[str] = []
        lock = threading.Lock()

        def tracked(request):
            time.sleep(0.005)
            with lock:
                finished.append(request.dataset)
            return _ok(request)

        with QueryScheduler(
            workers=2, max_inflight=64, metrics=MetricsRegistry()
        ) as scheduler:
            handles = [scheduler.submit(tracked, _request("hot")) for _ in range(8)]
            handles += [scheduler.submit(tracked, _request("cold"))]
            for handle in handles:
                scheduler.result(handle)
        # The single cold query does not finish last behind the hot burst.
        assert finished.index("cold") < len(finished) - 1

    def test_distinct_datasets_run_concurrently(self):
        barrier = threading.Barrier(2, timeout=5.0)

        def meet(request):
            barrier.wait()  # deadlocks (and times out) unless both overlap
            return _ok(request)

        with QueryScheduler(workers=2, metrics=MetricsRegistry()) as scheduler:
            a = scheduler.submit(meet, _request("a"))
            b = scheduler.submit(meet, _request("b"))
            assert scheduler.result(a).ok
            assert scheduler.result(b).ok


class TestTimeoutsAndCancellation:
    def test_queued_query_times_out_without_running(self):
        registry = MetricsRegistry()
        gate = threading.Event()
        ran = []

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        def tracked(request):
            ran.append(True)
            return _ok(request)

        with QueryScheduler(
            workers=1, query_timeout=0.1, metrics=registry
        ) as scheduler:
            scheduler.submit(blocked, _request())
            handle = scheduler.submit(tracked, _request())
            response = scheduler.result(handle)
            assert not response.ok
            assert "timed out before dispatch" in response.error
            assert "no budget was spent" in response.error
            gate.set()
        assert ran == []  # the timed-out query never executed
        assert registry.snapshot()["counters"]["scheduler.timeout_kills"] >= 1.0

    def test_deadline_passing_between_pop_and_start_kills_before_runner(
        self, monkeypatch
    ):
        """A query whose deadline passes after a worker pops it but before
        its runner starts is killed there, before any reservation."""
        clock = SimpleNamespace(now=1000.0)
        monkeypatch.setattr(
            scheduler_module, "time", SimpleNamespace(perf_counter=lambda: clock.now)
        )
        claimed = []
        next_ticket = QueryScheduler._next_ticket

        def next_ticket_then_expire(self):
            ticket = next_ticket(self)
            if ticket is not None:
                # The pop saw a live deadline; step the clock past it
                # before the worker reaches dispatch.
                claimed.append(ticket.handle.id)
                clock.now += 60.0
            return ticket

        monkeypatch.setattr(QueryScheduler, "_next_ticket", next_ticket_then_expire)
        ran = []

        def tracked_mean(block):
            ran.append(True)
            return float(np.mean(block))

        registry = MetricsRegistry()
        service = GuptService(
            metrics=registry, rng=3, scheduler_workers=1, query_timeout=30.0
        )
        try:
            owner = service.enroll(OWNER)
            analyst = service.enroll(ANALYST)
            table = DataTable(
                np.random.default_rng(7).uniform(0.0, 10.0, size=(64, 1)),
                column_names=("x",),
            )
            service.register_dataset(owner.token, "d", table, total_budget=1.0)
            handle = service.submit(analyst.token, QueryRequest(
                dataset="d", program=tracked_mean,
                range_strategy=TightRange(((0.0, 10.0),)),
                epsilon=0.25, block_size=8, seed=1,
            ))
            response = service.result(handle)
            assert claimed == [handle.id]  # a worker popped it
            assert ran == []  # ... but the program never ran
            assert not response.ok
            assert response.code == "timeout"
            assert "before dispatch" in response.error
            assert response.epsilon_charged == 0.0
            description = service.describe_dataset(owner.token, "d")
            assert description.remaining_budget == 1.0
            assert service.ledger_entries(owner.token, "d") == []
        finally:
            service.close()
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.timeout_kills"] == 1.0

    def test_running_query_timeout_discards_result(self):
        def slow(request):
            time.sleep(0.25)
            return QueryResponse(ok=True, value=(42.0,), epsilon_charged=0.5)

        with QueryScheduler(
            workers=1, query_timeout=0.05, metrics=MetricsRegistry()
        ) as scheduler:
            handle = scheduler.submit(slow, _request())
            response = scheduler.result(handle)
        assert not response.ok
        assert "timed out while running" in response.error
        # The committed epsilon is reported as spent, not refunded.
        assert "0.5" in response.error
        assert response.value == ()  # the release never reaches the caller

    def test_waiting_on_overrunning_query_blocks_instead_of_spinning(self):
        """Past a running query's deadline, ``result`` honours its own
        wait timeout and blocks on the worker rather than polling."""
        started = threading.Event()
        gate = threading.Event()

        def overrun(request):
            started.set()
            gate.wait(5.0)
            return _ok(request)

        release = threading.Timer(0.4, gate.set)
        try:
            with QueryScheduler(
                workers=1, query_timeout=0.05, metrics=MetricsRegistry()
            ) as scheduler:
                handle = scheduler.submit(overrun, _request())
                assert started.wait(5.0)
                time.sleep(0.1)  # past the deadline, still running
                release.start()
                cpu = time.thread_time()
                assert scheduler.result(handle, timeout=0.0) is None
                assert time.thread_time() - cpu < 0.05
                cpu = time.thread_time()
                response = scheduler.result(handle)
                assert time.thread_time() - cpu < 0.05
        finally:
            release.cancel()
            gate.set()
        assert response.code == "timeout"
        assert "timed out while running" in response.error

    def test_cancel_queued_query(self):
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            scheduler.submit(blocked, _request())
            handle = scheduler.submit(_ok, _request())
            assert scheduler.cancel(handle)
            response = scheduler.result(handle)
            assert not response.ok and "cancelled" in response.error
            assert not scheduler.cancel(handle)  # already terminal
            gate.set()

    def test_cannot_cancel_running_query(self):
        started = threading.Event()
        gate = threading.Event()

        def blocked(request):
            started.set()
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            handle = scheduler.submit(blocked, _request())
            assert started.wait(5.0)
            assert not scheduler.cancel(handle)
            gate.set()
            assert scheduler.result(handle).ok

    def test_result_wait_timeout_returns_none(self):
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            handle = scheduler.submit(blocked, _request())
            assert scheduler.result(handle, timeout=0.05) is None
            gate.set()
            assert scheduler.result(handle).ok


class TestWatch:
    """One-shot state-change callbacks, the HTTP tier's wake-up."""

    def test_callbacks_fire_once_per_change_outside_the_lock(self):
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            scheduler.submit(blocked, _request())
            handle = scheduler.submit(_ok, _request())
            seen: list[str] = []
            settled = threading.Event()

            def rewatch():
                # watch takes the scheduler lock: a callback fired under
                # it would deadlock right here.
                state = scheduler.watch(handle, rewatch)
                seen.append(state)
                if state == "done":
                    settled.set()

            once: list[str] = []
            dropped: list[str] = []
            assert scheduler.watch(handle, rewatch) == "queued"
            assert scheduler.watch(handle, lambda: once.append("fired")) == "queued"
            unwatched = lambda: dropped.append("fired")  # noqa: E731
            scheduler.watch(handle, unwatched)
            scheduler.unwatch(handle, unwatched)
            gate.set()
            assert settled.wait(5.0)
            assert seen == ["running", "done"]
            assert once == ["fired"]  # dropped after its first change
            assert dropped == []
            # A settled ticket registers nothing and reports "done".
            assert scheduler.watch(handle, lambda: dropped.append("late")) == "done"
        assert dropped == []

    def test_expires_in_tracks_only_queued_deadlines(self):
        gate, started = threading.Event(), threading.Event()

        def blocked(request):
            started.set()
            gate.wait(5.0)
            return _ok(request)

        with QueryScheduler(workers=1, query_timeout=5.0) as scheduler:
            running = scheduler.submit(blocked, _request())
            queued = scheduler.submit(_ok, _request())
            assert started.wait(5.0)
            assert scheduler.expires_in(running) is None
            assert 0.0 < scheduler.expires_in(queued) <= 5.0
            gate.set()
        with QueryScheduler(workers=1) as scheduler:
            assert scheduler.expires_in(scheduler.submit(_ok, _request())) is None


class TestShutdown:
    def test_drain_settles_everything(self):
        registry = MetricsRegistry()
        scheduler = QueryScheduler(workers=2, max_inflight=64, metrics=registry)
        handles = [scheduler.submit(_ok, _request(f"d{i % 3}")) for i in range(9)]
        scheduler.close(drain=True)
        assert all(scheduler.result(h).ok for h in handles)
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["scheduler.queue_depth"] == 0.0
        assert snapshot["gauges"]["scheduler.running"] == 0.0

    def test_immediate_close_refuses_queued(self):
        gate = threading.Event()

        def blocked(request):
            gate.wait(5.0)
            return _ok(request)

        scheduler = QueryScheduler(workers=1, metrics=MetricsRegistry())
        running = scheduler.submit(blocked, _request())
        queued = scheduler.submit(_ok, _request())
        gate.set()
        scheduler.close(drain=False)
        queued_response = scheduler.result(queued)
        # The queued query resolved structurally either way: normally if
        # the worker got to it before close, as a shutdown refusal if not.
        assert queued_response is not None
        assert scheduler.result(running) is not None

    def test_submit_after_close_is_structured(self):
        scheduler = QueryScheduler(workers=1, metrics=MetricsRegistry())
        scheduler.close()
        handle = scheduler.submit(_ok, _request())
        response = scheduler.result(handle)
        assert not response.ok
        assert "shutting down" in response.error

    def test_runner_exception_becomes_structured_response(self):
        def boom(request):
            raise ValueError("kaboom")

        with QueryScheduler(workers=1, metrics=MetricsRegistry()) as scheduler:
            handle = scheduler.submit(boom, _request())
            response = scheduler.result(handle)
        assert not response.ok
        assert "internal error" in response.error
        assert "kaboom" not in response.error  # no internal detail leaks

    def test_invalid_configuration_rejected(self):
        for kwargs in (
            dict(workers=0),
            dict(max_inflight=0),
            dict(queue_depth=0),
            dict(query_timeout=0.0),
        ):
            with pytest.raises(GuptError):
                QueryScheduler(metrics=MetricsRegistry(), **kwargs)


class TestServiceStressAcceptance:
    """The ISSUE's 32-thread acceptance scenario on the real service."""

    THREADS = 32
    EPSILON = 0.25  # binary-exact: 8 * 0.25 == 2.0
    BUDGET = 2.0
    FITS = 8

    @staticmethod
    def _mean(block):
        return float(np.mean(block))

    @pytest.mark.parametrize(
        "durable", [False, True], ids=["in-memory", "journaled"]
    )
    def test_exact_fit_budget_under_contention(self, durable, tmp_path):
        registry = MetricsRegistry()
        state_dir = str(tmp_path) if durable else None
        service = GuptService(
            metrics=registry,
            rng=2024,
            scheduler_workers=4,
            max_inflight=self.THREADS,
            queue_depth=self.THREADS,
            state_dir=state_dir,
        )
        owner = service.enroll(OWNER, "owner")
        rng = np.random.default_rng(7)
        table = DataTable(rng.uniform(0.0, 10.0, size=(64, 1)), column_names=("x",))
        service.register_dataset(owner.token, "shared", table, total_budget=self.BUDGET)
        analysts = [
            service.enroll(ANALYST, f"a{i}") for i in range(self.THREADS)
        ]

        barrier = threading.Barrier(self.THREADS)
        handles: list = [None] * self.THREADS

        def attack(slot: int) -> None:
            request = QueryRequest(
                dataset="shared",
                program=self._mean,
                range_strategy=TightRange(((0.0, 10.0),)),
                epsilon=self.EPSILON,
                block_size=8,
                query_name=f"q{slot}",
                seed=slot,
            )
            barrier.wait()
            handles[slot] = service.submit(analysts[slot].token, request)

        threads = [
            threading.Thread(target=attack, args=(i,)) for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        responses = [service.result(handle) for handle in handles]
        # Exactly one terminal response per admitted query; asking again
        # returns the very same terminal object.
        assert all(r is not None for r in responses)
        again = [service.result(handle) for handle in handles]
        assert all(a is b for a, b in zip(responses, again))

        succeeded = [r for r in responses if r.ok]
        refused = [r for r in responses if not r.ok]
        # The exact-fit budget admits exactly FITS releases — bit-exact,
        # no epsilon slop.
        assert len(succeeded) == self.FITS
        assert len(refused) == self.THREADS - self.FITS
        assert all(r.epsilon_charged == self.EPSILON for r in succeeded)
        assert all(r.epsilon_charged == 0.0 for r in refused)
        assert all(r.error for r in refused)

        description = service.describe_dataset(owner.token, "shared")
        assert description.remaining_budget == 0.0
        entries = service.ledger_entries(owner.token, "shared")
        assert len(entries) == self.FITS
        assert sum(epsilon for _, epsilon in entries) == self.BUDGET

        service.close()
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["scheduler.queue_depth"] == 0.0
        assert snapshot["gauges"]["scheduler.running"] == 0.0
        assert snapshot["counters"]["scheduler.submitted"] == float(self.THREADS)

        if durable:
            # Cold replay of the contention storm: exactly FITS commits
            # survive on disk, spending the budget to the last bit, with
            # every refused reserve either absent or rolled back.
            from repro.accounting.journal import journal_path, recover

            state = recover(journal_path(state_dir)).datasets["shared"]
            assert state.spent == self.BUDGET
            assert state.remaining == 0.0
            assert len(state.committed) == self.FITS
            assert state.conservative == 0
            assert not state.pending

    def test_scheduled_results_match_serial_bit_for_bit(self):
        """Seeded queries: contention cannot perturb a single bit."""

        def run_serial() -> list[tuple[float, ...]]:
            service = GuptService(metrics=MetricsRegistry(), rng=555)
            owner = service.enroll(OWNER)
            analyst = service.enroll(ANALYST)
            rng = np.random.default_rng(7)
            table = DataTable(
                rng.uniform(0.0, 10.0, size=(64, 1)), column_names=("x",)
            )
            service.register_dataset(owner.token, "d", table, total_budget=50.0)
            values = []
            for i in range(10):
                response = service.execute(analyst.token, QueryRequest(
                    dataset="d",
                    program=self._mean,
                    range_strategy=TightRange(((0.0, 10.0),)),
                    epsilon=0.5,
                    block_size=8,
                    seed=1000 + i,
                ))
                assert response.ok
                values.append(response.value)
            service.close()
            return values

        def run_scheduled() -> list[tuple[float, ...]]:
            service = GuptService(
                metrics=MetricsRegistry(), rng=777, scheduler_workers=4,
                max_inflight=32, queue_depth=32,
            )
            owner = service.enroll(OWNER)
            analyst = service.enroll(ANALYST)
            rng = np.random.default_rng(7)
            table = DataTable(
                rng.uniform(0.0, 10.0, size=(64, 1)), column_names=("x",)
            )
            service.register_dataset(owner.token, "d", table, total_budget=50.0)
            # Submit in reverse to force a different interleaving than
            # the serial loop; seeds pin the randomness regardless.
            handles = {}
            for i in reversed(range(10)):
                handles[i] = service.submit(analyst.token, QueryRequest(
                    dataset="d",
                    program=self._mean,
                    range_strategy=TightRange(((0.0, 10.0),)),
                    epsilon=0.5,
                    block_size=8,
                    seed=1000 + i,
                ))
            values = []
            for i in range(10):
                response = service.result(handles[i])
                assert response.ok
                values.append(response.value)
            service.close()
            return values

        assert run_serial() == run_scheduled()
