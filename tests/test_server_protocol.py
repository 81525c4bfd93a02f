"""Wire-protocol conformance: the HTTP front door's contract is pinned.

Three layers of golden tests:

1. **Encoding round-trips** — every field of ``QueryResponse`` survives
   ``response_to_wire`` → JSON → ``wire_to_response`` bit-for-bit.
2. **The code/status table** — ``STATUS_FOR_CODE``, the per-exception
   wire codes and ``PROTOCOL_VERSION`` are asserted against literal
   values.  If one of these tests fails, the change is a *breaking
   protocol change*: clients in the field pin these strings.
3. **Live conformance** — a real server is driven through every
   refusal/error class (auth failure, unknown dataset, budget
   exhausted, queue full, max inflight, timeout, cancelled, pending,
   invalid requests) and must answer with exactly the pinned status and
   ``code``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import http.client
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.exceptions import (
    AccuracyGoalInfeasible,
    AuthenticationError,
    AuthorizationError,
    ComputationError,
    DatasetError,
    GuptError,
    InvalidPrivacyParameter,
    InvalidRange,
    JournalCorruption,
    JournalError,
    PrivacyBudgetExhausted,
    SandboxViolation,
    UnknownHandleError,
)
from repro.runtime.service import GuptService, QueryResponse
from repro.server import protocol
from repro.server.client import Backpressure, GuptClient, ServerError
from repro.server.http import GuptHttpServer, _resolve_threadsafe

ADMIN = "test-admin-token"
RANGE = [0.0, 100.0]


def query_body(dataset="census", *, epsilon=0.25, seed=None, name="mean", **extra):
    body = {
        "dataset": dataset,
        "program": {"name": name},
        "range": {"kind": "tight", "ranges": [RANGE]},
        "epsilon": epsilon,
    }
    if seed is not None:
        body["seed"] = seed
    body.update(extra)
    return body


@contextmanager
def server_stack(register: bool = True, num_records: int = 400, budget: float = 50.0,
                 **service_kwargs):
    """A live server plus owner/analyst clients."""
    service = GuptService(rng=0, **service_kwargs)
    server = GuptHttpServer(service, admin_token=ADMIN)
    host, port = server.start()
    bootstrap = GuptClient(host, port)
    owner = GuptClient(host, port, token=bootstrap.enroll("owner", "o", ADMIN))
    analyst = GuptClient(host, port, token=bootstrap.enroll("analyst", "a", ADMIN))
    try:
        if register:
            values = np.random.default_rng(7).uniform(
                *RANGE, size=num_records
            ).tolist()
            owner.register_dataset(
                "census", values, total_budget=budget,
                column_names=["x"], input_ranges=[RANGE],
            )
        yield server, owner, analyst
    finally:
        for client in (bootstrap, owner, analyst):
            client.close()
        server.stop()
        service.close()


def submit_and_wait(analyst: GuptClient, body) -> tuple[int, dict]:
    """Submit, then poll to the terminal payload; returns (status, payload)."""
    query_id = analyst.submit(body)
    while True:
        status, _, payload = analyst.raw_request(
            "GET", f"/v1/queries/{query_id}?timeout=5"
        )
        if status != 202 or payload.get("status") != "pending":
            return status, payload


# ----------------------------------------------------------------------
# 1. Encoding round-trips
# ----------------------------------------------------------------------
class TestWireRoundTrip:
    def test_every_field_round_trips(self):
        response = QueryResponse(
            ok=False,
            value=(1.5, -2.25, 0.1 + 0.2),
            epsilon_charged=0.30000000000000004,
            error="budget says no",
            epsilon_rolled_back=1e-17,
            code="budget_exhausted",
        )
        wire = json.loads(json.dumps(protocol.response_to_wire(response)))
        assert protocol.wire_to_response(wire) == response

    def test_success_round_trips(self):
        response = QueryResponse(ok=True, value=(42.000000000000007,),
                                 epsilon_charged=0.5)
        wire = json.loads(json.dumps(protocol.response_to_wire(response)))
        assert protocol.wire_to_response(wire) == response

    def test_floats_are_bit_identical(self):
        # JSON numbers serialize via repr (shortest round-trip), so any
        # released double crosses the wire unchanged.
        for value in (math.pi, 1e-308, 1.7976931348623157e308, -0.0,
                      2.0 ** -1074, 48.66024209179253):
            wire = json.loads(json.dumps(protocol.response_to_wire(
                QueryResponse(ok=True, value=(value,))
            )))
            decoded = protocol.wire_to_response(wire)
            assert decoded.value[0] == value
            assert math.copysign(1.0, decoded.value[0]) == math.copysign(1.0, value)

    def test_wire_covers_all_dataclass_fields(self):
        # A future field added to QueryResponse must show up on the wire
        # (and in this suite) or this breaks loudly.
        field_names = {f.name for f in dataclasses.fields(QueryResponse)}
        wire = protocol.response_to_wire(QueryResponse(ok=True))
        assert set(wire) == field_names == {
            "ok", "value", "epsilon_charged", "error",
            "epsilon_rolled_back", "code", "cached",
        }

    def test_defaults_are_fillable(self):
        assert protocol.wire_to_response({"ok": True}) == QueryResponse(ok=True)
        refusal = protocol.wire_to_response({"ok": False})
        assert refusal.code == "gupt_error"

    def test_malformed_wire_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.wire_to_response({"value": [1.0]})


# ----------------------------------------------------------------------
# 2. The pinned contract tables
# ----------------------------------------------------------------------
class TestGoldenContract:
    def test_protocol_version(self):
        assert protocol.PROTOCOL_VERSION == 1

    def test_status_table_is_pinned(self):
        # Literal golden copy: any edit here is a breaking change.
        assert protocol.STATUS_FOR_CODE == {
            "ok": 200,
            "pending": 202,
            "invalid_request": 400,
            "gupt_error": 400,
            "invalid_privacy_parameter": 400,
            "invalid_range": 400,
            "svt_error": 400,
            "unauthenticated": 401,
            "budget_exhausted": 402,
            "forbidden": 403,
            "dataset_error": 404,
            "unknown_query": 404,
            "unknown_svt_session": 404,
            "cancelled": 409,
            "not_cancellable": 409,
            "svt_exhausted": 409,
            "accuracy_infeasible": 422,
            "computation_error": 422,
            "sandbox_violation": 422,
            "max_inflight": 429,
            "queue_full": 429,
            "internal_error": 500,
            "journal_corruption": 500,
            "journal_error": 503,
            "scheduler_shutdown": 503,
            "timeout": 504,
        }

    def test_exception_codes_are_pinned(self):
        assert {
            cls: cls.code
            for cls in (
                GuptError, PrivacyBudgetExhausted, InvalidPrivacyParameter,
                InvalidRange, DatasetError, JournalError, JournalCorruption,
                ComputationError, SandboxViolation, AccuracyGoalInfeasible,
                AuthenticationError, AuthorizationError, UnknownHandleError,
            )
        } == {
            GuptError: "gupt_error",
            PrivacyBudgetExhausted: "budget_exhausted",
            InvalidPrivacyParameter: "invalid_privacy_parameter",
            InvalidRange: "invalid_range",
            DatasetError: "dataset_error",
            JournalError: "journal_error",
            JournalCorruption: "journal_corruption",
            ComputationError: "computation_error",
            SandboxViolation: "sandbox_violation",
            AccuracyGoalInfeasible: "accuracy_infeasible",
            AuthenticationError: "unauthenticated",
            AuthorizationError: "forbidden",
            UnknownHandleError: "unknown_query",
        }

    def test_every_exception_code_has_a_status(self):
        for cls in GuptError.__subclasses__() + [GuptError]:
            assert cls.code in protocol.STATUS_FOR_CODE, cls

    def test_retry_after_codes(self):
        assert protocol.RETRY_AFTER_CODES == {
            "max_inflight", "queue_full", "scheduler_shutdown",
        }
        assert protocol.ADMISSION_CODES == {
            "max_inflight", "queue_full", "scheduler_shutdown",
        }


# ----------------------------------------------------------------------
# 3. Live conformance: one test per refusal/error class
# ----------------------------------------------------------------------
class TestAuthConformance:
    def test_missing_token_is_401(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = GuptClient(*server.address).raw_request(
                "GET", "/v1/datasets"
            )
            assert (status, payload["code"]) == (401, "unauthenticated")

    def test_unknown_token_is_401(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request(
                "GET", "/v1/datasets", token="forged"
            )
            assert (status, payload["code"]) == (401, "unauthenticated")

    def test_wrong_role_is_403(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request(
                "POST", "/v1/datasets",
                {"name": "d", "values": [[1.0]], "total_budget": 1.0},
            )
            assert (status, payload["code"]) == (403, "forbidden")
            # ...and the analyst-only side for an owner token:
            status, _, payload = owner.raw_request(
                "POST", "/v1/queries", query_body()
            )
            assert (status, payload["code"]) == (403, "forbidden")

    def test_enroll_needs_admin_token(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request(
                "POST", "/v1/enroll", {"role": "analyst"}, token="wrong-admin"
            )
            assert (status, payload["code"]) == (403, "forbidden")


class TestRefusalConformance:
    def test_unknown_dataset_is_404(self):
        with server_stack() as (server, owner, analyst):
            status, payload = submit_and_wait(analyst, query_body(dataset="nope"))
            assert (status, payload["code"]) == (404, "dataset_error")
            assert payload["ok"] is False

    def test_budget_exhausted_is_402(self):
        with server_stack(budget=1.0) as (server, owner, analyst):
            status, payload = submit_and_wait(analyst, query_body(epsilon=0.75))
            assert (status, payload["code"]) == (200, "ok")
            status, payload = submit_and_wait(analyst, query_body(epsilon=0.75))
            assert (status, payload["code"]) == (402, "budget_exhausted")
            assert payload["epsilon_charged"] == 0.0

    def test_invalid_epsilon_is_400(self):
        with server_stack() as (server, owner, analyst):
            status, payload = submit_and_wait(analyst, query_body(epsilon=-1.0))
            assert (status, payload["code"]) == (400, "invalid_privacy_parameter")

    def test_invalid_range_is_400(self):
        with server_stack() as (server, owner, analyst):
            status, _, payload = analyst.raw_request(
                "POST", "/v1/queries",
                query_body(range={"kind": "tight", "ranges": [[5.0, 1.0]]}),
            )
            assert (status, payload["code"]) == (400, "invalid_range")

    def test_unknown_program_is_400(self):
        with server_stack() as (server, owner, analyst):
            status, _, payload = analyst.raw_request(
                "POST", "/v1/queries", query_body(program={"name": "exfiltrate"})
            )
            assert (status, payload["code"]) == (400, "invalid_request")

    def test_bad_json_is_400(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request("POST", "/v1/queries", {})
            assert (status, payload["code"]) == (400, "invalid_request")

    def test_unknown_query_id_is_404(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request("GET", "/v1/queries/12345")
            assert (status, payload["code"]) == (404, "unknown_query")

    def test_other_analysts_queries_are_invisible(self):
        with server_stack() as (server, owner, analyst):
            query_id = analyst.submit(query_body(epsilon=0.01))
            other = GuptClient(*server.address)
            other.token = other.enroll("analyst", "rival", ADMIN)
            status, _, payload = other.raw_request("GET", f"/v1/queries/{query_id}")
            other.close()
            assert (status, payload["code"]) == (404, "unknown_query")


class TestBackpressureConformance:
    def test_queue_full_is_429_with_retry_after(self, monkeypatch):
        slow_queries(monkeypatch, 0.2)
        with server_stack(
            num_records=100_000, budget=1e9,
            scheduler_workers=1, max_inflight=64, queue_depth=1,
        ) as (server, owner, analyst):
            slow = query_body(epsilon=0.01, block_size=25)
            first = analyst.submit(slow)
            # Wait until the first query is dispatched (running), so the
            # queue slot is truly the only capacity left.
            while analyst.poll(first).get("state") == "queued":
                pass
            analyst.submit(slow)  # occupies the single queue slot
            with pytest.raises(Backpressure) as caught:
                analyst.submit(slow)
            assert caught.value.status == 429
            assert caught.value.code == "queue_full"
            assert caught.value.retry_after > 0

    def test_max_inflight_is_429(self, monkeypatch):
        slow_queries(monkeypatch, 0.2)
        with server_stack(
            num_records=100_000, budget=1e9,
            scheduler_workers=1, max_inflight=2, queue_depth=64,
        ) as (server, owner, analyst):
            slow = query_body(epsilon=0.01, block_size=25)
            analyst.submit(slow)
            analyst.submit(slow)
            with pytest.raises(Backpressure) as caught:
                analyst.submit(slow)
            assert caught.value.status == 429
            assert caught.value.code == "max_inflight"

    def test_timeout_is_504(self, monkeypatch):
        slow_queries(monkeypatch, 0.2)
        with server_stack(
            num_records=100_000, budget=1e9,
            scheduler_workers=1, query_timeout=0.02,
        ) as (server, owner, analyst):
            slow = query_body(epsilon=0.01, block_size=25)
            analyst.submit(slow)
            queued = analyst.submit(slow)  # stuck behind >= 200ms of work
            status, _, payload = analyst.raw_request(
                "GET", f"/v1/queries/{queued}?timeout=10"
            )
            assert (status, payload["code"]) == (504, "timeout")
            assert "no budget was spent" in payload["error"]


class TestCancelConformance:
    def test_cancel_queued_query(self, monkeypatch):
        slow_queries(monkeypatch, 0.2)
        with server_stack(
            num_records=100_000, budget=1e9, scheduler_workers=1,
        ) as (server, owner, analyst):
            slow = query_body(epsilon=0.01, block_size=25)
            analyst.submit(slow)
            queued = analyst.submit(slow)
            assert analyst.cancel(queued) is True
            status, _, payload = analyst.raw_request("GET", f"/v1/queries/{queued}")
            assert (status, payload["code"]) == (409, "cancelled")
            assert payload["ok"] is False

    def test_finished_query_is_not_cancellable(self):
        with server_stack() as (server, owner, analyst):
            query_id = analyst.submit(query_body(epsilon=0.01))
            analyst.result(query_id)
            status, _, payload = analyst.raw_request(
                "DELETE", f"/v1/queries/{query_id}"
            )
            assert (status, payload["code"]) == (409, "not_cancellable")
            assert analyst.cancel(query_id) is False


class TestPendingSemantics:
    """The HTTP mirror of GuptService.result(timeout=...) -> None."""

    def test_pending_poll_is_202_and_harmless(self):
        with server_stack(
            num_records=100_000, budget=1e9, scheduler_workers=1,
        ) as (server, owner, analyst):
            query_id = analyst.submit(query_body(epsilon=0.25, block_size=25,
                                                 seed=11))
            # Expired waits answer pending (never an error), any number
            # of times, without perturbing the query.
            for _ in range(3):
                payload = analyst.poll(query_id, timeout=0)
                if payload.get("status") != "pending":
                    break
                assert payload["code"] == "pending"
                assert payload["state"] in ("queued", "running")
            final = analyst.result(query_id)
            assert final.ok and final.code == "ok"
            # result() after the terminal response keeps returning it.
            assert analyst.result(query_id) == final

    def test_client_result_timeout_returns_none(self, monkeypatch):
        slow_queries(monkeypatch, 0.2)
        with server_stack(
            num_records=100_000, budget=1e9, scheduler_workers=1,
        ) as (server, owner, analyst):
            analyst.submit(query_body(epsilon=0.01, block_size=25))
            queued = analyst.submit(query_body(epsilon=0.01, block_size=25))
            assert analyst.result(queued, timeout=0.01) is None  # still running
            final = analyst.result(queued)  # no timeout: waits to terminal
            assert final is not None


def slow_queries(monkeypatch, seconds: float) -> list[float]:
    """Make every query run ``seconds`` longer; returns settle times."""
    settled: list[float] = []
    run_request = GuptService._run_request

    def slow_run_request(self, *args, **kwargs):
        time.sleep(seconds)
        response = run_request(self, *args, **kwargs)
        settled.append(time.perf_counter())
        return response

    monkeypatch.setattr(GuptService, "_run_request", slow_run_request)
    return settled


class TestWakeups:
    """Long-polls are woken by the scheduler's watch callback."""

    def test_long_poll_answers_on_wakeup_not_by_polling(self, monkeypatch):
        settled = slow_queries(monkeypatch, 0.3)
        calls: list[int] = []
        result = GuptService.result

        def counting_result(self, handle, timeout=None):
            calls.append(handle.id)
            return result(self, handle, timeout=timeout)

        monkeypatch.setattr(GuptService, "result", counting_result)
        with server_stack() as (server, owner, analyst):
            query_id = analyst.submit(query_body(epsilon=0.25))
            calls.clear()
            status, _, payload = analyst.raw_request(
                "GET", f"/v1/queries/{query_id}?timeout=5"
            )
            answered = time.perf_counter()
        assert (status, payload["code"]) == (200, "ok")
        assert len(calls) <= 3
        assert answered - settled[0] < 0.05

    def test_wakeup_after_the_loop_closed_is_dropped(self):
        loop = asyncio.new_event_loop()
        future = loop.create_future()
        loop.close()
        _resolve_threadsafe(future)  # a late scheduler wake must not raise
        assert not future.done()


class TestStreamingConformance:
    def test_sse_result_matches_poll(self):
        with server_stack() as (server, owner, analyst):
            query_id = analyst.submit(query_body(epsilon=0.25, seed=99))
            events = list(analyst.events(query_id))
            assert events[-1][0] == "result"
            sse_payload = events[-1][1]
            status, _, poll_payload = analyst.raw_request(
                "GET", f"/v1/queries/{query_id}"
            )
            assert status == 200
            poll_payload.pop("status")
            assert sse_payload == poll_payload
            for event, body in events[:-1]:
                assert event == "status"
                assert body["state"] in ("queued", "running")

    def test_sse_reports_queued_running_result_with_keepalives(
        self, monkeypatch
    ):
        slow_queries(monkeypatch, 1.5)
        with server_stack() as (server, owner, analyst):
            analyst.submit(query_body(epsilon=0.25))
            queued = analyst.submit(query_body(epsilon=0.25))
            connection = http.client.HTTPConnection(*server.address, timeout=10)
            connection.request(
                "GET", f"/v1/queries/{queued}/events",
                headers={"Authorization": f"Bearer {analyst.token}"},
            )
            # The server closes the stream after the result event.
            lines = [raw.decode().rstrip("\r\n") for raw in connection.getresponse()]
            connection.close()
        events = [line[len("event: "):] for line in lines if line.startswith("event:")]
        assert events == ["status", "status", "result"]
        data = [json.loads(line[len("data: "):]) for line in lines
                if line.startswith("data:")]
        assert [d["state"] for d in data[:2]] == ["queued", "running"]
        assert data[2]["code"] == "ok"
        # Over a second in each state: the idle stream carries keepalives.
        assert lines.count(": keepalive") >= 2

    def test_sse_unknown_query_is_404(self):
        with server_stack(register=False) as (server, owner, analyst):
            with pytest.raises(ServerError) as caught:
                list(analyst.events(424242))
            assert caught.value.status == 404
            assert caught.value.code == "unknown_query"


class TestIntrospection:
    def test_healthz_carries_protocol_version(self):
        with server_stack(register=False) as (server, owner, analyst):
            payload = analyst.healthz()
            assert payload == {"ok": True, "protocol_version": 1}

    def test_describe_and_ledger(self):
        with server_stack() as (server, owner, analyst):
            analyst.result(analyst.submit(query_body(epsilon=0.5,
                                                     query_name="audit-me")))
            description = analyst.describe_dataset("census")
            assert description["num_records"] == 400
            assert description["remaining_budget"] == pytest.approx(49.5)
            entries = owner.ledger("census")
            assert entries == [{"query": "audit-me", "epsilon": 0.5}]
            with pytest.raises(ServerError) as caught:
                analyst.ledger("census")
            assert caught.value.code == "forbidden"

    def test_metrics_is_owner_gated(self):
        with server_stack(register=False) as (server, owner, analyst):
            snapshot = owner.metrics()
            assert "counters" in snapshot and "gauges" in snapshot
            with pytest.raises(ServerError) as caught:
                analyst.metrics()
            assert caught.value.code == "forbidden"

    def test_fsck_without_state_dir_is_404(self):
        with server_stack(register=False) as (server, owner, analyst):
            with pytest.raises(ServerError) as caught:
                owner.fsck()
            assert caught.value.status == 404

    def test_fsck_with_state_dir(self, tmp_path):
        service = GuptService(rng=0, state_dir=str(tmp_path))
        server = GuptHttpServer(
            service, admin_token=ADMIN, state_dir=str(tmp_path)
        )
        host, port = server.start()
        try:
            client = GuptClient(host, port)
            client.token = client.enroll("owner", "o", ADMIN)
            client.register_dataset("d", [[1.0], [2.0], [3.0]], total_budget=2.0)
            report = client.fsck()
            assert report["exists"] and not report["torn"]
            assert "d" in report["datasets"]
            assert client.recovered_datasets() == []
            client.close()
        finally:
            server.stop()
            service.close()

    def test_unrouted_path_is_400(self):
        with server_stack(register=False) as (server, owner, analyst):
            status, _, payload = analyst.raw_request("GET", "/v2/elsewhere")
            assert (status, payload["code"]) == (400, "invalid_request")
