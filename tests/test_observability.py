"""End-to-end observability: telemetry coverage and release-safety.

Two questions, answered against the real request path rather than the
registry in isolation:

1. after one ``GuptRuntime.run`` / ``GuptService.submit``, does the
   snapshot actually report phase timings, block success/fallback/kill
   counts and per-dataset budget burn-down?
2. does any metric or span payload carry a value derived from raw block
   outputs?  The dataset here lives entirely in a sentinel band
   ([7000, 7400]) far from every legitimate telemetry magnitude, so a
   single numeric walk over the snapshot can prove the invariant.
"""

import json
import time

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest

# Every record — hence every block output and every released value —
# lies in this band; no release-safe metric (epsilons, counts, block
# geometry, seconds) can legitimately reach it.
SENTINEL_LO, SENTINEL_HI = 7000.0, 7400.0


def numeric_leaves(payload) -> list[float]:
    """Every number reachable in a snapshot, labels included."""
    if isinstance(payload, bool):
        return []
    if isinstance(payload, (int, float)):
        return [float(payload)]
    if isinstance(payload, str):
        try:
            return [float(payload)]
        except ValueError:
            return []
    if isinstance(payload, dict):
        return [v for item in payload.items() for x in item for v in numeric_leaves(x)]
    if isinstance(payload, (list, tuple)):
        return [v for item in payload for v in numeric_leaves(item)]
    return []


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def manager(registry, rng):
    manager = DatasetManager(metrics=registry)
    values = rng.uniform(SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=2000)
    manager.register(
        "census",
        DataTable(
            values,
            column_names=["v"],
            input_ranges=[(SENTINEL_LO, SENTINEL_HI)],
        ),
        total_budget=20.0,
    )
    return manager


@pytest.fixture
def runtime(manager, registry):
    return GuptRuntime(manager, rng=7, metrics=registry)


class TestEndToEndTelemetry:
    """One run populates every layer's instruments in one registry."""

    def test_phase_timings_reported(self, runtime, registry):
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=2.0
        )
        snapshot = registry.snapshot()
        for phase in (
            "runtime.run",
            "runtime.resolve",
            "runtime.range_estimation",
            "runtime.sample",
            "runtime.aggregate",
        ):
            summary = snapshot["histograms"][f'{phase}.seconds{{dataset="census"}}']
            assert summary["count"] >= 1
            assert summary["sum"] >= 0.0
        span_names = {s["name"] for s in snapshot["spans"]}
        assert "runtime.sample" in span_names
        assert "runtime.run" in span_names

    def test_block_counts_consistent(self, runtime, registry):
        result = runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=2.0
        )
        counters = registry.snapshot()["counters"]
        assert counters["blocks.executed"] == result.num_blocks
        assert (
            counters["blocks.success"] + counters["blocks.fallback"]
            == counters["blocks.executed"]
        )
        assert counters["blocks.fallback"] == result.failed_blocks
        assert counters["blocks.killed"] == 0

    def test_budget_burn_down_reported(self, runtime, manager, registry):
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=2.0
        )
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=1.5
        )
        gauges = registry.snapshot()["gauges"]
        budget = manager.get("census").budget
        assert gauges['budget.epsilon_spent{dataset="census"}'] == pytest.approx(3.5)
        assert gauges['budget.epsilon_remaining{dataset="census"}'] == pytest.approx(
            budget.remaining
        )
        counters = registry.snapshot()["counters"]
        assert counters['budget.charges{dataset="census"}'] == 2
        assert counters['runtime.queries{dataset="census"}'] == 2

    def test_injected_registry_isolated_from_default(self, runtime, registry):
        from repro.observability import get_registry

        before = json.dumps(get_registry().snapshot(), sort_keys=True)
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=1.0
        )
        assert json.dumps(get_registry().snapshot(), sort_keys=True) == before
        assert registry.snapshot()["counters"]['runtime.queries{dataset="census"}'] == 1


class TestReleaseSafety:
    """No metric or span value derives from raw block outputs."""

    def test_no_block_output_value_appears_in_snapshot(
        self, runtime, manager, registry
    ):
        observed_outputs = []

        def program(block):
            out = float(np.mean(block))
            observed_outputs.append(out)
            return out

        result = runtime.run(
            "census", program, TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=2.0
        )
        assert observed_outputs, "program never ran"
        assert min(observed_outputs) > SENTINEL_LO
        assert SENTINEL_LO < result.scalar() < SENTINEL_HI

        leaves = numeric_leaves(registry.snapshot())
        assert leaves, "snapshot unexpectedly empty"
        # Nothing in telemetry approaches the sentinel band — neither a
        # block output, a record, nor the released value itself.
        assert max(abs(v) for v in leaves) < SENTINEL_LO / 2
        for leaf in leaves:
            for output in observed_outputs:
                assert leaf != pytest.approx(output, abs=1e-6)

    def test_span_payloads_carry_no_value_fields(self, runtime, registry):
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=1.0
        )
        for span in registry.snapshot()["spans"]:
            # A span is exactly {name, seconds, labels} — no attribute
            # bag exists to smuggle outputs through.
            assert set(span) == {"name", "seconds", "labels"}
            assert set(span["labels"]) <= {"dataset"}

    def test_rendered_json_is_release_safe(self, runtime, registry):
        runtime.run(
            "census", Mean(), TightRange((SENTINEL_LO, SENTINEL_HI)), epsilon=1.0
        )
        parsed = json.loads(registry.to_json())
        # The exported document has exactly the four known sections, and
        # the numeric walk over the parsed form stays out of the
        # sentinel band — the JSON path leaks nothing the snapshot
        # doesn't.
        assert set(parsed) == {"counters", "gauges", "histograms", "spans"}
        leaves = numeric_leaves(parsed)
        assert leaves and max(abs(v) for v in leaves) < SENTINEL_LO / 2


class TestServiceTelemetry:
    """The hosted service owns a registry; per-principal accounting."""

    @pytest.fixture
    def service(self, registry):
        return GuptService(rng=0, metrics=registry)

    def test_per_principal_queries_and_rejections(self, service, registry, rng):
        owner = service.enroll(OWNER, name="hospital")
        analyst = service.enroll(ANALYST, name="uni-lab")
        values = rng.uniform(SENTINEL_LO, SENTINEL_HI, size=1500)
        service.register_dataset(
            owner.token,
            "stays",
            DataTable(values, input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=3.0,
        )
        request = QueryRequest(
            dataset="stays",
            program=Mean(),
            range_strategy=TightRange((SENTINEL_LO, SENTINEL_HI)),
            epsilon=2.0,
        )
        assert service.execute(analyst.token, request).ok
        # Second identical query cannot fit the remaining budget.
        assert not service.execute(analyst.token, request).ok

        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]['service.queries{principal="uni-lab"}'] == 2
        assert snapshot["counters"]['service.rejections{principal="uni-lab"}'] == 1
        assert snapshot["gauges"]['budget.epsilon_remaining{dataset="stays"}'] == (
            pytest.approx(1.0)
        )

    def test_service_snapshot_is_release_safe(self, service, registry, rng):
        owner = service.enroll(OWNER, name="hospital")
        analyst = service.enroll(ANALYST, name="uni-lab")
        values = rng.uniform(SENTINEL_LO, SENTINEL_HI, size=1500)
        service.register_dataset(
            owner.token,
            "stays",
            DataTable(values, input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=5.0,
        )
        request = QueryRequest(
            dataset="stays",
            program=Mean(),
            range_strategy=TightRange((SENTINEL_LO, SENTINEL_HI)),
            epsilon=1.0,
        )
        assert service.execute(analyst.token, request).ok
        leaves = numeric_leaves(service.metrics_snapshot())
        assert max(abs(v) for v in leaves) < SENTINEL_LO / 2


class TestSchedulerTelemetry:
    """The scheduler's telemetry is queue geometry, never query values.

    Same sentinel construction as the other release-safety suites: the
    dataset (and so every block output and every released value) lives
    in [7000, 7400]; after real scheduled traffic — successes, a
    pre-release failure that rolls its reservation back, an admission
    rejection — every ``scheduler.*`` instrument exists and no numeric
    leaf in the snapshot approaches the band.
    """

    @staticmethod
    def _always_fails(block):
        raise RuntimeError("dies in the chamber, pre-release")

    def test_scheduler_metrics_present_and_release_safe(self, registry, rng):
        service = GuptService(
            rng=3, metrics=registry,
            scheduler_workers=2, max_inflight=2, queue_depth=8,
        )
        owner = service.enroll(OWNER, name="hospital")
        analyst = service.enroll(ANALYST, name="uni-lab")
        values = rng.uniform(SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=1500)
        service.register_dataset(
            owner.token,
            "stays",
            DataTable(values, input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=20.0,
        )

        def request(program, name):
            return QueryRequest(
                dataset="stays",
                program=program,
                range_strategy=TightRange((SENTINEL_LO, SENTINEL_HI)),
                epsilon=1.0,
                query_name=name,
                seed=11,
            )

        good = [
            service.submit(analyst.token, request(Mean(), "good-0")),
            service.submit(analyst.token, request(Mean(), "good-1")),
        ]
        # Third concurrent submission breaches max_inflight=2: a
        # structured admission rejection.
        rejected = service.submit(analyst.token, request(Mean(), "over-limit"))
        responses = [service.result(h) for h in good]
        assert all(r.ok for r in responses)
        assert all(SENTINEL_LO < r.value[0] < SENTINEL_HI for r in responses)
        assert not service.result(rejected).ok

        # A program that dies on every block fails before any private
        # release: its reservation rolls back and the response says how
        # much epsilon came back.
        failed = service.result(
            service.submit(analyst.token, request(self._always_fails, "doomed"))
        )
        assert not failed.ok
        assert failed.epsilon_rolled_back == 1.0

        service.close()
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["scheduler.submitted"] == 4
        assert counters["scheduler.admission_rejections"] == 1
        assert counters["scheduler.reservation_rollbacks"] == 1
        assert counters['scheduler.completed{outcome="ok"}'] == 2
        assert counters['scheduler.completed{outcome="rejected"}'] == 1
        assert counters['scheduler.completed{outcome="error"}'] == 1
        assert counters["scheduler.timeout_kills"] == 0
        assert snapshot["gauges"]["scheduler.queue_depth"] == 0
        assert snapshot["gauges"]["scheduler.running"] == 0
        assert snapshot["histograms"]["scheduler.wait_seconds"]["count"] == 3
        assert snapshot["histograms"]["scheduler.run_seconds"]["count"] == 3
        # The single numeric walk: nothing anywhere in the snapshot —
        # scheduler counters, budget gauges, timing histograms, labels —
        # carries a value derived from the sentinel-band outputs.
        leaves = numeric_leaves(snapshot)
        assert leaves and max(abs(v) for v in leaves) < SENTINEL_LO / 2


class TestHttpTelemetry:
    """The network tier extends the PR 1 release-safety invariant.

    ``http.*`` instruments are pure transport metadata — request/response
    counts by route template and status, connection gauges, duration
    histograms, auth-failure and backpressure counters.  Driving the
    real server with sentinel-band data over the wire (success, auth
    failure, backpressure rejection, SSE stream) proves none of it
    derives from record values, released values or raw URLs.
    """

    def test_http_metrics_present_and_release_safe(self, registry, rng, monkeypatch):
        from repro.server.client import Backpressure, GuptClient
        from repro.server.http import GuptHttpServer

        # Every query runs at least 200 ms, so the second submit below
        # deterministically finds the first still in flight.
        run_request = GuptService._run_request

        def slow_run_request(self, *args, **kwargs):
            time.sleep(0.2)
            return run_request(self, *args, **kwargs)

        monkeypatch.setattr(GuptService, "_run_request", slow_run_request)
        service = GuptService(
            rng=3, metrics=registry, scheduler_workers=1, max_inflight=1,
        )
        server = GuptHttpServer(service, admin_token="tel-admin", metrics=registry)
        host, port = server.start()
        client = GuptClient(host, port)
        try:
            client.token = client.enroll("owner", "o", "tel-admin")
            # Block counts stay well under the sentinel threshold.
            values = rng.uniform(SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=20_000)
            client.register_dataset(
                "census", values.tolist(), total_budget=20.0,
                column_names=["v"], input_ranges=[[SENTINEL_LO, SENTINEL_HI]],
            )
            analyst = GuptClient(host, port)
            analyst.token = analyst.enroll("analyst", "a", "tel-admin")
            body = {
                "dataset": "census",
                "program": {"name": "mean"},
                "range": {"kind": "tight",
                          "ranges": [[SENTINEL_LO, SENTINEL_HI]]},
                "epsilon": 2.0,
            }
            # One successful release (value in the sentinel band) — and a
            # second submission refused by max_inflight=1 while the
            # first's 4000 blocks are still running.
            slow = dict(body, block_size=25, epsilon=0.5)
            first = analyst.submit(slow)
            with pytest.raises(Backpressure):
                analyst.submit(slow)
            released = analyst.result(first)
            assert released.ok
            assert SENTINEL_LO < released.value[0] < SENTINEL_HI

            # An auth failure and an SSE stream touch their instruments.
            status, _, _ = analyst.raw_request("GET", "/v1/datasets", token="bogus")
            assert status == 401
            done = analyst.submit(dict(body, epsilon=0.5))
            events = list(analyst.events(done))
            assert events[-1][0] == "result"
            analyst.close()
        finally:
            client.close()
            server.stop()
            service.close()

        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        # Every http.* instrument exists (materialized at zero on start,
        # so release builds can alert on absence)...
        assert counters["http.connections"] >= 2
        assert counters['http.requests{method="POST",route="/v1/queries"}'] >= 3
        assert counters['http.responses{status="200"}'] >= 2
        assert counters['http.backpressure_rejections{code="max_inflight"}'] == 1
        assert counters["http.auth_failures"] >= 1
        assert counters["http.sse_streams"] == 1
        assert counters['http.sse_events{event="result"}'] == 1
        assert counters["http.protocol_errors"] == 0
        assert snapshot["gauges"]["http.open_connections"] == 0
        route_histogram = snapshot["histograms"][
            'http.request_seconds{route="/v1/queries"}'
        ]
        assert route_histogram["count"] >= 2
        # ...and the single numeric walk: nothing in the snapshot —
        # counts, durations, statuses, route labels — reaches the
        # sentinel band the records and released values live in.
        leaves = numeric_leaves(snapshot)
        assert leaves and max(abs(v) for v in leaves) < SENTINEL_LO / 2

    def test_http_metrics_materialized_before_traffic(self, registry):
        from repro.server.http import GuptHttpServer

        service = GuptService(rng=0, metrics=registry)
        server = GuptHttpServer(service, admin_token="x", metrics=registry)
        try:
            counters = registry.snapshot()["counters"]
            for name in (
                "http.connections", "http.requests", "http.responses",
                "http.backpressure_rejections", "http.auth_failures",
                "http.sse_streams", "http.sse_events", "http.protocol_errors",
            ):
                assert counters[name] == 0
            assert registry.snapshot()["gauges"]["http.open_connections"] == 0
        finally:
            service.close()
