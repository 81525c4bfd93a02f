"""End-to-end determinism: the wire adds nothing and loses nothing.

A seeded query answered over HTTP must be *bit-identical* to the same
request executed in-process through ``GuptService.execute`` — across
every execution backend.  This is the strongest possible statement that
the network tier is pure plumbing: JSON float encoding (repr shortest
round-trip), request parsing, scheduling and response decoding are all
exactly transparent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.service import GuptService, QueryRequest, QueryResponse
from repro.server import protocol
from repro.server.client import GuptClient
from repro.server.http import GuptHttpServer

ADMIN = "determinism-admin"
RANGE = (0.0, 100.0)
SEEDS = (7, 1234, 987654321)


def make_service(backend: str) -> GuptService:
    service = GuptService(rng=0, backend=backend)
    owner = service.enroll("owner", "o")
    rng = np.random.default_rng(42)
    from repro.datasets.table import DataTable

    table = DataTable(rng.uniform(*RANGE, size=500).tolist(),
                      column_names=["x"], input_ranges=[RANGE])
    service.register_dataset(owner.token, "census", table, total_budget=100.0)
    return service


def wire_body(seed: int, program: str = "mean", **extra) -> dict:
    return protocol.query_request_to_wire(
        "census", {"name": program, **extra.pop("params", {})}, [RANGE],
        epsilon=0.5, seed=seed, **extra,
    )


@pytest.mark.parametrize("backend", ["serial", "vectorized", "remote"])
def test_http_matches_in_process_execute(backend):
    service = make_service(backend)
    server = GuptHttpServer(service, admin_token=ADMIN)
    host, port = server.start()
    try:
        client = GuptClient(host, port)
        client.token = client.enroll("analyst", "remote", ADMIN)
        in_process_token = service.enroll("analyst", "local").token
        for seed in SEEDS:
            over_wire = client.result(client.submit(wire_body(seed)))
            request = protocol.parse_query_request(wire_body(seed))
            in_process = service.execute(in_process_token, request)
            assert over_wire.ok and in_process.ok
            # Bit-identity, not approx: tuple equality on Python floats.
            assert over_wire.value == in_process.value
            assert over_wire.epsilon_charged == in_process.epsilon_charged
            assert over_wire == in_process
        client.close()
    finally:
        server.stop()
        service.close()


@pytest.mark.parametrize(
    "program, params",
    [
        ("mean", {}),
        ("median", {}),
        ("std", {}),
        ("quantile", {"q": 0.9}),
        ("count_above", {"threshold": 50.0}),
    ],
)
def test_every_wire_program_is_deterministic(program, params):
    service = make_service("vectorized")
    server = GuptHttpServer(service, admin_token=ADMIN)
    host, port = server.start()
    try:
        client = GuptClient(host, port)
        client.token = client.enroll("analyst", "remote", ADMIN)
        body = wire_body(31337, program=program, params=params)
        first = client.result(client.submit(body))
        local = service.execute(
            service.enroll("analyst", "local").token,
            protocol.parse_query_request(body),
        )
        assert first.ok and local.ok
        assert first.value == local.value
        client.close()
    finally:
        server.stop()
        service.close()


def test_backends_agree_over_the_wire():
    """The released value for one seed is identical whichever backend
    serves it — the PR 5 cross-backend guarantee holds through HTTP."""
    released: dict[str, tuple] = {}
    for backend in ("serial", "vectorized", "remote"):
        service = make_service(backend)
        server = GuptHttpServer(service, admin_token=ADMIN)
        host, port = server.start()
        try:
            client = GuptClient(host, port)
            client.token = client.enroll("analyst", "a", ADMIN)
            response = client.result(client.submit(wire_body(2024)))
            assert response.ok
            released[backend] = response.value
            client.close()
        finally:
            server.stop()
            service.close()
    assert len(set(released.values())) == 1, released


def test_unseeded_queries_differ():
    """Sanity: without a seed the noise is fresh per query, so identical
    requests release different values (the privacy mechanism is live)."""
    service = make_service("serial")
    server = GuptHttpServer(service, admin_token=ADMIN)
    host, port = server.start()
    try:
        client = GuptClient(host, port)
        client.token = client.enroll("analyst", "a", ADMIN)
        body = protocol.query_request_to_wire(
            "census", {"name": "mean"}, [RANGE], epsilon=0.5,
        )
        first = client.result(client.submit(body))
        second = client.result(client.submit(body))
        assert first.ok and second.ok
        assert first.value != second.value
        client.close()
    finally:
        server.stop()
        service.close()
