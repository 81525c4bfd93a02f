"""`GuptClient`: a blocking stdlib client for the HTTP front door.

Built on :mod:`http.client` only (the container ships no httpx/aiohttp),
one persistent keep-alive connection per instance.  Instances are *not*
thread-safe — give each analyst thread its own client, which is also
the realistic traffic shape.

Error handling mirrors the in-process service exactly:

* A *terminal query response* — success or refusal — is returned as a
  :class:`~repro.runtime.service.QueryResponse` (decoded via
  :func:`~repro.server.protocol.wire_to_response`), never raised: a
  budget-exhausted refusal is an answer, not a client crash.
* A *transport/contract error* (auth, malformed request, unknown id)
  raises :class:`ServerError` carrying the wire ``code`` and status.
* *Backpressure* (429/503 with ``Retry-After``) raises
  :class:`Backpressure`, whose ``retry_after`` tells the caller when to
  resubmit — the client never retries silently, so callers see and can
  meter the admission-control signal.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Iterator, Mapping

from repro.exceptions import GuptError
from repro.server import protocol


class ServerError(GuptError):
    """A non-2xx front-door answer that is not a terminal query response."""

    def __init__(self, status: int, code: str, message: str, payload=None):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.payload = payload or {}


class Backpressure(ServerError):
    """Admission control refused the submission; retry after a delay."""

    def __init__(self, status: int, code: str, message: str, retry_after: float):
        super().__init__(status, code, message)
        self.retry_after = retry_after


class GuptClient:
    """One principal's connection to a :class:`GuptHttpServer`."""

    def __init__(
        self,
        host: str,
        port: int,
        token: str | None = None,
        timeout: float = 60.0,
    ):
        self._host = host
        self._port = port
        self.token = token
        self._timeout = timeout
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "GuptClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def raw_request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
        token: str | None = None,
    ) -> tuple[int, dict[str, str], Any]:
        """One request; returns ``(status, headers, decoded-JSON body)``.

        The conformance suite drives this directly to pin statuses and
        codes without the convenience layer's interpretation.
        """
        headers: dict[str, str] = {}
        bearer = token if token is not None else self.token
        if bearer:
            headers["Authorization"] = f"Bearer {bearer}"
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        for attempt in (0, 1):
            connection = self._connect()
            try:
                connection.request(method, path, body=encoded, headers=headers)
                response = connection.getresponse()
                payload_bytes = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # A dropped keep-alive connection gets one reconnect.
                self.close()
                if attempt:
                    raise
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        try:
            payload = json.loads(payload_bytes) if payload_bytes else {}
        except json.JSONDecodeError:
            payload = {"raw": payload_bytes.decode("latin-1")}
        return response.status, response_headers, payload

    def _request(self, method: str, path: str, body=None, token=None) -> Any:
        """raw_request + error translation; returns the payload on 2xx."""
        status, headers, payload = self.raw_request(method, path, body, token)
        if status < 400:
            return payload
        code = payload.get("code", "internal_error") if isinstance(payload, dict) else "internal_error"
        message = payload.get("error", "") if isinstance(payload, dict) else ""
        if "retry-after" in headers:
            raise Backpressure(status, code, message, float(headers["retry-after"]))
        raise ServerError(status, code, message, payload)

    # ------------------------------------------------------------------
    # Enrollment and datasets
    # ------------------------------------------------------------------
    def enroll(self, role: str, name: str = "", admin_token: str = "") -> str:
        """Mint a principal token (requires the admin token); returns it."""
        payload = self._request(
            "POST", "/v1/enroll", {"role": role, "name": name}, token=admin_token
        )
        return payload["token"]

    def register_dataset(
        self,
        name: str,
        values,
        total_budget: float,
        column_names=None,
        input_ranges=None,
        aged_fraction: float = 0.0,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "name": name,
            "values": values,
            "total_budget": total_budget,
            "aged_fraction": aged_fraction,
        }
        if column_names is not None:
            body["column_names"] = list(column_names)
        if input_ranges is not None:
            body["input_ranges"] = input_ranges
        return self._request("POST", "/v1/datasets", body)

    def list_datasets(self) -> list[str]:
        return self._request("GET", "/v1/datasets")["datasets"]

    def describe_dataset(self, name: str) -> dict[str, Any]:
        return self._request("GET", f"/v1/datasets/{name}")

    def ledger(self, name: str) -> list[dict[str, Any]]:
        return self._request("GET", f"/v1/datasets/{name}/ledger")["entries"]

    def recovered_datasets(self) -> list[str]:
        return self._request("GET", "/v1/recovered")["recovered"]

    def fsck(self) -> dict[str, Any]:
        return self._request("GET", "/v1/fsck")

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def healthz(self) -> dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def submit(self, request: Mapping[str, Any]) -> int:
        """Submit one query body; returns its query id.

        Raises :class:`Backpressure` on 429/503 admission refusals and
        :class:`ServerError` for contract errors (auth, bad request).
        """
        return int(self._request("POST", "/v1/queries", dict(request))["query_id"])

    def poll(self, query_id: int, timeout: float | None = None) -> dict[str, Any]:
        """One poll; returns the raw wire payload (pending or terminal).

        Mirrors :meth:`GuptService.result`: a pending poll is a normal
        ``{"status": "pending"}`` answer (HTTP 202), never an error.
        """
        path = f"/v1/queries/{query_id}"
        if timeout is not None:
            path += f"?timeout={timeout:g}"
        status, _, payload = self.raw_request("GET", path)
        if status in (200,) or status == 202 or (
            isinstance(payload, dict) and "ok" in payload
        ):
            return payload
        code = payload.get("code", "internal_error")
        raise ServerError(status, code, payload.get("error", ""), payload)

    def result(self, query_id: int, timeout: float | None = None):
        """Block until terminal; returns a :class:`QueryResponse` or None.

        Same contract as the in-process ``GuptService.result``: ``None``
        when ``timeout`` elapses first (the query keeps running); the
        decoded terminal response otherwise — refusals included, never
        raised.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            slice_timeout = 10.0
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                slice_timeout = min(slice_timeout, remaining)
            payload = self.poll(query_id, timeout=slice_timeout)
            if payload.get("status") != "pending":
                return protocol.wire_to_response(payload)

    def cancel(self, query_id: int) -> bool:
        """Cancel a still-queued query; mirrors ``GuptService.cancel``."""
        status, _, payload = self.raw_request(
            "DELETE", f"/v1/queries/{query_id}"
        )
        if status == 200:
            return True
        if isinstance(payload, dict) and payload.get("code") == "not_cancellable":
            return False
        raise ServerError(
            status, payload.get("code", "internal_error"),
            payload.get("error", ""), payload,
        )

    # ------------------------------------------------------------------
    # SVT sessions
    # ------------------------------------------------------------------
    def svt_open(
        self,
        dataset: str,
        threshold: float,
        lower: float,
        upper: float,
        epsilon: float,
        count: int = 1,
        block_size: int | None = None,
        resampling_factor: int = 1,
        query_name: str = "svt",
        threshold_fraction: float = 0.5,
    ) -> dict[str, Any]:
        """Open an above-threshold session; returns the open payload.

        The payload carries ``session_id`` plus the public accounting
        terms (``epsilon_charged`` for the threshold share,
        ``epsilon_per_positive``, ``count``) — never the noisy
        threshold itself.  There is no seed parameter: SVT noise must
        stay secret (free negatives depend on it), so the server draws
        all session randomness itself and rejects requests that carry
        a ``seed`` field.
        """
        body: dict[str, Any] = {
            "dataset": dataset,
            "threshold": threshold,
            "lower": lower,
            "upper": upper,
            "epsilon": epsilon,
            "count": count,
            "resampling_factor": resampling_factor,
            "query_name": query_name,
            "threshold_fraction": threshold_fraction,
        }
        if block_size is not None:
            body["block_size"] = block_size
        return self._request("POST", "/v1/svt", body)

    def svt_probe(
        self, session_id: str, program: Mapping[str, Any]
    ) -> dict[str, Any]:
        """One above/below answer for a wire-named program."""
        return self._request(
            "POST", f"/v1/svt/{session_id}/probe", {"program": dict(program)}
        )

    def svt_close(self, session_id: str) -> dict[str, Any]:
        """End a session; already-charged budget stays spent."""
        return self._request("DELETE", f"/v1/svt/{session_id}")

    def events(self, query_id: int) -> Iterator[tuple[str, dict[str, Any]]]:
        """Stream SSE frames for one query: yields ``(event, payload)``.

        Terminates after the ``result`` event.  Uses its own connection
        (the stream consumes it; ``Connection: close``).
        """
        connection = http.client.HTTPConnection(
            self._host, self._port, timeout=self._timeout
        )
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        connection.request("GET", f"/v1/queries/{query_id}/events", headers=headers)
        response = connection.getresponse()
        if response.status != 200:
            payload = json.loads(response.read() or b"{}")
            connection.close()
            raise ServerError(
                response.status, payload.get("code", "internal_error"),
                payload.get("error", ""), payload,
            )
        try:
            event = None
            for raw_line in response:
                line = raw_line.decode().rstrip("\n").rstrip("\r")
                if line.startswith(":"):
                    continue  # heartbeat comment
                if line.startswith("event:"):
                    event = line.split(":", 1)[1].strip()
                elif line.startswith("data:"):
                    payload = json.loads(line.split(":", 1)[1].strip())
                    yield event or "message", payload
                    if event == "result":
                        return
        finally:
            connection.close()


__all__ = ["Backpressure", "GuptClient", "ServerError"]
