"""`GuptHttpServer`: a pure-stdlib asyncio HTTP/1.1 front door.

The container for this reproduction ships no async web framework, so
the server is built directly on :func:`asyncio.start_server` with a
small hand-rolled HTTP/1.1 layer (request-line + headers +
``Content-Length`` bodies, keep-alive, SSE streaming).  That keeps the
tier dependency-free and — more importantly — *thin*: the only logic
here is authentication, wire encoding and the mapping from scheduler
refusals to HTTP backpressure.  Every privacy decision (budget
transactions, admission control, chamber isolation, noise) stays in the
layers underneath, which the in-process test batteries already pin.

Design points:

* **Backpressure reuses admission control.**  ``POST /v1/queries``
  submits through the :class:`QueryScheduler`; a submission the
  scheduler refuses at admission time (``queue_full``,
  ``max_inflight``) is answered *on the submit request itself* with
  429 + ``Retry-After`` (503 during shutdown) — the server never
  buffers beyond the scheduler's own queue, so memory under overload
  is bounded by ``queue_depth`` regardless of client count.
* **Long-polls are woken, not polled.**  ``GET /v1/queries/{id}?timeout=S``
  mirrors :meth:`GuptService.result`'s pinned semantics: an unresolved
  poll answers ``202 {"status": "pending"}`` (never an error).  The
  wait is an asyncio future that the scheduler's
  :meth:`~repro.runtime.scheduler.QueryScheduler.watch` callback sets
  through ``loop.call_soon_threadsafe`` on each state change, so
  hundreds of concurrent long-polls hold no threads, and an answer
  leaves as soon as its query settles.  A queued query still times out
  at its own deadline: no wait outlasts it.
* **SSE delivers progress and results.**  ``GET /v1/queries/{id}/events``
  streams ``status`` events on every lifecycle transition
  (queued → running) and one terminal ``result`` event, then closes.
* **Blocking work leaves the loop.**  Dataset registration (array
  materialization, journal fsync) and fsck run in a small thread pool;
  submit/poll/cancel are O(lock) and run inline.

Telemetry (``http.*``, all release-safe: route templates, status codes,
byte and duration aggregates — never query values, record values or
raw paths): ``http.requests``, ``http.responses``,
``http.request_seconds``, ``http.open_connections``,
``http.connections``, ``http.backpressure_rejections``,
``http.auth_failures``, ``http.sse_streams``, ``http.sse_events``,
``http.protocol_errors``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import secrets
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.datasets.loaders import load_csv
from repro.datasets.table import DataTable
from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    GuptError,
    UnknownHandleError,
)
from repro.observability import MetricsRegistry, get_registry
from repro.runtime.scheduler import QueryHandle
from repro.runtime.service import ANALYST, OWNER, GuptService
from repro.server import protocol
from repro.server.protocol import ProtocolError

_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024
#: Ceiling on one poll's long-poll wait; clients re-poll for longer waits.
_MAX_POLL_TIMEOUT = 30.0
#: Seconds of SSE silence before a ``: keepalive`` comment.
_SSE_KEEPALIVE = 1.0

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 401: "Unauthorized",
    402: "Payment Required", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _resolve(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


def _resolve_threadsafe(future: asyncio.Future) -> None:
    """Resolve ``future`` from any thread; a no-op once its loop closed."""
    try:
        future.get_loop().call_soon_threadsafe(_resolve, future)
    except RuntimeError:  # the loop is closed: nobody waits any more
        pass


class _HttpError(Exception):
    """Internal: aborts a handler with a structured error payload."""

    def __init__(self, code: str, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after


class _Response:
    """One plain (non-streaming) HTTP response."""

    def __init__(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
    ):
        self.status = status
        self.payload = payload
        self.headers = dict(headers or {})


class GuptHttpServer:
    """Serve one :class:`GuptService` over HTTP.

    Parameters
    ----------
    service:
        The hosted platform to front.  The server never reaches past
        its public interface.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    admin_token:
        Bearer token guarding ``POST /v1/enroll`` (without it, anyone
        could mint an owner credential).  Auto-generated when ``None``.
    metrics:
        Registry for the ``http.*`` telemetry; ``None`` shares the
        process default.
    """

    def __init__(
        self,
        service: GuptService,
        host: str = "127.0.0.1",
        port: int = 0,
        admin_token: str | None = None,
        metrics: MetricsRegistry | None = None,
        state_dir: str | None = None,
    ):
        self._service = service
        self._host = host
        self._port = port
        self.admin_token = admin_token or f"admin-{secrets.token_hex(16)}"
        self._metrics = metrics
        self._state_dir = state_dir

        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._start_error: BaseException | None = None
        # Blocking owner-side work (dataset materialization + journal
        # fsync, fsck) runs here so the event loop never stalls.
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="gupt-http-io"
        )
        self._connections: set[asyncio.StreamWriter] = set()
        # query id -> (owning analyst token, scheduler handle).  Query
        # ids are scoped to the submitting principal: polling someone
        # else's id answers unknown_query, leaking nothing about other
        # analysts' traffic.
        self._queries: dict[int, tuple[str, QueryHandle]] = {}
        self._queries_lock = threading.Lock()

        self._routes: list[tuple[str, re.Pattern[str], str, Callable]] = []
        self._add_routes()
        self._materialize_metrics()

    # ------------------------------------------------------------------
    # Lifecycle (sync facade over the loop thread)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port); valid after :meth:`start`."""
        return (self._host, self._port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        """Start serving on a background event-loop thread."""
        if self._thread is not None:
            raise GuptError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="gupt-http", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            self._thread = None
            raise GuptError(f"server failed to start: {error}") from error
        return self.address

    def stop(self) -> None:
        """Stop accepting, close open connections, join the loop thread."""
        loop = self._loop
        if loop is None:
            return
        try:
            loop.call_soon_threadsafe(self._shutdown_event.set)
        except RuntimeError:  # loop already gone
            pass
        if self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join()
            self._thread = None
        self._executor.shutdown(wait=True)
        self._loop = None

    def __enter__(self) -> "GuptHttpServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Run the loop on the *current* thread until interrupted."""
        self._thread = threading.current_thread()
        try:
            self._run_loop()
        finally:
            self._thread = None

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        except OSError as exc:
            self._start_error = exc
            self._started.set()
            return
        socket_name = self._server.sockets[0].getsockname()
        self._host, self._port = socket_name[0], socket_name[1]
        self._started.set()
        async with self._server:
            await self._shutdown_event.wait()
            # Graceful teardown: stop accepting, then abort the open
            # keep-alive connections so their handler tasks unwind via
            # EOF/ConnectionError instead of being cancelled mid-read.
            self._server.close()
            for connection_writer in list(self._connections):
                connection_writer.transport.abort()
            for _ in range(100):
                if not self._connections:
                    break
                await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _materialize_metrics(self) -> None:
        registry = self._registry()
        registry.gauge("http.open_connections").set(0)
        for name in (
            "http.connections",
            "http.requests",
            "http.responses",
            "http.backpressure_rejections",
            "http.auth_failures",
            "http.sse_streams",
            "http.sse_events",
            "http.protocol_errors",
        ):
            registry.counter(name).inc(0)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = self._registry()
        registry.counter("http.connections").inc()
        gauge = registry.gauge("http.open_connections")
        gauge.set(gauge.value + 1)
        self._connections.add(writer)
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            gauge.set(max(0.0, gauge.value - 1))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; returns (method, path, headers, body) or None."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        if not request_line or request_line.strip() == b"":
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError("invalid_request", "malformed request line")
        method, target, _version = parts

        headers: dict[str, str] = {}
        total = 0
        while True:
            line = await reader.readline()
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _HttpError("invalid_request", "headers too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HttpError("invalid_request", "bad Content-Length") from None
            if n > _MAX_BODY_BYTES:
                raise _HttpError("invalid_request", "request body too large")
            body = await reader.readexactly(n) if n else b""
        return method.upper(), target, headers, body

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        registry = self._registry()
        try:
            parsed = await self._read_request(reader)
        except _HttpError as exc:
            registry.counter("http.protocol_errors").inc()
            await self._write_error(writer, exc)
            return False
        if parsed is None:
            return False
        method, target, headers, body = parsed
        split = urlsplit(target)
        path, query = split.path, parse_qs(split.query)
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"

        route_label, handler, params = self._match(method, path)
        registry.counter("http.requests", method=method, route=route_label).inc()
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            if handler is None:
                raise _HttpError("invalid_request", f"no route for {method} {path}")
            result = await handler(headers, params, query, body, writer)
        except _HttpError as exc:
            await self._write_error(writer, exc)
            registry.histogram(
                "http.request_seconds", route=route_label
            ).observe(loop.time() - started)
            return keep_alive
        except Exception as exc:  # noqa: BLE001 - boundary of last resort
            await self._write_error(
                writer,
                _HttpError("internal_error", f"internal error: {type(exc).__name__}"),
            )
            registry.histogram(
                "http.request_seconds", route=route_label
            ).observe(loop.time() - started)
            return keep_alive

        registry.histogram(
            "http.request_seconds", route=route_label
        ).observe(loop.time() - started)
        if result is None:
            return False  # handler streamed (SSE) and owns the connection
        await self._write_json(
            writer, result.status, result.payload, result.headers,
            keep_alive=keep_alive,
        )
        return keep_alive

    def _match(self, method: str, path: str):
        for route_method, pattern, label, handler in self._routes:
            if route_method != method:
                continue
            match = pattern.fullmatch(path)
            if match:
                return label, handler, match.groupdict()
        return "unmatched", None, {}

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
        keep_alive: bool = True,
    ) -> None:
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        self._registry().counter(
            "http.responses", status=str(status)
        ).inc()
        await writer.drain()

    async def _write_error(self, writer: asyncio.StreamWriter, exc: _HttpError) -> None:
        status = protocol.status_for_code(exc.code)
        headers = {}
        if exc.retry_after is not None:
            headers["Retry-After"] = f"{exc.retry_after:g}"
        elif exc.code in protocol.RETRY_AFTER_CODES:
            headers["Retry-After"] = "1"
        if status == 429 or status == 503:
            self._registry().counter(
                "http.backpressure_rejections", code=exc.code
            ).inc()
        payload = {"ok": False, "error": exc.message, "code": exc.code}
        try:
            await self._write_json(writer, status, payload, headers)
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass

    # ------------------------------------------------------------------
    # Auth
    # ------------------------------------------------------------------
    def _bearer(self, headers: Mapping[str, str]) -> str:
        authorization = headers.get("authorization", "")
        scheme, _, token = authorization.partition(" ")
        if scheme.lower() != "bearer" or not token.strip():
            self._registry().counter("http.auth_failures").inc()
            raise _HttpError("unauthenticated", "missing bearer token")
        return token.strip()

    def _translate(self, exc: GuptError) -> _HttpError:
        """Map a platform exception to its wire error, one-to-one."""
        if isinstance(exc, (AuthenticationError, AuthorizationError)):
            self._registry().counter("http.auth_failures").inc()
        return _HttpError(type(exc).code, str(exc))

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    @staticmethod
    def _json_body(body: bytes) -> Any:
        if not body:
            raise _HttpError("invalid_request", "request body must be JSON")
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise _HttpError("invalid_request", f"bad JSON body: {exc}") from exc

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _add_routes(self) -> None:
        def add(method: str, template: str, handler) -> None:
            pattern = re.compile(
                re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template)
            )
            self._routes.append((method, pattern, template, handler))

        add("GET", "/v1/healthz", self._handle_healthz)
        add("POST", "/v1/enroll", self._handle_enroll)
        add("POST", "/v1/datasets", self._handle_register)
        add("GET", "/v1/datasets", self._handle_list_datasets)
        add("GET", "/v1/datasets/{name}", self._handle_describe)
        add("GET", "/v1/datasets/{name}/ledger", self._handle_ledger)
        add("GET", "/v1/recovered", self._handle_recovered)
        add("GET", "/v1/fsck", self._handle_fsck)
        add("GET", "/v1/metrics", self._handle_metrics)
        add("POST", "/v1/queries", self._handle_submit)
        add("GET", "/v1/queries/{id}/events", self._handle_events)
        add("GET", "/v1/queries/{id}", self._handle_poll)
        add("DELETE", "/v1/queries/{id}", self._handle_cancel)
        add("POST", "/v1/svt", self._handle_svt_open)
        add("POST", "/v1/svt/{id}/probe", self._handle_svt_probe)
        add("DELETE", "/v1/svt/{id}", self._handle_svt_close)

    async def _handle_healthz(self, headers, params, query, body, writer):
        return _Response(200, {
            "ok": True,
            "protocol_version": protocol.PROTOCOL_VERSION,
        })

    async def _handle_enroll(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        if not secrets.compare_digest(token, self.admin_token):
            self._registry().counter("http.auth_failures").inc()
            raise _HttpError("forbidden", "enrollment requires the admin token")
        payload = self._json_body(body)
        role = payload.get("role")
        if role not in (OWNER, ANALYST):
            raise _HttpError("invalid_request", f"unknown role {role!r}")
        principal = self._service.enroll(role, str(payload.get("name", "")))
        return _Response(200, {
            "token": principal.token, "role": principal.role,
            "name": principal.name,
        })

    async def _handle_register(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        payload = self._json_body(body)
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise _HttpError("invalid_request", "'name' must be a non-empty string")
        if "total_budget" not in payload:
            raise _HttpError("invalid_request", "'total_budget' is required")

        def register():
            if "csv_path" in payload:
                table = load_csv(str(payload["csv_path"]))
            elif "values" in payload:
                ranges = payload.get("input_ranges")
                table = DataTable(
                    payload["values"],
                    column_names=payload.get("column_names"),
                    input_ranges=(
                        None if ranges is None
                        else [None if r is None else (r[0], r[1]) for r in ranges]
                    ),
                )
            else:
                raise ProtocolError("dataset needs 'values' or 'csv_path'")
            description = self._service.register_dataset(
                token, name, table,
                total_budget=float(payload["total_budget"]),
                aged_fraction=float(payload.get("aged_fraction", 0.0)),
            )
            return protocol.description_to_wire(description)

        try:
            wire = await self._in_executor(register)
        except GuptError as exc:
            raise self._translate(exc) from exc
        except (TypeError, ValueError) as exc:
            raise _HttpError("invalid_request", f"bad dataset payload: {exc}") from exc
        return _Response(200, wire)

    async def _handle_list_datasets(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            names = self._service.list_datasets(token)
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, {"datasets": names})

    async def _handle_describe(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            description = self._service.describe_dataset(token, params["name"])
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, protocol.description_to_wire(description))

    async def _handle_ledger(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            entries = self._service.ledger_entries(token, params["name"])
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, {
            "dataset": params["name"],
            "entries": [
                {"query": query_name, "epsilon": epsilon}
                for query_name, epsilon in entries
            ],
        })

    async def _handle_recovered(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            names = self._service.recovered_datasets(token)
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, {"recovered": names})

    async def _handle_fsck(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            self._service.recovered_datasets(token)  # owner-role gate
        except GuptError as exc:
            raise self._translate(exc) from exc
        if self._state_dir is None:
            raise _HttpError(
                "dataset_error", "service runs without a durable state directory"
            )

        def run_fsck():
            from repro.accounting.journal import fsck, journal_path

            return fsck(journal_path(self._state_dir)).to_dict()

        return _Response(200, await self._in_executor(run_fsck))

    async def _handle_metrics(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            self._service.recovered_datasets(token)  # owner-role gate
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, self._service.metrics_snapshot())

    # -- queries --------------------------------------------------------
    async def _handle_submit(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        payload = self._json_body(body)
        try:
            request = protocol.parse_query_request(payload)
        except ProtocolError as exc:
            self._registry().counter("http.protocol_errors").inc()
            raise _HttpError(exc.code, str(exc)) from exc
        except GuptError as exc:
            # e.g. InvalidRange from a lo > hi tight range: constructed
            # eagerly during parsing, but still that class's wire code.
            raise self._translate(exc) from exc
        try:
            handle = self._service.submit(token, request)
        except GuptError as exc:
            raise self._translate(exc) from exc
        with self._queries_lock:
            self._queries[handle.id] = (token, handle)

        # An admission-control refusal settles the handle synchronously
        # inside submit, so the refusal is visible right now — surface
        # it as backpressure on this request instead of a dead query id.
        settled = self._service.result(handle, timeout=0.0)
        if settled is not None and settled.code in protocol.ADMISSION_CODES:
            with self._queries_lock:
                self._queries.pop(handle.id, None)
            raise _HttpError(settled.code, settled.error)
        return _Response(202, {
            "query_id": handle.id,
            "dataset": handle.dataset,
            "status": "queued" if settled is None else "done",
        })

    def _query_handle(self, token: str, params) -> QueryHandle:
        try:
            query_id = int(params["id"])
        except (TypeError, ValueError):
            raise _HttpError("unknown_query", "query ids are integers") from None
        with self._queries_lock:
            entry = self._queries.get(query_id)
        if entry is None or entry[0] != token:
            # One indistinguishable answer for "never existed" and
            # "someone else's query": ids enumerate nothing.
            raise _HttpError("unknown_query", f"unknown query {query_id}")
        return entry[1]

    @staticmethod
    def _poll_timeout(query) -> float:
        try:
            requested = float(query.get("timeout", ["0"])[0])
        except ValueError:
            raise _HttpError(
                "invalid_request", "'timeout' must be a number of seconds"
            ) from None
        return max(0.0, min(requested, _MAX_POLL_TIMEOUT))

    async def _next_state(
        self, handle: QueryHandle, seen: str, timeout: float, done_only: bool = False
    ) -> str:
        """Wait up to ``timeout`` s for the query to leave state ``seen``.

        Returns the state it is in then; with ``done_only`` the wait
        lasts until the query is done.  The scheduler's watch callback
        wakes the wait from its own thread, so nothing polls.  A queued
        query whose deadline comes first is expired here, as
        :meth:`GuptService.result` would expire it.
        """
        scheduler = self._service.scheduler
        loop = asyncio.get_running_loop()
        changed = loop.create_future()

        def wake() -> None:
            # A done-only waiter re-arms on the scheduler thread at the
            # running transition, so the event loop wakes once per query.
            if done_only and scheduler.watch(handle, wake) != "done":
                return
            _resolve_threadsafe(changed)

        try:
            if scheduler.watch(handle, wake) == seen:
                expires_in = scheduler.expires_in(handle)
                wait = timeout if expires_in is None else min(timeout, expires_in)
                timer = loop.call_later(wait, _resolve, changed)
                await changed
                timer.cancel()
        finally:
            scheduler.unwatch(handle, wake)
        if scheduler.expires_in(handle) == 0.0:
            # Its deadline passed while queued: expire it.
            self._service.result(handle, timeout=0.0)
        return scheduler.state(handle)

    async def _await_result(self, handle: QueryHandle, timeout: float):
        """The terminal response, or ``None`` if ``timeout`` s pass first."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        state = self._service.scheduler.state(handle)
        while state != "done" and loop.time() < deadline:
            state = await self._next_state(
                handle, state, deadline - loop.time(), done_only=True
            )
        return self._service.result(handle, timeout=0.0)

    def _terminal_response(self, response, handle: QueryHandle) -> _Response:
        wire = protocol.response_to_wire(response)
        wire["query_id"] = handle.id
        wire["status"] = "done"
        status = protocol.status_for_code(response.code)
        headers = {}
        if response.code in protocol.RETRY_AFTER_CODES:
            headers["Retry-After"] = "1"
        return _Response(status, wire, headers)

    async def _handle_poll(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        handle = self._query_handle(token, params)
        response = await self._await_result(handle, self._poll_timeout(query))
        if response is None:
            # Mirrors GuptService.result(timeout=...) -> None: expiry is
            # never an error; the query is untouched and still running.
            try:
                state = self._service.scheduler.state(handle)
            except UnknownHandleError:  # pragma: no cover - scheduler swap
                state = "queued"
            return _Response(202, {
                "query_id": handle.id, "status": "pending",
                "state": state, "code": "pending",
            })
        return self._terminal_response(response, handle)

    async def _handle_cancel(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        handle = self._query_handle(token, params)
        cancelled = self._service.cancel(handle)
        if cancelled:
            return _Response(200, {"query_id": handle.id, "cancelled": True})
        return _Response(protocol.status_for_code("not_cancellable"), {
            "query_id": handle.id, "cancelled": False,
            "code": "not_cancellable",
            "error": "query is already running or finished; only queued "
                     "queries can be cancelled",
        })

    async def _handle_events(self, headers, params, query, body, writer):
        """SSE: status transitions, heartbeats, then one result event."""
        token = self._bearer(headers)
        handle = self._query_handle(token, params)
        registry = self._registry()
        registry.counter("http.sse_streams").inc()
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        registry.counter("http.responses", status="200").inc()

        async def emit(event: str, payload: Mapping[str, Any]) -> None:
            frame = f"event: {event}\ndata: {json.dumps(payload)}\n\n"
            writer.write(frame.encode())
            registry.counter("http.sse_events", event=event).inc()
            await writer.drain()

        loop = asyncio.get_running_loop()
        last_state: str | None = None
        last_beat = loop.time()
        try:
            while True:
                state = self._service.scheduler.state(handle)
                if state == "done":
                    wire = protocol.response_to_wire(
                        self._service.result(handle, timeout=0.0)
                    )
                    wire["query_id"] = handle.id
                    await emit("result", wire)
                    break
                if state != last_state:
                    await emit("status", {"query_id": handle.id, "state": state})
                    last_state = state
                    last_beat = loop.time()
                elif loop.time() - last_beat >= _SSE_KEEPALIVE:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    last_beat = loop.time()
                await self._next_state(
                    handle, state, max(0.0, last_beat + _SSE_KEEPALIVE - loop.time())
                )
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        return None  # connection closes (Connection: close)

    # -- SVT sessions ---------------------------------------------------
    async def _handle_svt_open(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        payload = self._json_body(body)
        if not isinstance(payload, Mapping):
            raise _HttpError("invalid_request", "SVT open body must be an object")
        if "seed" in payload:
            # Refuse loudly rather than silently ignoring: an analyst
            # who believes their seed was honored might reason about
            # the transcript as if the noise were known.  SVT noise is
            # drawn server-side only — a predictable noisy threshold
            # would turn every free negative answer into an exact
            # comparison on the raw aggregate.
            raise _HttpError(
                "invalid_request",
                "SVT sessions draw their randomness server-side; "
                "'seed' is not accepted",
            )
        try:
            kwargs = dict(
                dataset=str(payload["dataset"]),
                threshold=float(payload["threshold"]),
                lower=float(payload["lower"]),
                upper=float(payload["upper"]),
                epsilon=float(payload["epsilon"]),
                count=int(payload.get("count", 1)),
                resampling_factor=int(payload.get("resampling_factor", 1)),
                query_name=str(payload.get("query_name", "svt")),
                threshold_fraction=float(payload.get("threshold_fraction", 0.5)),
            )
            if payload.get("block_size") is not None:
                kwargs["block_size"] = int(payload["block_size"])
        except (KeyError, TypeError, ValueError) as exc:
            raise _HttpError(
                "invalid_request", f"malformed SVT open request: {exc}"
            ) from exc

        def open_session():
            return self._service.svt_open(token, **kwargs)

        try:
            opened = await self._in_executor(open_session)
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, dataclasses.asdict(opened))

    async def _handle_svt_probe(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        payload = self._json_body(body)
        if not isinstance(payload, Mapping):
            raise _HttpError("invalid_request", "SVT probe body must be an object")
        try:
            program = protocol.parse_program(payload.get("program"))
        except ProtocolError as exc:
            self._registry().counter("http.protocol_errors").inc()
            raise _HttpError(exc.code, str(exc)) from exc

        def probe():
            return self._service.svt_probe(token, params["id"], program)

        try:
            answered = await self._in_executor(probe)
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, dataclasses.asdict(answered))

    async def _handle_svt_close(self, headers, params, query, body, writer):
        token = self._bearer(headers)
        try:
            closed = self._service.svt_close(token, params["id"])
        except GuptError as exc:
            raise self._translate(exc) from exc
        return _Response(200, dataclasses.asdict(closed))


__all__ = ["GuptHttpServer"]
