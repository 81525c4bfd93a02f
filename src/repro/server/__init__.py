"""The network front door: an asyncio HTTP tier over :class:`GuptService`.

Everything below this package runs in-process; this is the system's
first out-of-process surface.  It is deliberately thin — authentication,
wire encoding and backpressure mapping only — so every privacy decision
stays where it already lives (the runtime, the scheduler, the
transactional accounting layer):

* :mod:`repro.server.protocol` — the wire contract: stable error codes,
  HTTP status mapping, JSON encodings of requests and responses.
* :mod:`repro.server.http` — :class:`GuptHttpServer`, a pure-stdlib
  asyncio HTTP/1.1 server (no framework dependency) with SSE streaming
  of query progress and results.
* :mod:`repro.server.client` — :class:`GuptClient`, a blocking stdlib
  client used by tests, perfbench and examples.
"""

from repro.server.client import Backpressure, GuptClient, ServerError
from repro.server.http import GuptHttpServer
from repro.server.protocol import (
    PROTOCOL_VERSION,
    STATUS_FOR_CODE,
    ProtocolError,
    parse_query_request,
    response_to_wire,
    wire_to_response,
)

__all__ = [
    "Backpressure",
    "GuptClient",
    "GuptHttpServer",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "STATUS_FOR_CODE",
    "ServerError",
    "parse_query_request",
    "response_to_wire",
    "wire_to_response",
]
