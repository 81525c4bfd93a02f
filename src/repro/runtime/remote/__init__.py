"""Distributed shard execution over the network.

The remote backend is the one coordinator of the shard protocol in
:mod:`repro.runtime.shard`: logical shards are executed by *shard
nodes* reachable only over TCP — threads or processes on this box, or
other hosts — speaking the length-prefixed, versioned, CRC-framed
binary protocol of :mod:`repro.runtime.remote.wire`.  The privacy
contract holds on a genuinely untrusted channel — the only payload a
node ever returns is its clamped ``(l_s, p)`` block-output partial and
success mask — and releases stay bit-identical to every in-process
backend at the same logical shard count ``S``.

Pieces:

* :mod:`~repro.runtime.remote.wire` — the frame format and message
  schema (the conformance suite pins its bytes);
* :mod:`~repro.runtime.remote.node` — :class:`ShardNodeServer`, the
  standalone worker process (``repro shard-node HOST:PORT``);
* :mod:`~repro.runtime.remote.backend` — :class:`RemoteShardBackend`,
  the coordinator: node registry, heartbeats, shard re-assignment on
  node death, and the partial-quorum degrade path.

The names below resolve lazily (see :mod:`repro._lazy`), so a node
process — which imports :mod:`~repro.runtime.remote.node` and
:mod:`~repro.runtime.remote.wire` through this package — never loads
the coordinator in :mod:`~repro.runtime.remote.backend`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.runtime.remote.backend": (
        "DEFAULT_HEARTBEAT_INTERVAL",
        "DEFAULT_NODE_TIMEOUT",
        "RemoteShardBackend",
        "local_node_cluster",
    ),
    "repro.runtime.remote.node": ("ShardNodeServer",),
    "repro.runtime.remote.wire": (
        "REMOTE_MAGIC",
        "REMOTE_PROTOCOL_VERSION",
        "CorruptFrame",
        "Frame",
        "FrameError",
        "TruncatedFrame",
        "VersionMismatch",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
