"""The remote coordinator: shard execution across TCP-connected nodes.

:class:`RemoteShardBackend` is the one coordinator of the shard
protocol (:mod:`repro.runtime.shard`): ``run_sharded(program_bytes,
values, spec)`` dispatches each logical shard to a shard node over the
framed binary protocol of :mod:`repro.runtime.remote.wire`, combines
the partials in shard-major order, and substitutes fallback rows for
shards nobody answered.  Nodes may be threads of this process, ``repro
shard-node`` processes on this box (``local_node_cluster(K,
spawn="process")`` — single-box multi-process sharding) or other hosts.
Because logical shard plans are pure functions of ``(plan_seed, S,
shard)`` and the combine is ordered by shard index, a seeded release
through this backend is bit-identical to every in-process backend at
the same ``S`` — for any node count, and under any single-node failure
that a surviving node absorbs.

Failure handling, in escalating order:

* **Reconnect.**  A node whose session dropped between queries is
  re-dialed at dispatch time and its segments re-pushed.
* **Re-push.**  A node that disclaims a shard (``PARTIAL_MISSING`` —
  its segment LRU evicted a dataset the coordinator believed resident)
  gets the segment re-pushed and the shard re-executed once before
  fallback is even considered; coordinator-side eviction from
  ``_values`` also forgets the matching pushes, keeping both LRUs
  aligned.
* **Re-assignment.**  A node that dies or wedges mid-query (EOF, torn
  frame, or no progress within ``node_timeout``) has its unanswered
  shards adopted by surviving nodes, which receive the missing
  segments plus an EXECUTE and replay ``spawn(plan_seed, S)[s]`` —
  computing the identical partial, so healing never perturbs released
  bits.  Each shard is re-assigned at most once per query.
* **Quorum degrade.**  Shards that remain unanswered (every holder
  dead, or the retry died too) resolve to the query's data-independent
  fallback rows — the same data-independent outcome a chamber gives a
  killed block — and the query is flagged in telemetry
  (``remote.degraded_queries``) instead of raising.

Telemetry (all release-safe geometry/counters, never payloads):
``remote.nodes``, ``remote.shards``, ``remote.queries``,
``remote.segment_pushes``, ``remote.heartbeats``,
``remote.node_deaths``, ``remote.reassigned_shards``,
``remote.repushed_shards``, ``remote.degraded_queries``,
``remote.fallback_shards``,
``remote.dispatch_seconds``, ``remote.partial_rows``,
``remote.segment_push_seconds`` (one observation per query that pushed
segments: the wall seconds its SEGMENT sends took, so a slow query
shows whether it paid a cold push).
"""

from __future__ import annotations

import itertools
import os
import secrets as secrets_module
import select
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.core.blocks import ShardPlanSummary, shard_block_counts, shard_offsets
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry, get_registry
from repro.runtime.remote import wire
from repro.runtime.remote.node import ShardNodeServer
from repro.runtime.shard import DEFAULT_RESIDENT_DATASETS, ShardQuerySpec
from repro.runtime.vectorized import BatchOutputs
from repro.testing import failpoints

#: What a dead/unusable peer looks like to the coordinator: socket
#: errors, torn/corrupt/truncated frames, and injected send failures
#: (``remote.send.*`` in ``error`` mode raises
#: :class:`~repro.testing.failpoints.FailpointError`, which models the
#: same thing — a write that did not reach the peer intact).
_DEAD_PEER = (OSError, wire.FrameError, failpoints.FailpointError)

#: Seconds between coordinator heartbeat rounds (PING -> PONG probes of
#: idle sessions).  ``None`` disables the heartbeat thread — tests do,
#: so frame counts stay deterministic for ``@N`` failpoint targeting.
DEFAULT_HEARTBEAT_INTERVAL: float | None = 5.0

#: Seconds a node may go without sending any frame mid-query before the
#: coordinator declares it wedged and re-assigns its shards.
DEFAULT_NODE_TIMEOUT = 30.0

#: Connection/handshake timeout when dialing a node.
_DIAL_TIMEOUT = 10.0


def parse_node_address(text: str) -> tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` (the CLI's ``--nodes`` format)."""
    host, _, port = text.rpartition(":")
    if not host or not port:
        raise ComputationError(f"bad node address {text!r} (expected HOST:PORT)")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ComputationError(f"bad node address {text!r}: {exc}") from exc


class _NodeSession:
    """One live coordinator -> node connection and what it holds."""

    __slots__ = ("address", "sock", "held", "manifests")

    def __init__(self, address: tuple[str, int], sock: socket.socket):
        self.address = address
        self.sock = sock
        self.held: set[tuple[str, int, int]] = set()  # (dataset, version, shard)
        # Curated-dataset manifests from the node's WELCOME (geometry
        # and digests only — the only thing a curator ever reveals).
        self.manifests: list[dict] = []

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


#: How much of a process node's stderr a start-up failure carries.
_STDERR_TAIL_BYTES = 2048

#: Seconds the process nodes of a :class:`LocalNodeCluster` get to
#: announce their ports, counted from the first spawn.  The nodes start
#: concurrently, so this one deadline bounds the whole cluster's start.
NODE_START_TIMEOUT = 30.0


def _stderr_tail(log) -> str:
    """The last :data:`_STDERR_TAIL_BYTES` a node wrote to ``log``."""
    log.seek(0, os.SEEK_END)
    log.seek(max(0, log.tell() - _STDERR_TAIL_BYTES))
    return log.read().decode("utf-8", "replace").strip()


def _first_lines(processes: list[subprocess.Popen], deadline: float) -> list[bytes]:
    """What each process writes to stdout up to its first newline.

    Reads every process at once, from the raw descriptors, so neither a
    slow starter nor a partial line holds up the others.  A process's
    read ends at its first newline or at EOF; every read ends at
    ``deadline`` (a ``time.monotonic()`` value).
    """
    output = [b""] * len(processes)
    pending = {process.stdout.fileno(): i for i, process in enumerate(processes)}
    while pending:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        for fd in select.select(list(pending), [], [], remaining)[0]:
            chunk = os.read(fd, 512)
            output[pending[fd]] += chunk
            if not chunk or b"\n" in chunk:
                del pending[fd]
    return output


def _curator_args(directory: str, index: int, datasets: dict) -> list[str]:
    """``--data FILE --dataset NAME`` for each dataset node ``index``
    curates, its rows saved as ``.npy`` files under ``directory``."""
    args: list[str] = []
    for position, (name, rows) in enumerate(datasets.items()):
        path = os.path.join(directory, f"node{index}-{position}.npy")
        np.save(path, np.asarray(rows))
        args += ["--data", path, "--dataset", str(name)]
    return args


class LocalNodeCluster:
    """A convenience cluster of shard nodes owned by this process.

    ``spawn="thread"`` runs :class:`ShardNodeServer` instances on daemon
    threads — real TCP, zero process overhead; the default for tests.
    ``spawn="process"`` launches ``python -m repro shard-node
    127.0.0.1:0`` subprocesses (scraping the announced ``LISTENING``
    line): single-box multi-process sharding, and what the fault matrix
    and the CI soak use — a crashed subprocess is a genuinely dead peer.
    All subprocess nodes are spawned at once and their announcements
    collected together under one :data:`NODE_START_TIMEOUT` deadline,
    so a cluster starts in about one node's start time; each node loads
    the node tier only (:mod:`repro.runtime.remote.node` and its
    imports).  ``env`` adds variables to subprocess nodes (e.g. arming
    ``REPRO_FAILPOINTS`` in a victim node); a ``PYTHONPATH`` there is
    appended to the node's own import path rather than replacing it
    (e.g. a directory holding the analyst program's module).
    ``curated`` gives each node the datasets it curates (name -> rows);
    a subprocess node loads them from ``--data`` files that live only
    until the cluster has started.  A subprocess node that dies, or is
    still silent at the deadline, stops the whole cluster and raises a
    :class:`ComputationError` carrying the tail of that node's stderr.
    """

    def __init__(
        self,
        count: int,
        spawn: str = "thread",
        env: dict[str, str] | None = None,
        secret: str | None = None,
        curated: list[dict] | None = None,
    ):
        if count < 1:
            raise ComputationError("a node cluster needs at least one node")
        if spawn not in ("thread", "process"):
            raise ComputationError(f"unknown node spawn mode {spawn!r}")
        if curated is not None and len(curated) != count:
            raise ComputationError(
                f"curated needs one dataset map per node "
                f"({len(curated)} maps for {count} nodes)"
            )
        self.addresses: list[tuple[str, int]] = []
        self._servers: list[ShardNodeServer] = []
        self._processes: list[subprocess.Popen] = []
        self._stderr_logs: list = []
        if spawn == "thread":
            for index in range(count):
                server = ShardNodeServer(
                    secret=secret,
                    curated=None if curated is None else curated[index],
                )
                self.addresses.append(server.start())
                self._servers.append(server)
            return
        # Subprocess nodes must be able to import this package no matter
        # where the parent found it (installed, or PYTHONPATH=src).
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(os.path.dirname(__file__)))
        )
        package_root = os.path.dirname(package_root)  # .../src
        env = dict(env or {})
        node_path = os.pathsep.join(
            p for p in (
                package_root, env.pop("PYTHONPATH", None),
                os.environ.get("PYTHONPATH"),
            ) if p
        )
        secret_env = {} if secret is None else {"REPRO_SHARD_SECRET": secret}
        node_env = {**os.environ, **secret_env, **env, "PYTHONPATH": node_path}
        deadline = time.monotonic() + NODE_START_TIMEOUT
        try:
            # A node loads its --data files before it announces.
            with tempfile.TemporaryDirectory() as data_dir:
                # Every node is spawned before any announcement is
                # awaited, so their interpreter starts and imports overlap.
                for index in range(count):
                    # An unlinked file, not a pipe: nothing drains a node's
                    # stderr, and a full pipe would block a chatty node.
                    log = tempfile.TemporaryFile()
                    self._stderr_logs.append(log)
                    data = [] if curated is None else _curator_args(
                        data_dir, index, curated[index]
                    )
                    self._processes.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "shard-node",
                         "127.0.0.1:0", *data],
                        stdout=subprocess.PIPE,
                        stderr=log,
                        env=node_env,
                    ))
                output = _first_lines(self._processes, deadline)
        except BaseException:
            self.stop()
            raise
        for index, written in enumerate(output):
            line, newline, _ = written.partition(b"\n")
            line = line.decode("utf-8", "replace").strip()
            parts = line.split()
            if (newline and len(parts) == 3 and parts[0] == "LISTENING"
                    and parts[2].isdigit()):
                self.addresses.append((parts[1], int(parts[2])))
                continue
            process = self._processes[index]
            process.kill()  # a no-op on a node that already exited
            code = process.wait()
            tail = _stderr_tail(self._stderr_logs[index])
            self.stop()
            if code != -signal.SIGKILL:
                reason = f" (exit code {code})"
            elif not newline:
                reason = f" within {NODE_START_TIMEOUT:g} s"
            else:
                reason = ""
            raise ComputationError(
                f"shard-node {index} did not announce its port{reason}; "
                f"got {line!r}" + (f"; node stderr:\n{tail}" if tail else "")
            )

    def stop(self) -> None:
        for server in self._servers:
            server.stop()
        self._servers = []
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck node
                process.kill()
                process.wait(timeout=5.0)
            process.stdout.close()
        self._processes = []
        for log in self._stderr_logs:
            log.close()
        self._stderr_logs = []

    def __enter__(self) -> "LocalNodeCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def local_node_cluster(
    count: int,
    spawn: str = "thread",
    env: dict[str, str] | None = None,
    secret: str | None = None,
    curated: list[dict] | None = None,
) -> LocalNodeCluster:
    """Start ``count`` local shard nodes; see :class:`LocalNodeCluster`."""
    return LocalNodeCluster(count, spawn=spawn, env=env, secret=secret, curated=curated)


class RemoteShardBackend:
    """S logical shards executed by N shard-node processes over TCP.

    Parameters
    ----------
    shards:
        Logical shard count S — the public plan parameter released bits
        depend on.  Node count never matters.
    nodes:
        Where the nodes are: a list of ``(host, port)`` tuples or
        ``"host:port"`` strings for an existing cluster, an int to
        spawn that many in-process nodes, or ``None`` to spawn one.
        Node ``i`` of N initially owns the contiguous logical shards
        ``[i * S // N, (i + 1) * S // N)``.
    node_timeout:
        Mid-query liveness deadline: a node sending nothing for this
        long is declared wedged and its shards re-assigned.
    heartbeat_interval:
        Period of the idle-session PING thread; ``None`` disables it
        (deterministic tests drive :meth:`heartbeat_once` directly).
    message_observer:
        Called with every decoded node -> coordinator :class:`Frame`
        (the privacy suite asserts only clamped summaries appear).
    frame_observer:
        Called with ``(direction, frame_bytes)`` for every frame in
        both directions — the network-capture hook the sentinel tests
        scan for raw data.
    secret:
        Shared node-authentication secret.  When set, every dial runs
        the mutual HMAC challenge-response and refuses nodes that
        cannot prove possession; when ``None``, dialing a
        secret-protected node raises :class:`ComputationError`.
    """

    def __init__(
        self,
        shards: int,
        nodes: int | list | None = None,
        resident_datasets: int = DEFAULT_RESIDENT_DATASETS,
        metrics: MetricsRegistry | None = None,
        message_observer: Callable[[wire.Frame], None] | None = None,
        frame_observer: Callable[[str, bytes], None] | None = None,
        node_timeout: float = DEFAULT_NODE_TIMEOUT,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        node_spawn: str = "thread",
        secret: str | None = None,
    ):
        if shards < 1:
            raise ComputationError("shards must be >= 1")
        if resident_datasets < 1:
            raise ComputationError("resident_datasets must be >= 1")
        self._shards = int(shards)
        self._resident_datasets = int(resident_datasets)
        self._metrics = metrics
        self._message_observer = message_observer
        self._frame_observer = frame_observer
        self._node_timeout = float(node_timeout)
        self._heartbeat_interval = heartbeat_interval
        self._secret = secret if secret else None
        self._cluster: LocalNodeCluster | None = None
        if nodes is None or isinstance(nodes, int):
            count = 1 if nodes is None else int(nodes)
            self._cluster = local_node_cluster(
                count, spawn=node_spawn, secret=self._secret
            )
            addresses = self._cluster.addresses
        else:
            addresses = [
                parse_node_address(n) if isinstance(n, str) else (n[0], int(n[1]))
                for n in nodes
            ]
        if not addresses:
            raise ComputationError("remote backend needs at least one node")
        self._addresses = addresses
        self._sessions: list[_NodeSession | None] = [None] * len(addresses)
        # (dataset, version) -> contiguous float matrix, kept so healed
        # or adopting nodes can be re-pushed their shard slices.
        self._values: OrderedDict[tuple[str, int], np.ndarray] = OrderedDict()
        # name -> federated geometry from node manifests: per-node row
        # counts, global row bases, column count, total rows.  Never any
        # values — that is the whole point of curator mode.
        self._federated: dict[str, dict] = {}
        self._heartbeat_tokens = itertools.count(1)
        self._qids = iter(range(1, 2**62))
        self._closed = False
        self._dispatch_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        if heartbeat_interval:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop, name="remote-heartbeat", daemon=True
            )
            self._heartbeat_thread.start()

    # -- geometry --------------------------------------------------------
    @property
    def shards(self) -> int:
        return self._shards

    @property
    def nodes(self) -> int:
        return len(self._addresses)

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    # -- sessions --------------------------------------------------------
    def _observe_send(self, session, kind, header, body=b"") -> None:
        if self._frame_observer is not None:
            self._frame_observer("send", wire.encode_frame(kind, header, body))
        wire.send_frame(session.sock, kind, header, body)

    def _observe_read(self, session, timeout) -> wire.Frame:
        frame = wire.read_frame(session.sock, timeout)
        if self._frame_observer is not None:
            self._frame_observer(
                "recv", wire.encode_frame(frame.kind, frame.header, frame.body)
            )
        if self._message_observer is not None:
            self._message_observer(frame)
        if frame.kind not in wire.NODE_TO_COORDINATOR_KINDS:
            # A node has no business sending coordinator-direction
            # kinds; treat the session as compromised, not the query.
            raise wire.CorruptFrame(
                f"node sent coordinator-only kind {frame.kind_name!r}"
            )
        return frame

    def _connect(self, index: int) -> _NodeSession | None:
        """Dial node ``index``: version handshake plus mutual auth.

        The HELLO always carries a fresh nonce.  An open node answers
        WELCOME directly; an authenticated node answers with a
        challenge plus its own proof over our nonce — verified *before*
        we reveal anything (the node authenticates first) — and the
        exchange completes with our proof and the node's final WELCOME.
        Auth misconfiguration (secret/no-secret skew, wrong secret)
        raises :class:`ComputationError` loudly, like version skew:
        it must never degrade into silent fallbacks.
        """
        address = self._addresses[index]
        try:
            sock = socket.create_connection(address, timeout=_DIAL_TIMEOUT)
        except OSError:
            return None
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        session = _NodeSession(address, sock)
        nonce = secrets_module.token_hex(16)
        try:
            self._observe_send(
                session,
                wire.HELLO,
                {"protocol": wire.REMOTE_PROTOCOL_VERSION, "nonce": nonce},
            )
            frame = self._observe_read(session, _DIAL_TIMEOUT)
        except _DEAD_PEER:
            session.close()
            return None
        frame = self._authenticate(session, frame, nonce, address)
        if frame is None:
            return None
        session.manifests = [
            dict(entry)
            for entry in frame.header.get("manifests", [])
            if isinstance(entry, dict)
        ]
        return session

    def _authenticate(
        self, session, frame, nonce: str, address
    ) -> wire.Frame | None:
        """Finish the handshake; the final WELCOME frame, or None if dead."""
        label = f"{address[0]}:{address[1]}"
        if frame.kind != wire.WELCOME:
            session.close()
            if frame.kind == wire.ERROR and frame.header.get("code") == "version_mismatch":
                raise wire.VersionMismatch(frame.header.get("protocol", -1))
            if frame.kind == wire.ERROR and frame.header.get("code") == "auth_failed":
                raise ComputationError(
                    f"node {label} refused authentication: "
                    f"{frame.header.get('error', 'auth_failed')}"
                )
            return None
        challenge = frame.header.get("challenge")
        if challenge is None:
            if self._secret is not None:
                # We were configured for mutual auth; a node that skips
                # the challenge is either open (misconfigured) or an
                # impostor that cannot produce a proof.
                session.close()
                raise ComputationError(
                    f"node {label} did not authenticate but a shared "
                    f"secret is configured"
                )
            return frame
        if self._secret is None:
            session.close()
            raise ComputationError(
                f"node {label} requires a shared secret "
                f"(pass secret=/--node-secret)"
            )
        node_nonce = str(challenge)
        if not wire.verify_proof(
            self._secret,
            wire.AUTH_ROLE_NODE,
            nonce,
            node_nonce,
            frame.header.get("proof"),
        ):
            session.close()
            raise ComputationError(
                f"node {label} failed authentication (wrong secret?)"
            )
        try:
            self._observe_send(
                session,
                wire.HELLO,
                {
                    "protocol": wire.REMOTE_PROTOCOL_VERSION,
                    "proof": wire.auth_proof(
                        self._secret,
                        wire.AUTH_ROLE_COORDINATOR,
                        node_nonce,
                        nonce,
                    ),
                },
            )
            final = self._observe_read(session, _DIAL_TIMEOUT)
        except _DEAD_PEER:
            session.close()
            return None
        if final.kind != wire.WELCOME:
            session.close()
            if final.kind == wire.ERROR and final.header.get("code") == "auth_failed":
                raise ComputationError(
                    f"node {label} refused our proof (secret mismatch?)"
                )
            return None
        return final

    def _session(self, index: int) -> _NodeSession | None:
        if self._sessions[index] is None:
            self._sessions[index] = self._connect(index)
        return self._sessions[index]

    def _drop_session(self, index: int) -> None:
        session, self._sessions[index] = self._sessions[index], None
        if session is not None:
            session.close()
            self._registry().counter("remote.node_deaths").inc()

    # -- heartbeats ------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        while not self._stop_heartbeat.wait(self._heartbeat_interval):
            # Never race an in-flight query's collect loop: skip the
            # round if dispatch holds the lock (the query itself is the
            # liveness probe then).
            if not self._dispatch_lock.acquire(blocking=False):
                continue
            try:
                if not self._closed:
                    self.heartbeat_once()
            finally:
                self._dispatch_lock.release()

    def heartbeat_once(self) -> list[bool]:
        """PING every connected node; drop sessions that fail to PONG.

        Returns one aliveness flag per node slot (unconnected slots are
        reported dead without dialing — the next query re-dials).  The
        heartbeat payload is public: a token echoed back, nothing else.
        The token changes on every PING and the PONG must echo it
        exactly — a stale, duplicated, or replayed PONG from a wedged
        node never vouches for its liveness.  ``remote.heartbeats``
        counts probe *rounds* (rounds in which at least one PING was
        sent), not node slots, so the counter tracks probing cadence
        rather than cluster size.
        """
        registry = self._registry()
        alive = []
        pinged = False
        for index in range(len(self._addresses)):
            session = self._sessions[index]
            if session is None:
                alive.append(False)
                continue
            token = next(self._heartbeat_tokens)
            pinged = True
            try:
                self._observe_send(session, wire.PING, {"token": token})
                frame = self._observe_read(session, self._node_timeout)
                ok = frame.kind == wire.PONG and frame.header.get("token") == token
            except _DEAD_PEER:
                ok = False
            if not ok:
                self._drop_session(index)
            alive.append(ok)
        if pinged:
            registry.counter("remote.heartbeats").inc()
        return alive

    # -- dataset residency ----------------------------------------------
    def invalidate(self, dataset: str) -> int:
        """Forget every resident version of ``dataset`` (re-registration).

        Nodes evict lazily: versions are monotonic, so a stale segment
        is never addressed again and ages out of the node-side LRU.
        """
        with self._dispatch_lock:
            stale = [k for k in self._values if k[0] == dataset]
            for key in stale:
                del self._values[key]
            if self._federated.pop(dataset, None) is not None:
                stale.append((dataset, 0))
            for session in self._sessions:
                if session is not None:
                    session.held = {h for h in session.held if h[0] != dataset}
        return len(stale)

    # -- federated (curator-held) datasets -------------------------------
    def federate(self, name: str) -> dict:
        """Register node-held dataset ``name`` from curator manifests.

        Dials every node, collects the manifest each advertises for
        ``name``, and derives the federated geometry: per-node row
        counts, each node's global row base (nodes concatenate in slot
        order), the column count, and the total.  Only geometry crosses
        — no node ever sends a value, and the coordinator refuses the
        registration unless every node boundary lands exactly on a
        ``shard_offsets(total, S)`` boundary, so each curator owns
        whole logical shards and partials compose bit-identically with
        pushed-segment execution of the same rows.
        """
        with self._dispatch_lock:
            if self._closed:
                raise ComputationError("remote backend is closed")
            per_node: list[tuple[int, int]] = []
            for index in range(len(self._addresses)):
                session = self._session(index)
                label = "{0}:{1}".format(*self._addresses[index])
                if session is None:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} is unreachable"
                    )
                manifest = next(
                    (m for m in session.manifests if m.get("dataset") == name),
                    None,
                )
                if manifest is None:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} does not "
                        f"curate it (manifests: "
                        f"{[m.get('dataset') for m in session.manifests]})"
                    )
                try:
                    rows = int(manifest["rows"])
                    columns = int(manifest["columns"])
                except (KeyError, TypeError, ValueError) as exc:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} sent a "
                        f"malformed manifest"
                    ) from exc
                if rows < 1 or columns < 1:
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} reports "
                        f"empty geometry ({rows}x{columns})"
                    )
                if manifest.get("digest") != wire.dataset_digest(name, rows, columns):
                    raise ComputationError(
                        f"cannot federate {name!r}: node {label} manifest "
                        f"digest does not match its geometry"
                    )
                per_node.append((rows, columns))
            column_counts = {c for _, c in per_node}
            if len(column_counts) != 1:
                raise ComputationError(
                    f"cannot federate {name!r}: curators disagree on column "
                    f"count ({sorted(column_counts)})"
                )
            rows_per_node = tuple(r for r, _ in per_node)
            total = int(sum(rows_per_node))
            offsets = shard_offsets(total, self._shards)
            boundaries = {int(o) for o in offsets}
            bases, base = [], 0
            for rows in rows_per_node:
                bases.append(base)
                base += rows
            misaligned = [b for b in bases + [total] if b not in boundaries]
            if misaligned:
                raise ComputationError(
                    f"cannot federate {name!r}: node row counts "
                    f"{rows_per_node} do not align with the {self._shards} "
                    f"shard boundaries {sorted(boundaries)} "
                    f"(misaligned bases: {misaligned})"
                )
            geometry = {
                "rows": rows_per_node,
                "bases": tuple(bases),
                "columns": column_counts.pop(),
                "total": total,
            }
            self._federated[name] = geometry
            return {
                "num_records": total,
                "num_dimensions": geometry["columns"],
                "node_rows": rows_per_node,
            }

    def _owners(self, fed: dict | None) -> list[list[int]]:
        """The logical shards each node slot is sent at dispatch.

        Node ``i`` of N owns the contiguous shards ``[i * S // N, (i +
        1) * S // N)`` of a pushed dataset; a curator owns the shards
        whose rows lie inside the rows it holds.
        """
        count, shards = len(self._addresses), self._shards
        if fed is None:
            return [
                list(range(i * shards // count, (i + 1) * shards // count))
                for i in range(count)
            ]
        offsets = shard_offsets(fed["total"], shards)
        return [
            [
                s
                for s in range(shards)
                if base <= offsets[s] and offsets[s + 1] <= base + rows
            ]
            for base, rows in zip(fed["bases"], fed["rows"])
        ]

    def _ensure_values(self, dskey, values: np.ndarray) -> np.ndarray:
        resident = self._values.get(dskey)
        if resident is not None:
            self._values.move_to_end(dskey)
            return resident
        resident = np.ascontiguousarray(values, dtype=float)
        self._values[dskey] = resident
        while len(self._values) > self._resident_datasets:
            evicted, _ = self._values.popitem(last=False)
            # The nodes' own segment LRUs shed this dataset on the same
            # schedule (same capacity, touch-on-use order): forget the
            # matching pushes so a returning query re-pushes instead of
            # trusting node residency the coordinator can no longer see.
            for session in self._sessions:
                if session is not None:
                    session.held = {
                        h for h in session.held if (h[0], h[1]) != evicted
                    }
        return resident

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut down sessions (and an owned cluster) — exactly once."""
        self._stop_heartbeat.set()
        with self._dispatch_lock:
            if self._closed:
                return
            self._closed = True
            for index, session in enumerate(self._sessions):
                if session is None:
                    continue
                try:
                    self._observe_send(
                        session,
                        wire.SHUTDOWN,
                        {"halt": self._cluster is not None},
                    )
                    self._observe_read(session, 2.0)
                except _DEAD_PEER:
                    pass
                session.close()
                self._sessions[index] = None
            self._values.clear()
            self._federated.clear()
            if self._cluster is not None:
                self._cluster.stop()
                self._cluster = None
        if (
            self._heartbeat_thread is not None
            and self._heartbeat_thread is not threading.current_thread()
        ):
            self._heartbeat_thread.join(timeout=2.0)
            self._heartbeat_thread = None

    def __enter__(self) -> "RemoteShardBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- dispatch --------------------------------------------------------
    def run_sharded(
        self,
        program_bytes: bytes,
        values: np.ndarray,
        spec: ShardQuerySpec,
    ) -> tuple[ShardPlanSummary, BatchOutputs]:
        """Execute one query across the node cluster; combine in shard order."""
        if spec.shards != self._shards:
            raise ComputationError(
                f"query spec wants {spec.shards} shards, backend has {self._shards}"
            )
        with self._dispatch_lock:
            if self._closed:
                raise ComputationError("remote backend is closed")
            return _Query(self, program_bytes, values, spec).run()


class _Query:
    """One query in flight on a :class:`RemoteShardBackend`.

    Holds what the nodes are asked (the query id, spec, program and, for
    a pushed dataset, the rows to push), what they answered (the block
    outputs, success mask, filled shards and summed node ``elapsed``),
    and who still owes what (the shards each node slot must answer, its
    liveness deadline, and the shards already re-assigned once).  It is
    built and run under the backend's dispatch lock.
    """

    def __init__(self, backend: RemoteShardBackend, program_bytes, values, spec):
        self.started = time.perf_counter()
        self.backend = backend
        self.registry = backend._registry()
        self.program_bytes = program_bytes
        self.spec = spec
        self.dskey = (spec.dataset, spec.version)
        self.fed = backend._federated.get(spec.dataset)
        if self.fed is not None:
            # Curator mode: the rows live on the nodes.  Nothing is
            # cached coordinator-side and nothing is ever pushed — the
            # nodes execute against their own slices, addressed by each
            # node's global row base (``origin``).
            if spec.num_records != self.fed["total"]:
                raise ComputationError(
                    f"federated dataset {spec.dataset!r} holds "
                    f"{self.fed['total']} rows across its curators, query "
                    f"spec claims {spec.num_records}"
                )
            self.resident = None
        elif getattr(values, "federated", False):
            # A geometry proxy without registered geometry: the dataset
            # was invalidated (or never federated here).  Failing loudly
            # beats caching the proxy as "values".
            raise ComputationError(
                f"dataset {spec.dataset!r} is federated but this backend "
                f"holds no geometry for it; call federate() after "
                f"(re-)registration"
            )
        else:
            self.resident = backend._ensure_values(self.dskey, values)
        self.counts = shard_block_counts(
            spec.num_records, spec.block_size, spec.resampling_factor, spec.shards
        )
        self.bases = np.zeros(spec.shards + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.bases[1:])
        total_blocks = int(self.bases[-1])
        if total_blocks == 0:
            raise ComputationError(
                f"block size {spec.block_size} leaves no full block in any of "
                f"{spec.shards} shards of {spec.num_records} records"
            )
        self.outputs = np.empty((total_blocks, spec.output_dimension), dtype=float)
        self.succeeded = np.zeros(total_blocks, dtype=bool)
        self.filled = np.zeros(spec.shards, dtype=bool)
        self.elapsed = 0.0
        self.qid = next(backend._qids)
        # node slot -> shards it still owes an answer for.
        self.pending: dict[int, set[int]] = {}
        self.deadlines: dict[int, float] = {}
        self.reassigned: set[int] = set()
        # Wall seconds spent sending SEGMENT frames; None until one is.
        self.push_seconds: float | None = None

    def run(self) -> tuple[ShardPlanSummary, BatchOutputs]:
        """Dispatch, collect, fill unanswered shards; the combined release."""
        unassigned: list[int] = []
        for index, shards in enumerate(self.backend._owners(self.fed)):
            if shards and not self.dispatch(index, shards):
                unassigned.extend(shards)
        # Nodes dead before dispatch: adopt their shards immediately
        # (they have not been tried yet, so adoption is not a retry).
        # Federated shards have exactly one holder — adoption is
        # impossible and they resolve straight to fallback rows.
        for shard in unassigned:
            self.adopt(shard)
        self.refresh_deadlines()
        while self.pending:
            self.collect_round()

        registry, spec = self.registry, self.spec
        fallback = np.asarray(spec.fallback, dtype=float)
        degraded = False
        for shard in range(spec.shards):
            if not self.filled[shard] and self.counts[shard]:
                self.outputs[self.bases[shard] : self.bases[shard + 1]] = fallback
                registry.counter("remote.fallback_shards").inc()
                degraded = True
        if degraded:
            registry.counter("remote.degraded_queries").inc()
        registry.counter("remote.queries").inc()
        registry.gauge("remote.nodes").set(self.backend.nodes)
        registry.gauge("remote.shards").set(spec.shards)
        registry.histogram("remote.dispatch_seconds").observe(
            time.perf_counter() - self.started
        )
        registry.histogram("remote.partial_rows").observe(len(self.outputs))
        if self.push_seconds is not None:
            registry.histogram("remote.segment_push_seconds").observe(
                self.push_seconds
            )
        summary = ShardPlanSummary(
            num_records=spec.num_records,
            block_size=spec.block_size,
            resampling_factor=spec.resampling_factor,
            num_blocks=len(self.outputs),
            shards=spec.shards,
        )
        return summary, BatchOutputs(self.outputs, self.succeeded, self.elapsed)

    def dispatch(self, index: int, shards: list[int]) -> bool:
        """Push segments and send one EXECUTE to node ``index``.

        False if the node is dead.  A federated dataset pushes nothing;
        its EXECUTE carries ``origin``, the node's global row base,
        telling the curator which window of its own rows each shard is.
        """
        backend = self.backend
        session = backend._session(index)
        if session is None:
            return False
        header = {
            "qid": self.qid,
            "spec": wire.spec_to_header(self.spec),
            "shards": [int(s) for s in shards],
        }
        if self.resident is None:
            header["origin"] = int(self.fed["bases"][index])
        try:
            if self.resident is not None:
                offsets = shard_offsets(self.spec.num_records, self.spec.shards)
                for shard in shards:
                    key = (*self.dskey, shard)
                    if key in session.held:
                        continue  # pushed earlier in this session
                    rows = self.resident[int(offsets[shard]) : int(offsets[shard + 1])]
                    segment, body = wire.array_to_body(rows)
                    segment.update(dataset=key[0], version=key[1], shard=shard)
                    started = time.perf_counter()
                    backend._observe_send(session, wire.SEGMENT, segment, body)
                    self.push_seconds = (self.push_seconds or 0.0) + (
                        time.perf_counter() - started
                    )
                    session.held.add(key)
                    self.registry.counter("remote.segment_pushes").inc()
            backend._observe_send(session, wire.EXECUTE, header, self.program_bytes)
        except wire.VersionMismatch:
            # Not a liveness problem: a mixed-version deployment must
            # surface loudly, never degrade into silent fallbacks.
            raise
        except _DEAD_PEER:
            backend._drop_session(index)
            return False
        self.pending.setdefault(index, set()).update(shards)
        return True

    def refresh_deadlines(self) -> None:
        """Restart every owing node's liveness deadline from now."""
        deadline = time.monotonic() + self.backend._node_timeout
        self.deadlines = {index: deadline for index in self.pending}

    def collect_round(self) -> None:
        """One select round: consume ready frames, expire wedged nodes."""
        sessions = self.backend._sessions
        socks = {}
        for index in self.pending:
            if sessions[index] is None:
                self.fail(index)
                return
            socks[sessions[index].sock] = index
        wait = max(0.0, min(self.deadlines.values()) - time.monotonic())
        try:
            ready, _, _ = select.select(list(socks), [], [], min(wait, 0.25))
        except OSError:
            ready = []
        if not ready:
            for index in list(self.pending):
                if time.monotonic() >= self.deadlines[index]:
                    # No frame within the liveness deadline: wedged.
                    self.fail(index)
            return
        for sock in ready:
            index = socks[sock]
            session = sessions[index]
            if index not in self.pending or session is None:
                continue
            try:
                frame = self.backend._observe_read(
                    session, self.backend._node_timeout
                )
            except _DEAD_PEER:
                self.fail(index)
                continue
            self.deadlines[index] = time.monotonic() + self.backend._node_timeout
            self.apply(index, frame)

    def apply(self, index: int, frame: wire.Frame) -> None:
        """Fold one frame from node ``index`` into the query.

        A stale, unowned or malformed frame changes nothing: the node's
        deadline and the shard's one re-assignment settle the shard.
        Every field is parsed before anything is written.
        """
        kind, header = frame.kind, frame.header
        if kind not in (wire.PARTIAL, wire.PARTIAL_MISSING, wire.QUERY_DONE):
            return  # public acks and chatter
        try:
            qid = int(header["qid"])
            shard = -1 if kind == wire.QUERY_DONE else int(header["shard"])
            elapsed = float(header.get("elapsed", 0.0))
        except (KeyError, TypeError, ValueError, OverflowError):
            return
        if qid != self.qid:
            return  # stale frame from a previous query on this session
        owed = self.pending.get(index, set())
        if kind == wire.QUERY_DONE:
            # A node sends one QUERY_DONE per EXECUTE frame; an adopted
            # shard's EXECUTE may still be queued behind this one, so
            # the node is finished only when nothing remains owed.
            if index in self.pending and not owed:
                del self.pending[index]
                self.deadlines.pop(index, None)
            return
        if shard not in owed:
            # Only the node a shard is assigned to may answer for it: a
            # buggy or hostile node must never clobber a partial another
            # node computed, nor fill a shard it was never given.
            return
        if kind == wire.PARTIAL_MISSING:
            # The node's segment LRU evicted a dataset we believed it
            # held (``session.held`` caches pushes, it is not a lease):
            # forget the stale pushes and re-push the shard to the
            # least-loaded node, once, before fallback is considered.
            owed.discard(shard)
            for session in self.backend._sessions:
                if session is not None:
                    session.held.discard((*self.dskey, shard))
            repushed = self.reassign([shard])
            if repushed:
                self.registry.counter("remote.repushed_shards").inc(repushed)
            return
        if self.filled[shard]:
            owed.discard(shard)
            return
        rows, columns = int(self.counts[shard]), self.spec.output_dimension
        try:
            partial = wire.body_to_array(header, frame.body[: rows * columns * 8])
            mask = wire.bytes_to_mask(frame.body[rows * columns * 8 :], rows)
        except wire.CorruptFrame:
            return  # malformed partial: treated as missing
        if partial.shape != (rows, columns) or not 0.0 <= elapsed < float("inf"):
            return
        base = int(self.bases[shard])
        self.outputs[base : base + rows] = partial
        self.succeeded[base : base + rows] = mask
        self.filled[shard] = True
        self.elapsed += elapsed
        owed.discard(shard)

    def fail(self, index: int) -> None:
        """Declare node ``index`` dead and re-assign its unanswered shards."""
        self.backend._drop_session(index)
        self.deadlines.pop(index, None)
        reassigned = self.reassign(sorted(self.pending.pop(index, ())))
        if reassigned:
            self.registry.counter("remote.reassigned_shards").inc(reassigned)

    def reassign(self, shards: list[int]) -> int:
        """Re-assign each unfilled shard once; how many found a node.

        A shard gets one re-assignment per query (the next stop is its
        fallback rows).  Every adoption restarts the owing nodes'
        deadlines, since an adopter now owes more.
        """
        adopted = 0
        for shard in shards:
            if self.filled[shard] or shard in self.reassigned:
                continue
            self.reassigned.add(shard)
            if self.adopt(shard):
                adopted += 1
                self.refresh_deadlines()
        return adopted

    def adopt(self, shard: int) -> bool:
        """Hand one orphaned shard to a surviving (or idle) node."""
        if self.resident is None:
            # Federated: the dead curator was the shard's only holder —
            # no other node has (or may ever receive) its rows, so the
            # shard resolves to the data-independent fallback instead.
            return False
        sessions = self.backend._sessions
        # Nodes still owing this query, then idle live ones, least-loaded
        # first with ties by index — irrelevant to released bits, but it
        # keeps frame sequences reproducible for the fault matrix.  A
        # failed dispatch dropped that node's session; its own shards
        # expire through the normal fail path if it was mid-query.
        candidates = sorted(
            (i for i, s in enumerate(sessions) if i in self.pending or s is not None),
            key=lambda i: (len(self.pending.get(i, ())), i),
        )
        return any(self.dispatch(index, [shard]) for index in candidates)


__all__ = [
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_NODE_TIMEOUT",
    "LocalNodeCluster",
    "RemoteShardBackend",
    "local_node_cluster",
    "parse_node_address",
]
