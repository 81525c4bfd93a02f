"""Privacy boundary of the shard wire: partials only, never records.

The shard protocol's design claim is that after a shard's rows are
pushed to its node (coordinator -> node), the only payload that ever
crosses back is the per-shard block summary: a clamped ``(l_s, p)``
output matrix, its success mask, and public scalars.  These tests
capture every frame through the remote backend's ``frame_observer`` /
``message_observer`` hooks and prove it structurally — following the
sentinel-band technique of ``tests/test_observability.py``: all
records live in [7000, 7400], so any unclamped record magnitude in a
place it shouldn't be is detectable, and the kind allowlist plus the
partial-size bound rule out smuggling the raw record slab regardless
of its values.
"""

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager

from tests.test_observability import SENTINEL_LO, SENTINEL_HI, numeric_leaves

SHARDS = 4
BLOCK_SIZE = 100
NUM_RECORDS = 2_000
EPSILON = 0.5


@pytest.fixture
def sentinel_manager(rng):
    manager = DatasetManager()
    values = rng.uniform(SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=NUM_RECORDS)
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


def _serial_release(manager, declared_range):
    """The same seeded query through the in-process serial backend at S."""
    runtime = GuptRuntime(
        manager, ComputationManager(backend="serial", shards=SHARDS), rng=7
    )
    try:
        return runtime.run(
            "census", Mean(), TightRange(declared_range),
            epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
        )
    finally:
        runtime.close()


def _run_remote_observed(manager, metrics, declared_range):
    """One seeded remote query, capturing every frame in both directions.

    Returns ``(result, frames, messages)`` where ``frames`` is a list of
    ``(direction, raw_bytes)`` network captures and ``messages`` the
    decoded node -> coordinator frames.
    """
    from repro.runtime.remote import RemoteShardBackend

    frames = []
    messages = []
    backend = RemoteShardBackend(
        shards=SHARDS, nodes=2, metrics=metrics,
        message_observer=messages.append,
        frame_observer=lambda direction, raw: frames.append((direction, raw)),
        heartbeat_interval=None,
    )
    try:
        computation = ComputationManager(
            backend="remote", shards=SHARDS, sharded=backend,
            metrics=metrics,
        )
        runtime = GuptRuntime(
            manager, computation_manager=computation, rng=7, metrics=metrics
        )
        try:
            result = runtime.run(
                "census", Mean(), TightRange(declared_range),
                epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
            )
            backend.heartbeat_once()  # capture heartbeat frames too
        finally:
            runtime.close()
    finally:
        backend.close()
    return result, frames, messages


class TestRemoteWireSentinels:
    """The shard-boundary privacy claims, proven over a real TCP socket."""

    def _decoded(self, frames, direction):
        from repro.runtime.remote import wire

        return [
            wire.decode_frame(raw) for d, raw in frames if d == direction
        ]

    def test_return_channel_is_allowlisted_and_clamped(self, sentinel_manager):
        """Node -> coordinator traffic: allowlisted kinds only, partial
        matrices clamped below the sentinel band, headers carrying
        nothing but public geometry."""
        from repro.runtime.remote import wire

        metrics = MetricsRegistry()
        _, frames, messages = _run_remote_observed(
            sentinel_manager, metrics, (0.0, 100.0)
        )
        received = self._decoded(frames, "recv")
        assert received, "observer saw no node -> coordinator frames"
        partials = 0
        for frame in received:
            assert frame.kind in wire.NODE_TO_COORDINATOR_KINDS, frame.kind_name
            header_leaves = numeric_leaves(dict(frame.header))
            assert not any(
                SENTINEL_LO <= v <= SENTINEL_HI for v in header_leaves
            ), frame.header
            if frame.kind != wire.PARTIAL:
                assert frame.body == b"", frame.kind_name
                continue
            partials += 1
            rows = int(frame.header["shape"][0])
            matrix = np.frombuffer(frame.body[: rows * 8], dtype="<f8")
            assert (matrix <= 100.0).all()
            assert not (
                (matrix >= SENTINEL_LO) & (matrix <= SENTINEL_HI)
            ).any(), "unclamped sentinel-band value crossed the socket"
            # Far too small to carry the shard's raw record slice.
            assert matrix.size < NUM_RECORDS // SHARDS
        assert partials == SHARDS
        # The message_observer hook saw the same decoded traffic.
        assert all(m.kind in wire.NODE_TO_COORDINATOR_KINDS for m in messages)

    def test_each_shard_segment_is_pushed_to_exactly_one_node(
        self, sentinel_manager
    ):
        """A node only ever receives its *own* shards' rows: no shard's
        segment crosses the wire twice in a healthy query.  (Segments
        legitimately carry sentinel-band rows — that is the positive
        control that the capture hook sees real payload bytes.)"""
        from repro.runtime.remote import wire

        metrics = MetricsRegistry()
        _, frames, _ = _run_remote_observed(
            sentinel_manager, metrics, (0.0, 100.0)
        )
        segments = [
            f for f in self._decoded(frames, "send") if f.kind == wire.SEGMENT
        ]
        pushed = [int(f.header["shard"]) for f in segments]
        assert sorted(pushed) == list(range(SHARDS)), pushed
        rows = np.frombuffer(segments[0].body, dtype="<f8")
        assert ((rows >= SENTINEL_LO) & (rows <= SENTINEL_HI)).all()

    def test_heartbeats_carry_tokens_only(self, sentinel_manager):
        from repro.runtime.remote import wire

        metrics = MetricsRegistry()
        _, frames, _ = _run_remote_observed(
            sentinel_manager, metrics, (0.0, 100.0)
        )
        beats = [
            f for f in self._decoded(frames, "send") + self._decoded(frames, "recv")
            if f.kind in (wire.PING, wire.PONG)
        ]
        assert beats, "heartbeat_once produced no PING/PONG frames"
        for frame in beats:
            assert set(frame.header) == {"token"}
            assert frame.body == b""

    def test_remote_release_matches_in_process_sharded(self, sentinel_manager):
        """Observation hooks, transport and node-side clamping change
        nothing: the remote release equals the in-process release of
        the same S-sharded plan bit for bit."""
        remote, _, _ = _run_remote_observed(
            sentinel_manager, MetricsRegistry(), (0.0, 100.0)
        )
        in_process = _serial_release(sentinel_manager, (0.0, 100.0))
        assert tuple(remote.value) == tuple(in_process.value)


class TestFederatedWireSentinels:
    """Curator mode: not even segments cross the wire.

    With node-held (curated) datasets the coordinator learns geometry
    at registration and clamped partials at query time — nothing else.
    These sentinels prove the stronger boundary end to end: no SEGMENT
    frame in either direction, no sentinel-band number in any frame,
    no raw row bytes on the socket, no values in coordinator memory —
    while the release stays bit-identical to the in-process engine
    holding all the rows locally.
    """

    def _federated_observed(self, values, declared_range):
        from repro.runtime.remote import RemoteShardBackend, ShardNodeServer

        half = NUM_RECORDS // 2
        curators = [
            ShardNodeServer(curated={"census": values[:half]}),
            ShardNodeServer(curated={"census": values[half:]}),
        ]
        addresses = ["{0}:{1}".format(*c.start()) for c in curators]
        frames = []
        metrics = MetricsRegistry()
        try:
            backend = RemoteShardBackend(
                shards=SHARDS, nodes=addresses, metrics=metrics,
                frame_observer=lambda direction, raw: frames.append(
                    (direction, raw)
                ),
                heartbeat_interval=None,
            )
            computation = ComputationManager(
                backend="remote", shards=SHARDS, sharded=backend,
                metrics=metrics,
            )
            runtime = GuptRuntime(
                DatasetManager(), computation_manager=computation, rng=7,
                metrics=metrics,
            )
            try:
                table = runtime.register_federated(
                    "census", total_budget=20.0, column_names=["v"],
                    input_ranges=[(SENTINEL_LO, SENTINEL_HI)],
                )
                result = runtime.run(
                    "census", Mean(), TightRange(declared_range),
                    epsilon=EPSILON, block_size=BLOCK_SIZE, rng=11,
                )
            finally:
                runtime.close()
        finally:
            for curator in curators:
                curator.stop()
        return result, frames, backend, table

    def test_no_segments_no_sentinels_no_resident_values(self, rng):
        from repro.datasets.table import DataTable  # noqa: F401 (parity)
        from repro.exceptions import DatasetError
        from repro.runtime.remote import wire

        values = rng.uniform(
            SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=(NUM_RECORDS, 1)
        )
        result, frames, backend, table = self._federated_observed(
            values, (0.0, 100.0)
        )
        assert frames, "observer saw no traffic"
        decoded = [
            (direction, wire.decode_frame(raw)) for direction, raw in frames
        ]
        # 1. No SEGMENT frame ever crosses, in either direction.
        assert not any(
            frame.kind == wire.SEGMENT for _, frame in decoded
        ), "a segment crossed the wire for a federated dataset"
        # 2. No frame header carries a sentinel-band number, and every
        #    PARTIAL body is clamped below the band.
        partials = 0
        for _, frame in decoded:
            header_leaves = numeric_leaves(dict(frame.header))
            assert not any(
                SENTINEL_LO <= v <= SENTINEL_HI for v in header_leaves
            ), frame.header
            if frame.kind == wire.PARTIAL:
                partials += 1
                rows = int(frame.header["shape"][0])
                matrix = np.frombuffer(frame.body[: rows * 8], dtype="<f8")
                assert (matrix <= 100.0).all()
                assert not (
                    (matrix >= SENTINEL_LO) & (matrix <= SENTINEL_HI)
                ).any()
        assert partials == SHARDS
        # 3. No raw row's 8-byte pattern appears in any frame, either
        #    direction (the strongest no-row-bytes check: exact byte
        #    substring search over every captured frame).
        row_patterns = [
            np.asarray(values[i], dtype="<f8").tobytes() for i in (0, 1, -1)
        ]
        for _, raw in frames:
            for pattern in row_patterns:
                assert pattern not in raw, "raw row bytes crossed the wire"
        # 4. Nothing landed in coordinator memory either: the backend's
        #    resident-value cache is empty and the registered table
        #    refuses to produce values at all.
        assert not backend._values
        with pytest.raises(DatasetError, match="federated"):
            table.values
        assert np.all(np.isfinite(np.asarray(result.value)))

    def test_federated_release_matches_in_process_sharded(self, rng):
        values = rng.uniform(
            SENTINEL_LO + 50.0, SENTINEL_HI - 50.0, size=(NUM_RECORDS, 1)
        )
        federated, _, _, _ = self._federated_observed(values, (0.0, 100.0))

        manager = DatasetManager()
        manager.register(
            "census",
            DataTable(values, column_names=["v"],
                      input_ranges=[(SENTINEL_LO, SENTINEL_HI)]),
            total_budget=20.0,
        )
        in_process = _serial_release(manager, (0.0, 100.0))
        assert tuple(federated.value) == tuple(in_process.value)


#: Every ``remote.*`` metric the coordinator may emit: geometry, counts
#: and seconds, none derived from a record or a block output.
REMOTE_TELEMETRY = frozenset(
    {
        "remote.nodes",
        "remote.shards",
        "remote.queries",
        "remote.segment_pushes",
        "remote.heartbeats",
        "remote.node_deaths",
        "remote.reassigned_shards",
        "remote.repushed_shards",
        "remote.degraded_queries",
        "remote.fallback_shards",
        "remote.dispatch_seconds",
        "remote.partial_rows",
        "remote.segment_push_seconds",
    }
)


class TestRemoteTelemetrySentinels:
    def test_remote_metric_names_are_allowlisted(self, sentinel_manager):
        """A new ``remote.*`` metric is reviewed into the list above first;
        the push histogram observes once per query that pushed."""
        metrics = MetricsRegistry()
        _run_remote_observed(sentinel_manager, metrics, (SENTINEL_LO, SENTINEL_HI))
        snapshot = metrics.snapshot()
        remote_keys = {
            k for section in ("counters", "gauges", "histograms")
            for k in snapshot[section] if k.startswith("remote.")
        }
        assert remote_keys <= REMOTE_TELEMETRY, remote_keys - REMOTE_TELEMETRY
        pushes = snapshot["histograms"]["remote.segment_push_seconds"]
        assert pushes["count"] == 1  # one cold query

    def test_remote_metrics_never_touch_the_sentinel_band(self, sentinel_manager):
        """``remote.*`` telemetry is geometry, counts and seconds only."""
        metrics = MetricsRegistry()
        _run_remote_observed(sentinel_manager, metrics, (SENTINEL_LO, SENTINEL_HI))
        snapshot = metrics.snapshot()
        remote_keys = [
            k for section in ("counters", "gauges", "histograms")
            for k in snapshot[section] if k.startswith("remote.")
        ]
        assert remote_keys, "remote run produced no remote telemetry"
        offenders = [
            v for v in numeric_leaves(snapshot)
            if SENTINEL_LO <= v <= SENTINEL_HI
        ]
        assert not offenders, offenders


class TestNodeCodeStaysOutsideTheLedger:
    """Shard-node code never imports accounting internals.

    A node holds raw rows, so the blast radius of a compromised node
    must stop at its own slice: budgets, ledgers and journals are
    coordinator-side machinery the node process must not even import.
    Pinned twice: in source (an AST walk of the node modules' imports)
    and in a running node process (``-X importtime`` of a node started
    the way :class:`LocalNodeCluster` starts one).  The package facades
    re-export lazily, so importing the node tier through them loads
    nothing else.
    """

    NODE_MODULES = ("repro.runtime.remote.node", "repro.runtime.remote.wire")
    FORBIDDEN_PREFIXES = (
        "repro.accounting",
        "repro.datasets",
        "repro.server",
        # Curator mode sharpens the pin: a node now *holds* raw rows,
        # so a slim node deployment must not even ship the
        # coordinator tier — the engine, the backend that talks to
        # other curators, the service, or the CLI query paths.
        "repro.core.gupt",
        "repro.runtime.computation_manager",
        "repro.runtime.remote.backend",
        "repro.runtime.service",
    )
    # Not a trust boundary but start-up cost: a node draws plans with
    # ``repro.mechanisms.rng`` and never adds noise, so a running node
    # must not load the mechanisms behind the package's facade.
    UNUSED_BY_NODES = (
        "repro.mechanisms.composition",
        "repro.mechanisms.exponential",
        "repro.mechanisms.laplace",
        "repro.mechanisms.percentile",
    )

    def _imports_of(self, module_name):
        import ast
        import importlib

        module = importlib.import_module(module_name)
        with open(module.__file__, "r", encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        names = []
        for statement in ast.walk(tree):
            if isinstance(statement, ast.Import):
                names.extend(alias.name for alias in statement.names)
            elif isinstance(statement, ast.ImportFrom):
                base = statement.module or ""
                names.append(base)
                names.extend(f"{base}.{alias.name}" for alias in statement.names)
        return names

    @pytest.mark.parametrize("module_name", NODE_MODULES)
    def test_no_accounting_imports(self, module_name):
        for name in self._imports_of(module_name):
            for prefix in self.FORBIDDEN_PREFIXES:
                assert not name.startswith(prefix), (
                    f"{module_name} imports {name}: node code must never "
                    f"touch {prefix}"
                )
            assert "DatasetManager" not in name, (module_name, name)

    def test_no_accounting_in_the_transitive_import_closure(self):
        """The pin extends transitively, at the source level.

        Follows every ``repro.*`` import from the node modules through
        the files it resolves to (``from pkg import module`` follows the
        module, not the package's ``__init__``, whose lazy re-exports
        load nothing until a name is used).  Nothing reachable may be
        accounting, dataset-ledger, or server-tier code.
        """
        import ast
        import os

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )

        def module_file(name):
            base = os.path.join(src, *name.split("."))
            if os.path.isfile(base + ".py"):
                return base + ".py"
            init = os.path.join(base, "__init__.py")
            return init if os.path.isfile(init) else None

        def direct_imports(name):
            path = module_file(name)
            if path is None:
                return []
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            found = []
            for statement in ast.walk(tree):
                if isinstance(statement, ast.Import):
                    found.extend(
                        alias.name for alias in statement.names
                        if alias.name.startswith("repro")
                    )
                elif isinstance(statement, ast.ImportFrom):
                    base = statement.module or ""
                    if not base.startswith("repro"):
                        continue
                    for alias in statement.names:
                        sub = f"{base}.{alias.name}"
                        sub_file = module_file(sub)
                        if sub_file and not sub_file.endswith("__init__.py"):
                            found.append(sub)  # a submodule: follow it
                        else:
                            found.append(base)  # a name: follow its module
            return found

        closure, stack = set(), list(self.NODE_MODULES)
        while stack:
            module = stack.pop()
            if module in closure:
                continue
            closure.add(module)
            stack.extend(direct_imports(module))

        offenders = sorted(
            module for module in closure
            if module.startswith(self.FORBIDDEN_PREFIXES)
        )
        assert not offenders, (
            f"node code transitively reaches forbidden modules: {offenders}"
        )
        # The closure is small and self-contained — a regression that
        # suddenly drags in half the package should be loud.
        assert len(closure) < 25, sorted(closure)

    def test_a_running_node_imports_no_forbidden_module(self):
        """The pin holds in the process, not only in the source.

        Starts one node exactly as ``local_node_cluster`` does, with
        ``PYTHONPROFILEIMPORTTIME`` (``-X importtime``) writing every
        import to the node's stderr log, and reads that log once the
        node has announced its port.
        """
        from repro.runtime.remote import local_node_cluster

        with local_node_cluster(
            1, spawn="process", env={"PYTHONPROFILEIMPORTTIME": "1"}
        ) as cluster:
            log = cluster._stderr_logs[0]
            log.seek(0)
            report = log.read().decode("utf-8", "replace")
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in report.splitlines()
            if line.startswith("import time:") and "|" in line
        }
        assert "repro.runtime.remote.node" in imported, report[-2000:]
        offenders = sorted(
            name for name in imported
            if name.startswith(self.FORBIDDEN_PREFIXES + self.UNUSED_BY_NODES)
        )
        assert not offenders, f"a shard-node process imported {offenders}"
