"""Sharded execution: determinism, combine protocol, crash containment.

The shard protocol's core contract is that sharding is *execution
geometry*, not a statistical change: for a fixed logical shard count
``S`` (a public plan parameter, like block size) every backend —
serial, vectorized, remote over any number of shard nodes —
releases bit-for-bit identical values under the same seed.
These tests pin that matrix, the shard-major combine protocol
underneath it, the degrade paths (timing defense, unpicklable programs,
explicit grouped plans), and what a node-killing program costs: only
its own shard, which resolves to fallback rows.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.blocks import (
    draw_shard_local_plan,
    draw_sharded_plan,
    shard_block_counts,
    shard_offsets,
)
from repro.core.gupt import GuptRuntime
from repro.core.plan_cache import BlockPlanCache, PlanKey
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import RemoteShardBackend, local_node_cluster
from repro.runtime.remote import backend as backend_module
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.shard import ShardQuerySpec
from repro.runtime.timing import TimingDefense
from tests.test_blocks import plan_digest

SEED = 424242
QUERY_SEED = 7
EPSILON = 0.5
BLOCK_SIZE = 50
NUM_RECORDS = 1_000
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def crash_on_negative_mean(block):
    """Kills its host process on shard-0 data (see the crash test).

    Module-level so it pickles by reference: a nested def would silently
    degrade the sharded fast path to the in-process chamber — and kill
    the test run.  Node subprocesses import it from this module.
    """
    if float(np.mean(block)) < 0:
        os._exit(13)
    return float(np.mean(block))


crash_on_negative_mean.output_dimension = 1


@pytest.fixture
def spawned_nodes(monkeypatch):
    """``(processes, stderr logs)`` every process-node start creates."""
    processes, logs = [], []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            processes.append(self)

    def recording_log():
        logs.append(temporary_file())
        return logs[-1]

    temporary_file = backend_module.tempfile.TemporaryFile
    monkeypatch.setattr(backend_module.subprocess, "Popen", RecordingPopen)
    monkeypatch.setattr(backend_module.tempfile, "TemporaryFile", recording_log)
    return processes, logs


def _values(num_records: int = NUM_RECORDS) -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(num_records, 1))


def _release(
    *,
    backend: str | None = None,
    shards: int | None = None,
    nodes=None,
    computation: ComputationManager | None = None,
    metrics: MetricsRegistry | None = None,
    program=None,
    num_records: int = NUM_RECORDS,
):
    """One seeded query through a fresh runtime; the released tuple."""
    manager = DatasetManager()
    manager.register(
        "data", DataTable(_values(num_records), input_ranges=[(0.0, 100.0)]),
        total_budget=100.0,
    )
    if computation is None:
        computation = ComputationManager(
            backend=backend, shards=shards, nodes=nodes, metrics=metrics
        )
    runtime = GuptRuntime(
        manager, computation_manager=computation, rng=SEED, metrics=metrics
    )
    try:
        result = runtime.run(
            "data",
            program if program is not None else Mean(),
            TightRange((0.0, 100.0)),
            epsilon=EPSILON,
            block_size=BLOCK_SIZE,
            rng=QUERY_SEED,
        )
    finally:
        runtime.close()
    return tuple(float(v) for v in result.value), result.num_blocks


class TestDeterminismMatrix:
    def test_every_backend_agrees_at_fixed_shards(self):
        """serial/vectorized/remote: same bits at S=4."""
        releases = {
            "serial": _release(backend="serial", shards=4),
            "vectorized": _release(backend="vectorized", shards=4),
            "remote-N1": _release(backend="remote", nodes=1, shards=4),
            "remote-N2": _release(backend="remote", nodes=2, shards=4),
            "remote-N4": _release(backend="remote", nodes=4, shards=4),
        }
        assert len(set(releases.values())) == 1, releases

    def test_worker_count_never_moves_bits(self):
        """K is deployment geometry: uneven shard/node splits included
        (``nodes`` also sets the remote backend's default shard count,
        which the explicit ``shards`` overrides)."""
        releases = {
            k: _release(backend="remote", nodes=k, shards=6)
            for k in (1, 2, 3, 4, 6)
        }
        assert len(set(releases.values())) == 1, releases

    def test_node_count_never_moves_bits(self):
        """Remote node count N is deployment geometry, exactly like K."""
        releases = {
            n: _release(backend="remote", nodes=n, shards=6)
            for n in (1, 2, 3, 6)
        }
        releases["serial"] = _release(backend="serial", shards=6)
        assert len(set(releases.values())) == 1, releases

    def test_process_node_imports_programs_from_a_caller_pythonpath(
        self, tmp_path, monkeypatch, request
    ):
        """A caller's ``env`` PYTHONPATH joins the node's own import
        path, so the node still imports this package and can unpickle
        a per-block program defined outside it."""
        (tmp_path / "caller_side_program.py").write_text(
            "import numpy as np\n"
            "\n"
            "def block_mean(block):\n"
            "    return float(np.mean(block))\n"
            "\n"
            "block_mean.output_dimension = 1\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        request.addfinalizer(lambda: sys.modules.pop("caller_side_program", None))
        from caller_side_program import block_mean

        metrics = MetricsRegistry()
        with local_node_cluster(
            1, spawn="process", env={"PYTHONPATH": str(tmp_path)}
        ) as cluster:
            computation = ComputationManager(
                backend="remote", nodes=cluster.addresses, metrics=metrics
            )
            released, num_blocks = _release(
                computation=computation, metrics=metrics, program=block_mean
            )
        counters = metrics.snapshot()["counters"]
        assert counters["remote.queries"] == 1
        assert counters["blocks.success"] == num_blocks
        assert (released, num_blocks) == _release(
            backend="serial", program=block_mean
        )

    def test_remote_subprocess_nodes_agree(self):
        """Real node processes over TCP release the same bits as serial."""
        remote = RemoteShardBackend(
            shards=4, nodes=2, node_spawn="process", heartbeat_interval=None
        )
        try:
            computation = ComputationManager(
                backend="remote", shards=4, sharded=remote
            )
            over_tcp = _release(computation=computation)
        finally:
            remote.close()
        assert over_tcp == _release(backend="serial", shards=4)

    def test_single_shard_matches_legacy_protocol(self):
        """S=1 is *defined* as the pre-sharding plan protocol."""
        assert _release(backend="serial") == _release(
            backend="remote", nodes=1, shards=1
        )

    def test_shard_count_is_a_public_plan_parameter(self):
        """Changing S redraws the plan — S reaches the released bits."""
        assert _release(backend="serial", shards=2) != _release(
            backend="serial", shards=4
        )

    def test_fast_path_actually_ran(self):
        metrics = MetricsRegistry()
        _release(backend="remote", nodes=2, shards=4, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["remote.queries"] == 1
        assert not any(k.startswith("sharded.fallbacks") for k in counters)


class TestSegmentResidency:
    def test_warm_queries_push_no_segments(self):
        """Rows cross the wire once per shard: after the cold query,
        repeats move only plans, programs and partials."""
        metrics = MetricsRegistry()
        manager = DatasetManager()
        manager.register(
            "data", DataTable(_values(), input_ranges=[(0.0, 100.0)]),
            total_budget=100.0,
        )
        with GuptRuntime(
            manager,
            ComputationManager(
                backend="remote", nodes=2, shards=4, metrics=metrics
            ),
            rng=SEED,
            metrics=metrics,
        ) as runtime:
            releases = [
                tuple(runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)), epsilon=EPSILON,
                    block_size=BLOCK_SIZE, rng=QUERY_SEED,
                ).value)
                for _ in range(4)
            ]
        counters = metrics.snapshot()["counters"]
        assert counters["remote.segment_pushes"] == 4
        assert counters.get("remote.degraded_queries", 0) == 0
        assert len(set(releases)) == 1, releases


class TestCombineProtocol:
    def test_combined_plan_is_shard_major_concatenation(self):
        combined = draw_sharded_plan(
            NUM_RECORDS, block_size=BLOCK_SIZE, resampling_factor=2,
            plan_seed=99, shards=3,
        )
        offsets = shard_offsets(NUM_RECORDS, 3)
        base = 0
        rebuilt = []
        for shard in range(3):
            local = draw_shard_local_plan(
                int(offsets[shard + 1] - offsets[shard]),
                BLOCK_SIZE, 2, plan_seed=99, shards=3, shard=shard,
            )
            rebuilt.extend(
                [int(offsets[shard]) + int(i) for i in block]
                for block in local.blocks
            )
            base += local.num_blocks
        assert [list(map(int, b)) for b in combined.blocks] == rebuilt

    def test_slice_stacked_matches_worker_local_stack(self):
        """The coordinator's combined stack slices into exactly the
        worker-local materializations — the equivalence the partials-only
        combine rests on.  Blocks are shard-major, so shard ``s`` owns
        the contiguous row range public geometry gives it."""
        values = _values(600)
        shards = 3
        cache = BlockPlanCache(metrics=MetricsRegistry())
        combined_key = PlanKey(
            dataset="d", version=1, num_records=600, block_size=BLOCK_SIZE,
            resampling_factor=1, seed=5, shards=shards,
        )
        _, combined_stacked = cache.plan_and_stack(
            combined_key, values,
            lambda: draw_sharded_plan(
                600, block_size=BLOCK_SIZE, plan_seed=5, shards=shards
            ),
        )
        offsets = shard_offsets(600, shards)
        starts = np.concatenate(
            [[0], np.cumsum(shard_block_counts(600, BLOCK_SIZE, 1, shards))]
        )
        for shard in range(shards):
            local_values = values[int(offsets[shard]) : int(offsets[shard + 1])]
            local_plan = draw_shard_local_plan(
                local_values.shape[0], BLOCK_SIZE, 1,
                plan_seed=5, shards=shards, shard=shard,
            )
            local_stacked = np.stack(
                [local_values[list(block)] for block in local_plan.blocks]
            )
            np.testing.assert_array_equal(
                combined_stacked[starts[shard] : starts[shard + 1]],
                local_stacked,
            )

    @pytest.mark.parametrize(
        "n, beta, gamma, seed, shards, shape, digest",
        [
            (997, 25, 2, 2**62 + 5, 3, (78, 25),
             "c7db5cfb72b112d84c3fd3110f7327728d06fda37d855b274d26730ca721cf8b"),
            (600, 50, 3, 7, 4, (36, 50),
             "9879993dbea819a17ca08025bb1d6f821458d63600138530e0428ed2e24e3dcc"),
            (200_000, 1000, 1, 9, 4, (200, 1000),
             "987b2e5710f74196186ade1ce459ece38cc841440787d9591f57fdd8cb1f42e3"),
        ],
        ids=["n997-g2-S3", "n600-g3-S4", "n200k-g1-S4"],
    )
    def test_sharded_plan_matches_pinned_digest(
        self, n, beta, gamma, seed, shards, shape, digest
    ):
        """Digests computed from the per-block-list draw the
        matrix-native concatenation replaced: no plan bit moved."""
        combined = draw_sharded_plan(
            n, block_size=beta, resampling_factor=gamma,
            plan_seed=seed, shards=shards,
        )
        matrix = combined.index_matrix
        assert matrix.shape == shape
        assert not matrix.flags.writeable
        assert all(block.base is matrix for block in combined.blocks)
        assert plan_digest(matrix) == digest

    def test_shard_local_plan_matches_pinned_digest(self):
        local = draw_shard_local_plan(333, 25, 3, plan_seed=77, shards=3, shard=1)
        assert local.index_matrix.shape == (39, 25)
        assert plan_digest(local.index_matrix) == (
            "a9df906215a20e26ee859b99dd2282bf46bcad313ab385ccb263dc555db23234"
        )

    def test_shard_block_counts_partition_the_plan(self):
        counts = shard_block_counts(NUM_RECORDS, BLOCK_SIZE, 2, 3)
        combined = draw_sharded_plan(
            NUM_RECORDS, block_size=BLOCK_SIZE, resampling_factor=2,
            plan_seed=1, shards=3,
        )
        assert int(np.sum(counts)) == combined.num_blocks


class TestSelfHealing:
    def test_crash_during_query_substitutes_fallback_rows(self):
        """A program that kills its node on one shard's data: the query
        still completes, the dead shard resolving to fallback rows —
        the same data-independent outcome a chamber gives killed blocks
        — while the other shard's partial survives."""
        # Shard 0 owns the negative half; every block drawn from it
        # kills the node running it (node 0, then the node it was
        # re-assigned to, after that node answered its own shard 1).
        values = np.concatenate(
            [np.full(500, -50.0), np.full(500, 50.0)]
        ).reshape(-1, 1)
        metrics = MetricsRegistry()
        manager = DatasetManager()
        manager.register(
            "data", DataTable(values, input_ranges=[(-100.0, 100.0)]),
            total_budget=100.0,
        )
        # Node subprocesses unpickle the program by reference, so they
        # need this test module importable.
        with local_node_cluster(
            2, spawn="process", env={"PYTHONPATH": REPO_ROOT}
        ) as cluster:
            computation = ComputationManager(
                backend="remote", shards=2, nodes=cluster.addresses,
                metrics=metrics,
            )
            runtime = GuptRuntime(
                manager, computation_manager=computation, rng=SEED,
                metrics=metrics,
            )
            try:
                result = runtime.run(
                    "data", crash_on_negative_mean,
                    TightRange((-100.0, 100.0)),
                    epsilon=EPSILON, block_size=100, rng=3,
                )
            finally:
                runtime.close()
        assert np.all(np.isfinite(result.value))
        counters = metrics.snapshot()["counters"]
        assert counters["remote.reassigned_shards"] == 1
        assert counters["remote.fallback_shards"] == 1
        assert counters["blocks.fallback"] >= 1
        assert counters["blocks.success"] >= 1


class TestDegrades:
    def test_unpicklable_program_degrades_bit_compatibly(self):
        def make_program():
            offset = 0.0  # closure => unpicklable across processes
            program = lambda block: float(np.mean(block)) + offset  # noqa: E731
            program.output_dimension = 1
            return program

        metrics = MetricsRegistry()
        remote = _release(
            backend="remote", nodes=2, shards=3,
            metrics=metrics, program=make_program(),
        )
        serial = _release(backend="serial", shards=3, program=make_program())
        assert remote == serial
        counters = metrics.snapshot()["counters"]
        assert counters['sharded.fallbacks{reason="unpicklable"}'] == 1
        assert counters.get("remote.queries", 0) == 0

    def test_timing_defense_degrades_bit_compatibly(self):
        metrics = MetricsRegistry()
        guarded = ComputationManager(
            chamber=InProcessChamber(
                timing=TimingDefense(cycle_budget=30.0, pad=False)
            ),
            backend="remote", shards=3, nodes=2,
            metrics=metrics,
        )
        remote = _release(computation=guarded, metrics=metrics)
        serial = _release(backend="serial", shards=3)
        assert remote == serial
        counters = metrics.snapshot()["counters"]
        assert counters['sharded.fallbacks{reason="timing_defense"}'] == 1

    def test_grouped_query_bypasses_fast_path(self):
        """group_by hands the engine an explicit plan; the remote
        backend must answer it through the chamber path, identically to
        serial."""
        labels = np.repeat(np.arange(25), 40).astype(float)
        table = DataTable(
            np.column_stack([_values().ravel(), labels]),
            column_names=("x", "user"),
            input_ranges=[(0.0, 100.0), (0.0, 25.0)],
        )

        def grouped_release(backend):
            metrics = MetricsRegistry()
            manager = DatasetManager()
            manager.register("data", table, total_budget=100.0)
            computation = ComputationManager(
                backend=backend, nodes=2 if backend == "remote" else None,
                shards=2, metrics=metrics,
            )
            runtime = GuptRuntime(manager, computation, rng=SEED, metrics=metrics)
            try:
                result = runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)),
                    epsilon=EPSILON, group_by="user", rng=9,
                )
            finally:
                runtime.close()
            return tuple(float(v) for v in result.value), metrics

        remote_value, metrics = grouped_release("remote")
        serial_value, _ = grouped_release("serial")
        assert remote_value == serial_value
        assert metrics.snapshot()["counters"].get("remote.queries", 0) == 0


class TestValidation:
    def test_backend_rejects_bad_geometry(self):
        with pytest.raises(ComputationError):
            RemoteShardBackend(shards=0, nodes=["127.0.0.1:1"])
        with pytest.raises(ComputationError):
            RemoteShardBackend(
                shards=2, nodes=["127.0.0.1:1"], resident_datasets=0
            )
        with pytest.raises(ComputationError):
            RemoteShardBackend(shards=2, nodes=[])

    def test_spec_shard_mismatch_is_an_error(self):
        backend = RemoteShardBackend(
            shards=2, nodes=["127.0.0.1:1"], heartbeat_interval=None
        )
        spec = ShardQuerySpec(
            dataset="d", version=1, num_records=100, block_size=10,
            resampling_factor=1, plan_seed=0, shards=3,
            output_dimension=1, fallback=(0.0,),
        )
        try:
            with pytest.raises(ComputationError, match="3 shards"):
                backend.run_sharded(b"", _values(100), spec)
        finally:
            backend.close()

    def test_manager_validates_shard_count(self):
        with pytest.raises(ValueError):
            ComputationManager(backend="remote", shards=0)

    def test_manager_rejects_mismatched_prebuilt_backend(self):
        backend = RemoteShardBackend(
            shards=2, nodes=["127.0.0.1:1"], heartbeat_interval=None
        )
        try:
            with pytest.raises(ValueError):
                ComputationManager(backend="remote", shards=4, sharded=backend)
        finally:
            backend.close()

    def test_collected_requires_sharded_backend(self):
        manager = ComputationManager(backend="serial")
        with pytest.raises(ComputationError):
            manager.run_sharded_collected(
                Mean(), _values(100), dataset="d", version=1,
                block_size=10, resampling_factor=1, plan_seed=0,
                output_dimension=1, fallback=np.zeros(1),
            )

    def test_process_node_start_failure_carries_its_stderr(self, tmp_path):
        """A node that dies before announcing its port reports why."""
        (tmp_path / "numpy.py").write_text('raise ImportError("boom")\n')
        with pytest.raises(ComputationError, match="did not announce") as info:
            local_node_cluster(1, spawn="process", env={"PYTHONPATH": str(tmp_path)})
        assert "boom" in str(info.value)

    def test_node_that_never_announces_stops_the_cluster(
        self, tmp_path, monkeypatch, spawned_nodes
    ):
        """A node stuck before its ``LISTENING`` line hits the deadline."""
        (tmp_path / "numpy.py").write_text("import time\ntime.sleep(20)\n")
        monkeypatch.setattr(backend_module, "NODE_START_TIMEOUT", 1.0)
        started = time.monotonic()
        with pytest.raises(ComputationError, match="within 1 s"):
            local_node_cluster(
                2, spawn="process", env={"PYTHONPATH": str(tmp_path)}
            )
        assert time.monotonic() - started < 10.0
        processes, logs = spawned_nodes
        assert len(processes) == 2
        assert all(p.returncode is not None for p in processes)
        assert all(log.closed for log in logs)

    def test_one_failing_node_among_several_leaves_nothing_running(
        self, tmp_path, spawned_nodes
    ):
        """The first node to import numpy fails; its siblings start.

        The failure names the failing node's stderr, and every node
        process is reaped and every stderr log closed.
        """
        (tmp_path / "numpy.py").write_text(
            "import os, sys\n"
            "here = os.path.dirname(os.path.abspath(__file__))\n"
            "try:\n"
            "    os.close(os.open(os.path.join(here, 'first'),\n"
            "                     os.O_CREAT | os.O_EXCL | os.O_WRONLY))\n"
            "except FileExistsError:\n"
            "    # Not the first importer: hand over to the real numpy.\n"
            "    sys.path[:] = [p for p in sys.path if p != here]\n"
            "    del sys.modules['numpy']\n"
            "    import numpy\n"
            "else:\n"
            "    raise ImportError('first importer fails: ' + str(os.getpid()))\n"
        )
        with pytest.raises(ComputationError, match="did not announce") as info:
            local_node_cluster(
                3, spawn="process", env={"PYTHONPATH": str(tmp_path)}
            )
        processes, logs = spawned_nodes
        assert len(processes) == 3
        failed = [p for p in processes if p.returncode == 1]
        assert len(failed) == 1
        assert f"first importer fails: {failed[0].pid}" in str(info.value)
        assert all(p.returncode is not None for p in processes)
        assert all(log.closed for log in logs)

    def test_serial_backends_honor_the_shards_knob(self):
        manager = ComputationManager(backend="serial", shards=3)
        assert manager.plan_shards == 3
        assert manager.sharded_backend is None

    def test_sharded_default_is_one_shard_per_worker(self):
        """One logical shard per spawned node; addresses default to 1."""
        with local_node_cluster(2) as cluster:
            for nodes, shards, node_count in (
                (3, 3, 3),
                (None, 1, 1),
                (cluster.addresses, 1, 2),
            ):
                with ComputationManager(backend="remote", nodes=nodes) as manager:
                    assert manager.plan_shards == shards
                    assert manager.sharded_backend.shards == shards
                    assert manager.sharded_backend.nodes == node_count

    def test_no_nodes_means_one_node_at_any_shard_count(self):
        """``nodes=None`` spawns one node, on the backend as on the manager."""
        with RemoteShardBackend(shards=4, heartbeat_interval=None) as backend:
            assert backend.nodes == 1
        with ComputationManager(backend="remote", shards=4) as manager:
            assert manager.sharded_backend.nodes == 1


class TestFederatedDeterminism:
    """Curator-held rows: the node split is deployment geometry too.

    The same 600 rows are handed to 1, 2, 3 or 6 curator nodes (each
    holding a contiguous slice aligned on shard boundaries); every
    split — and the serial engine holding all rows locally — must
    release bit-identical values at the same logical shard count.
    """

    SPLITS = {
        "one-curator": (600,),
        "two-curators": (300, 300),
        "three-curators": (200, 200, 200),
        "six-curators": (100,) * 6,
    }

    def _federated_release(self, split, secret=None):
        from repro.runtime.remote import ShardNodeServer

        values = _values(600)
        servers = []
        addresses = []
        base = 0
        try:
            for rows in split:
                server = ShardNodeServer(
                    curated={"data": values[base : base + rows]}, secret=secret
                )
                servers.append(server)
                addresses.append("{0}:{1}".format(*server.start()))
                base += rows
            runtime = GuptRuntime(
                DatasetManager(),
                ComputationManager(
                    backend="remote", nodes=addresses, shards=6,
                    node_secret=secret,
                ),
                rng=SEED,
            )
            try:
                runtime.register_federated(
                    "data", total_budget=100.0, input_ranges=[(0.0, 100.0)]
                )
                result = runtime.run(
                    "data", Mean(), TightRange((0.0, 100.0)),
                    epsilon=EPSILON, block_size=BLOCK_SIZE, rng=QUERY_SEED,
                )
            finally:
                runtime.close()
            return tuple(float(v) for v in result.value), result.num_blocks
        finally:
            for server in servers:
                server.stop()

    def test_curator_split_never_moves_bits(self):
        releases = {
            name: self._federated_release(split)
            for name, split in self.SPLITS.items()
        }
        releases["in-process"] = _release(
            backend="serial", shards=6, num_records=600
        )
        assert len(set(releases.values())) == 1, releases

    def test_authenticated_curators_release_the_same_bits(self):
        """The auth handshake is transport, not plan: bits don't move."""
        authenticated = self._federated_release((300, 300), secret="s3cret")
        in_process = _release(backend="serial", shards=6, num_records=600)
        assert authenticated == in_process

    def test_misaligned_curator_split_is_refused(self):
        """A curator boundary off the shard grid can't silently re-shard."""
        from repro.exceptions import GuptError

        with pytest.raises((ComputationError, GuptError), match="federate|boundar|align|row counts"):
            self._federated_release((250, 350))
