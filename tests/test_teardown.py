"""Teardown ordering: every close is idempotent and exactly-once.

Teardown paths overlap in this codebase by design — context managers,
explicit ``close()`` calls, ``GuptService.close`` cascading into
``GuptRuntime.close`` cascading into the backends, ``__del__`` as a
last resort.  A double release of worker processes, node sessions or
shared-memory segments is a crash; a *skipped* release is a leak.  These regression
tests pin the contract at every layer: closing twice is a no-op and the
expensive teardown happens exactly once.
"""

import pickle

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.scheduler import QueryScheduler
from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.remote.backend import LocalNodeCluster


def _table(num_records: int = 400) -> DataTable:
    values = np.random.default_rng(3).uniform(0.0, 100.0, size=num_records)
    return DataTable(values, column_names=["v"], input_ranges=[(0.0, 100.0)])


class TestShardedBackendTeardown:
    """The one shard coordinator: sessions and owned nodes, released once."""

    def _query(self, backend: RemoteShardBackend) -> None:
        from repro.runtime.shard import ShardQuerySpec

        spec = ShardQuerySpec(
            dataset="d", version=1, num_records=40, block_size=10,
            resampling_factor=1, plan_seed=0, shards=backend.shards,
            output_dimension=1, fallback=(0.0,),
        )
        _, batch = backend.run_sharded(
            pickle.dumps(Mean()), np.arange(40.0).reshape(-1, 1), spec
        )
        assert batch.succeeded.all()

    def test_close_is_idempotent_and_terminal(self):
        backend = RemoteShardBackend(
            shards=2, nodes=2, node_spawn="process", heartbeat_interval=None
        )
        self._query(backend)
        processes = list(backend._cluster._processes)
        backend.close()
        assert all(p.poll() is not None for p in processes)
        backend.close()  # second call: cheap no-op, no double release
        with pytest.raises(ComputationError, match="closed"):
            self._query(backend)

    def test_close_releases_segments_exactly_once(self, monkeypatch):
        backend = RemoteShardBackend(shards=2, nodes=1, heartbeat_interval=None)
        self._query(backend)
        assert backend._values, "the query left no resident values"
        stops = []
        original = LocalNodeCluster.stop
        monkeypatch.setattr(
            LocalNodeCluster, "stop",
            lambda cluster: (stops.append(cluster), original(cluster))[1],
        )
        backend.close()
        backend.close()
        assert len(stops) == 1
        assert not backend._values
        assert backend._sessions == [None]

    def test_context_manager_overlapping_explicit_close(self):
        with RemoteShardBackend(
            shards=2, nodes=1, heartbeat_interval=None
        ) as backend:
            self._query(backend)
            backend.close()  # __exit__ will close again — must not raise


class TestComputationManagerTeardown:
    def test_sharded_manager_double_close(self):
        manager = ComputationManager(backend="remote", shards=2, nodes=2)
        backend = manager.sharded_backend
        assert backend._session(0) is not None
        manager.close()
        manager.close()
        assert backend._closed


class TestRuntimeTeardown:
    def test_double_close_unhooks_exactly_once(self):
        manager = DatasetManager()
        manager.register("d", _table(), total_budget=10.0)
        runtime = GuptRuntime(
            manager, ComputationManager(backend="remote", shards=2), rng=0
        )
        runtime.run(
            "d", Mean(), TightRange((0.0, 100.0)), epsilon=0.5,
            block_size=50, rng=1,
        )
        hooks_before = len(manager._invalidation_hooks)
        runtime.close()
        assert len(manager._invalidation_hooks) == hooks_before - 2
        runtime.close()  # idempotent: no double unhook, no error
        assert len(manager._invalidation_hooks) == hooks_before - 2

    def test_close_without_any_query(self):
        manager = DatasetManager()
        manager.register("d", _table(), total_budget=10.0)
        runtime = GuptRuntime(
            manager, ComputationManager(backend="remote", shards=2), rng=0
        )
        runtime.close()
        runtime.close()


class TestServiceTeardown:
    def _service(self) -> GuptService:
        service = GuptService(
            ComputationManager(backend="remote", shards=2, nodes=2), rng=0
        )
        owner = service.enroll(OWNER, "o")
        service.register_dataset(owner.token, "d", _table(), total_budget=10.0)
        return service

    def test_double_close_drains_scheduler_once(self, monkeypatch):
        service = self._service()
        analyst = service.enroll(ANALYST, "a")
        response = service.execute(
            analyst.token,
            QueryRequest(
                dataset="d", program=Mean(),
                range_strategy=TightRange((0.0, 100.0)), epsilon=0.5, seed=1,
            ),
        )
        assert response.ok
        scheduler = service.scheduler
        closes = []
        original = scheduler.close
        monkeypatch.setattr(
            scheduler, "close",
            lambda drain=True: (closes.append(drain), original(drain=drain))[1],
        )
        service.close()
        service.close()
        assert closes == [True]

    def test_close_before_scheduler_exists(self):
        service = GuptService(rng=0)
        service.close()
        service.close()

    def test_context_exit_after_explicit_close(self):
        with self._service() as service:
            service.close()


class TestSchedulerTeardown:
    def test_double_close(self):
        scheduler = QueryScheduler(workers=2)
        scheduler.close()
        scheduler.close()
        assert scheduler._close_finished
