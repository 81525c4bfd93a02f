"""``shard_plane``: the remote backend over two TCP shard-node processes.

An in-process ``GuptService`` with ``backend="remote"`` and 4 logical
shards dispatches to ``local_node_cluster(2, spawn="process")``.  One
analyst thread runs tight ``mean``/``median``/``variance`` over six
200k x 2 datasets.  Two hot datasets take 7 of every 8 queries; every
8th goes round-robin to four cold ones.  The coordinator and the nodes
each keep 4 datasets resident, so the cold queries evict and re-push
segments on a fixed schedule: executes against resident segments
(reads) alternate with segment pushes (writes).
"""

from __future__ import annotations

import numpy as np

from harness import InProcessSystem, Query, ReferenceReplay, query_seed

from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean, Median, Variance
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import local_node_cluster
from repro.runtime.service import GuptService, QueryRequest

RECORDS = 200_000
SHARDS = 4
NODES = 2
EPSILON = 1.0
HOT = ("hot0", "hot1")
COLD = ("cold0", "cold1", "cold2", "cold3")

#: (name, program, range strategy); queries cycle through them in order.
PROGRAMS = (
    ("mean", Mean(), TightRange([(45.0, 55.0)])),
    ("median", Median(), TightRange([(45.0, 55.0)])),
    ("variance", Variance(), TightRange([(80.0, 120.0)])),
)


def dataset_for(index: int) -> str:
    """7 of every 8 queries alternate over the hot pair; the 8th is cold."""
    if index % 8 == 7:
        return COLD[(index // 8) % len(COLD)]
    return HOT[index % 2]


class Workload:
    NOMINAL_QPS = 55.0
    CHECK_SAMPLE = 24
    ROUND = 24

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.tables = {
            name: DataTable(
                np.clip(rng.normal(50.0, 10.0, (RECORDS, 2)), 0.0, 100.0),
                input_ranges=[(0.0, 100.0)] * 2,
            )
            for name in HOT + COLD
        }
        self.references = {
            (dataset, name): (float(program(table.values)),)
            for dataset, table in self.tables.items()
            for name, program, _ in PROGRAMS
        }
        self.reference = ReferenceReplay(self.tables, shards=SHARDS)

    def _request(self, dataset: str, kind: int, seed: int, name: str):
        _, program, strategy = PROGRAMS[kind]
        return QueryRequest(
            dataset, program, strategy, epsilon=EPSILON, seed=seed, query_name=name
        )

    def setup(self) -> InProcessSystem:
        registry = MetricsRegistry()
        cluster = local_node_cluster(NODES, spawn="process")
        try:
            manager = ComputationManager(
                backend="remote", shards=SHARDS, nodes=cluster.addresses,
                metrics=registry,
            )
            service = GuptService(
                computation_manager=manager, rng=0, metrics=registry,
                scheduler_workers=1,
            )
        except BaseException:
            cluster.stop()
            raise
        owner = service.enroll("owner", "owner")
        analyst = service.enroll("analyst", "analyst")
        system = InProcessSystem(
            service, registry, analyst.token, cluster=cluster, manager=manager
        )
        try:
            for dataset, table in self.tables.items():
                service.register_dataset(
                    owner.token, dataset, table, total_budget=1e9
                )
            # Warm-up: every dataset once (pushing its segments), cold
            # first so the hot pair ends resident, as in the steady state.
            for position, dataset in enumerate(COLD + HOT):
                name = f"warm-{dataset}"
                seed = query_seed(self.seed, 9, position)
                request = self._request(dataset, 0, seed, name)
                system.issue(0, Query(name, request, None))
        except BaseException:
            system.close()
            raise
        return system

    def schedules(self, phase: int, count: int) -> list[list[Query]]:
        queries = []
        for index in range(count):
            kind = index % len(PROGRAMS)
            dataset = dataset_for(index)
            name = f"sp-{phase}-{index}"
            seed = query_seed(self.seed, phase, index)
            request = self._request(dataset, kind, seed, name)
            queries.append(Query(name, request, (dataset, PROGRAMS[kind][0])))
        return [queries]

    def close(self) -> None:
        self.reference.close()
