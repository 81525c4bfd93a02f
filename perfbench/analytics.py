"""``analytics``: regression and k-means in process, through the chambers.

One analyst thread submits to an in-process ``GuptService`` on the
default (serial chamber) backend, with in-memory accounting and no
answer cache.  Queries rotate through three programs over one
200k x 5 dataset, in a fixed order so every run does the same work:

* logistic regression, GUPT-tight;
* linear regression, GUPT-loose (range estimation reads block outputs);
* k-means (3 clusters, 15-dim output, a fixed number of Lloyd rounds),
  GUPT-tight.

Per-block Python programs and plan materialization dominate here; HTTP,
the journal and the caches do almost nothing, and the second core stays
idle.
"""

from __future__ import annotations

import numpy as np

from harness import InProcessSystem, Query, ReferenceReplay, query_seed

from repro.core.range_estimation import LooseOutputRange, TightRange
from repro.datasets.table import DataTable
from repro.estimators.kmeans import KMeans
from repro.estimators.linreg import LinearRegression
from repro.estimators.logistic_regression import LogisticRegression
from repro.observability import MetricsRegistry
from repro.runtime.service import GuptService, QueryRequest

RECORDS = 200_000
FEATURES = 4
EPSILON = 4.0
DATASET = "analytics"

#: (name, program, range strategy); queries cycle through them in order.
PROGRAMS = (
    ("logit", LogisticRegression(FEATURES), TightRange([(-3.0, 3.0)] * 5)),
    ("linreg", LinearRegression(FEATURES), LooseOutputRange([(-2.0, 2.0)] * 5)),
    (
        "kmeans",
        KMeans(3, FEATURES + 1, iterations=6, tol=0.0),
        TightRange([(-4.0, 4.0)] * 15),
    ),
)


def synthesize(seed: int) -> np.ndarray:
    """Three Gaussian clusters in 4-D plus a logistic 0/1 label column."""
    rng = np.random.default_rng([seed, 2])
    centers = np.array(
        [[-2.0, -2.0, 0.0, 1.0], [2.0, 0.0, -1.0, -1.0], [0.0, 2.0, 2.0, 0.0]]
    )
    features = centers[rng.integers(0, 3, RECORDS)]
    features = np.clip(features + rng.normal(0.0, 1.0, features.shape), -5, 5)
    weights = np.array([1.0, -0.5, 0.8, 0.3])
    chance = 1.0 / (1.0 + np.exp(-(features @ weights)))
    labels = (rng.random(RECORDS) < chance).astype(float)
    return np.column_stack([features, labels])


class Workload:
    NOMINAL_QPS = 5.0
    CHECK_SAMPLE = 6
    ROUND = len(PROGRAMS)

    def __init__(self, seed: int):
        self.seed = seed
        self.table = DataTable(
            synthesize(seed), input_ranges=[(-5.0, 5.0)] * FEATURES + [(0.0, 1.0)]
        )
        # Non-private answers: each program run once over all records.
        self.references = {
            name: tuple(np.ravel(program(self.table.values)))
            for name, program, _ in PROGRAMS
        }
        self.reference = ReferenceReplay({DATASET: self.table})

    def _request(self, kind: int, seed: int, name: str) -> QueryRequest:
        _, program, strategy = PROGRAMS[kind]
        return QueryRequest(
            DATASET, program, strategy, epsilon=EPSILON, seed=seed, query_name=name
        )

    def setup(self) -> InProcessSystem:
        registry = MetricsRegistry()
        service = GuptService(rng=0, metrics=registry, scheduler_workers=1)
        owner = service.enroll("owner", "owner")
        analyst = service.enroll("analyst", "analyst")
        service.register_dataset(owner.token, DATASET, self.table, total_budget=1e9)
        system = InProcessSystem(service, registry, analyst.token)
        for kind, (name, _, _) in enumerate(PROGRAMS):
            warm = f"warm-{name}"
            request = self._request(kind, query_seed(self.seed, 9, kind), warm)
            system.issue(0, Query(warm, request, None))
        return system

    def schedules(self, phase: int, count: int) -> list[list[Query]]:
        queries = []
        for index in range(count):
            kind = index % len(PROGRAMS)
            name = f"an-{phase}-{index}"
            request = self._request(kind, query_seed(self.seed, phase, index), name)
            queries.append(Query(name, request, PROGRAMS[kind][0]))
        return [queries]

    def close(self) -> None:
        self.reference.close()
