"""Cross-query optimization must never change the released bits.

One matrix pins the invariant of :mod:`repro.optimizer`:

* **Answer cache × backend**: for every execution backend, a seeded
  query releases bit-identical values with the cache disabled, on a
  cold cache (miss + store) and on a warm cache (replay) — the cache
  probe consumes no generator draws, and a replay is the stored bits.

Scheduled-versus-serial bit identity (dispatch order is pure
scheduling) is pinned in ``tests/test_scheduler.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import TightRange
from repro.datasets.table import DataTable
from repro.estimators.statistics import Mean
from repro.runtime.computation_manager import ComputationManager

SEED = 424242
QUERY_SEED = 7
EPSILON = 0.5
BLOCK_SIZE = 50
NUM_RECORDS = 1_000

BACKENDS = ["serial", "vectorized", "remote"]


def _values() -> np.ndarray:
    return np.random.default_rng(SEED).uniform(0.0, 100.0, size=(NUM_RECORDS, 1))


def _release(runtime) -> tuple:
    result = runtime.run(
        "data",
        Mean(),
        TightRange((0.0, 100.0)),
        epsilon=EPSILON,
        block_size=BLOCK_SIZE,
        rng=QUERY_SEED,
    )
    return tuple(float(v) for v in result.value), result.cached


def _runtime(backend, answer_cache_size=None) -> GuptRuntime:
    manager = DatasetManager()
    manager.register(
        "data", DataTable(_values(), input_ranges=[(0.0, 100.0)]),
        total_budget=100.0,
    )
    computation = ComputationManager(
        backend=backend, nodes=2 if backend == "remote" else None, shards=2
    )
    return GuptRuntime(
        manager, computation, rng=SEED, answer_cache_size=answer_cache_size
    )


class TestAnswerCacheMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_disabled_cold_warm_release_identical_bits(self, backend):
        with _runtime(backend) as plain:
            disabled, _ = _release(plain)
        with _runtime(backend, answer_cache_size=16) as cached:
            cold, cold_hit = _release(cached)
            warm, warm_hit = _release(cached)
        assert not cold_hit and warm_hit
        assert disabled == cold == warm

    def test_backends_agree_with_each_other(self):
        releases = set()
        for backend in BACKENDS:
            with _runtime(backend, answer_cache_size=16) as runtime:
                releases.add(_release(runtime)[0])
        assert len(releases) == 1
