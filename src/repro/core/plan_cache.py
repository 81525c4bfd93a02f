"""Memoized block plans and materializations for repeated queries.

Drawing a block plan costs an ``O(gamma * n)`` permutation and
materializing it another ``O(gamma * n * d)`` gather — per query, even
when an analyst (or a benchmark, or a dashboard refreshing the same
statistic) re-runs the identical program shape against the identical
dataset.  :class:`BlockPlanCache` memoizes both.

**Cache-key privacy invariant.**  Keys are data-independent *by
construction*: a :class:`PlanKey` holds only the dataset's registration
identity (name + version), its public geometry (record count, block
size, resampling factor) and the plan seed — all values the analyst
already knows or chose.  No key component is ever derived from a record
value or a block output, so cache hit/miss behavior (and the
``plan_cache.*`` telemetry built from it) cannot leak anything a release
does not already reveal.  Cached *values* (plans and stacked block
views) are of course sensitive, exactly as the dataset itself is; they
live and die inside the trusted platform and are never released.
Stacked materializations are frozen (``writeable = False``) before
insertion: they are shared across queries, so an analyst program that
mutates its input in place must never be able to corrupt the records a
*later* query computes its release from.

**Invalidation.**  Entries are scoped to a dataset *version*: the
dataset manager assigns a fresh version at every registration, so
re-registering a name can never hit a stale plan, and the manager's
invalidation hooks additionally evict the dead entries eagerly to free
their memory.  An LRU bound on entry count plus an approximate byte
bound keep the cache from growing with unseeded (never-hitting) query
traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.blocks import BlockPlan, shard_block_counts
from repro.observability import MetricsRegistry, get_registry

#: Default maximum number of memoized (plan, materialization) entries.
DEFAULT_MAX_ENTRIES = 16

#: Default approximate byte budget across all cached materializations.
DEFAULT_MAX_BYTES = 256 * 2**20


@dataclass(frozen=True)
class PlanKey:
    """Identity of one memoizable plan — public parameters only.

    ``dataset``/``version`` pin the registration the plan was drawn
    against (a re-registered dataset gets a fresh version, so stale
    plans can never be served); the remaining fields are the plan
    geometry plus the seed the plan's private generator was derived
    from.  Nothing here is a function of record values.

    ``shards`` is the logical shard count of the sharded plan protocol
    (see :func:`repro.core.blocks.draw_sharded_plan`); it participates
    in the key because the combined plan is a pure function of
    ``(seed, shards)`` — a public execution parameter, never a function
    of record values.  Keys always name a whole-dataset plan: shard
    nodes draw and gather their slices fresh per query and memoize
    nothing (:func:`repro.runtime.shard.execute_shard_rows`).
    """

    dataset: str
    version: int
    num_records: int
    block_size: int
    resampling_factor: int
    seed: int
    shards: int = 1


class _Entry:
    __slots__ = ("plan", "stacked", "nbytes")

    def __init__(self, plan: BlockPlan, stacked: np.ndarray | None):
        self.plan = plan
        self.stacked = stacked
        index_bytes = sum(int(b.nbytes) for b in plan.blocks)
        self.nbytes = index_bytes + (int(stacked.nbytes) if stacked is not None else 0)


class BlockPlanCache:
    """Thread-safe LRU cache of block plans and stacked materializations.

    Parameters
    ----------
    max_entries:
        LRU bound on the number of cached plans.
    max_bytes:
        Approximate bound on the total bytes held by cached index
        arrays and stacked materializations; the least recently used
        entries are evicted until the cache fits.
    metrics:
        Registry receiving ``plan_cache.*`` telemetry; ``None`` uses the
        process default.  Every recorded value is a count or byte total
        of cache mechanics keyed by public parameters — release-safe.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        metrics: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        self._metrics = metrics
        self._entries: OrderedDict[PlanKey, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        return self._max_entries

    @property
    def nbytes(self) -> int:
        """Approximate bytes currently held by cached entries."""
        with self._lock:
            return self._bytes

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _record_gauges(self, registry: MetricsRegistry) -> None:
        registry.gauge("plan_cache.entries").set(len(self._entries))
        # Resident size is exported in MiB, not bytes: the value is a
        # function of public geometry only, but raw byte counts reach
        # magnitudes that the release-safety discipline (no unbounded
        # numeric leaves in snapshots) would have to special-case.
        registry.gauge("plan_cache.resident_mib").set(self._bytes / 2**20)

    # ------------------------------------------------------------------
    # The lookup path
    # ------------------------------------------------------------------
    def plan_and_stack(
        self,
        key: PlanKey,
        values: np.ndarray,
        draw: Callable[[], BlockPlan],
    ) -> tuple[BlockPlan, np.ndarray | None]:
        """The memoized plan and stacked materialization for ``key``.

        On a miss, ``draw`` produces the plan (from the key's seed — the
        caller guarantees ``draw`` is a pure function of the key, which
        is what makes racing misses benign: both compute the same entry)
        and the materialization is gathered once.  On a hit both come
        back without touching ``values``.
        """
        registry = self._registry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            registry.counter("plan_cache.hits").inc()
            return entry.plan, entry.stacked

        registry.counter("plan_cache.misses").inc()
        plan = draw()
        stacked = plan.stack(values)
        if stacked is not None:
            # The entry is shared across queries: freeze it so an analyst
            # program that mutates its input in place can never corrupt
            # the cached records other queries will compute from.  The
            # execution layer detects the frozen array and hands such
            # programs per-query copies instead.
            stacked.flags.writeable = False
        entry = _Entry(plan, stacked)
        evicted = 0
        with self._lock:
            if key not in self._entries:
                self._entries[key] = entry
                self._bytes += entry.nbytes
            while len(self._entries) > self._max_entries or (
                self._bytes > self._max_bytes and len(self._entries) > 1
            ):
                _, dropped = self._entries.popitem(last=False)
                self._bytes -= dropped.nbytes
                evicted += 1
            self._record_gauges(registry)
        if evicted:
            registry.counter("plan_cache.evictions").inc(evicted)
        return entry.plan, entry.stacked

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, dataset: str) -> int:
        """Drop every entry for ``dataset``; returns how many were evicted.

        Wired to the dataset manager's registration hooks: a
        re-registered (or retired) name immediately frees its stale
        plans.  Version-scoped keys already make stale *hits* impossible;
        this is about reclaiming the memory.
        """
        registry = self._registry()
        with self._lock:
            stale = [k for k in self._entries if k.dataset == dataset]
            for k in stale:
                self._bytes -= self._entries.pop(k).nbytes
            self._record_gauges(registry)
        if stale:
            registry.counter("plan_cache.invalidations").inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (runtime shutdown)."""
        registry = self._registry()
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._record_gauges(registry)


def slice_stacked_for_shard(stacked: np.ndarray, key: PlanKey, shard: int) -> np.ndarray:
    """One shard's rows of a combined stacked materialization (zero-copy).

    The combined plan of the sharded protocol orders blocks shard-major,
    so shard ``s`` owns a contiguous row range of the ``(l, beta, d)``
    stacked array; its bounds follow from public geometry alone
    (:func:`~repro.core.blocks.shard_block_counts`).  This is the bridge
    between a coordinator-side cached materialization and the per-shard
    view a shard-local executor computes independently — the equivalence
    tests compare the two, and a single-process backend replaying a
    sharded plan can hand out per-shard slices without re-gathering.
    """
    counts = shard_block_counts(
        key.num_records, key.block_size, key.resampling_factor, key.shards
    )
    if not 0 <= shard < key.shards:
        raise ValueError(f"shard {shard} out of range for {key.shards} shards")
    start = int(counts[:shard].sum())
    return stacked[start : start + int(counts[shard])]
