"""Memoized block plans for repeated queries.

Drawing a block plan costs an ``O(gamma * n)`` permutation plus a row
sort — per query, even when an analyst (or a benchmark, or a dashboard
refreshing the same statistic) re-runs the identical program shape
against the identical dataset.  :class:`BlockPlanCache` memoizes the
drawn plan and nothing else: the ``(l, beta, d)`` stacked block rows
are gathered fresh for every query, hit or miss, so they are that
query's own working memory and are freed when it ends.  Only block
outputs outlive a query; no cached entry ever holds a record value.

**Cache-key privacy invariant.**  Keys are data-independent *by
construction*: a :class:`PlanKey` holds only the dataset's registration
identity (name + version), its public geometry (record count, block
size, resampling factor) and the plan seed — all values the analyst
already knows or chose.  No key component is ever derived from a record
value or a block output, so cache hit/miss behavior (and the
``plan_cache.*`` telemetry built from it) cannot leak anything a release
does not already reveal.  Cached *values* are index matrices drawn from
the seed, a function of public parameters alone; they live inside the
trusted platform and are never released.

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

from repro.core.blocks import BlockPlan
from repro.observability import MetricsRegistry, get_registry

#: Default maximum number of memoized plans.
DEFAULT_MAX_ENTRIES = 16

#: Default approximate byte budget across all cached index matrices.
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
    __slots__ = ("plan", "nbytes")

    def __init__(self, plan: BlockPlan):
        self.plan = plan
        self.nbytes = sum(int(b.nbytes) for b in plan.blocks)


class BlockPlanCache:
    """Thread-safe LRU cache of block plans (index matrices, never rows).

    Parameters
    ----------
    max_entries:
        LRU bound on the number of cached plans.
    max_bytes:
        Approximate bound on the total bytes held by cached index
        arrays; the least recently used entries are evicted until the
        cache fits.
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
        """The memoized plan for ``key`` and a fresh stack of its blocks.

        On a miss, ``draw`` produces the plan (from the key's seed — the
        caller guarantees ``draw`` is a pure function of the key, which
        is what makes racing misses benign: both compute the same plan).
        Hit or miss, the ``(l, beta, d)`` stack is gathered from
        ``values`` anew: it belongs to the calling query alone, is
        writable, and is freed with it.
        """
        registry = self._registry()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            registry.counter("plan_cache.hits").inc()
            return entry.plan, entry.plan.stack(values)

        registry.counter("plan_cache.misses").inc()
        entry = _Entry(draw())
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
        return entry.plan, entry.plan.stack(values)

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

