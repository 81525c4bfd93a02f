"""Per-layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps the public entry point of each layer — the
service's ``submit``, ``GuptRuntime.run``, budget reserve/commit, the
journal append, the answer-cache lookup, the plan cache, range
estimation, the sample and aggregate phases, block execution and the
remote shard dispatch — with a timing wrapper.  It is called only in a
traced run, after that run's untraced phase, so the end-to-end numbers
of a run never carry wrapper cost.

Spans are tied to a query by the unique ``query_name`` each request
carries: the ``GuptRuntime.run`` wrapper puts it in a thread-local for
the duration of the call, and every nested wrapper on that thread files
its span under it.  Each wrapper keeps a per-thread stack, so a span's
self time is its duration minus the time of the spans nested in it.
Spans outside any query (registration, heartbeats) are dropped.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from harness import percentile


class SpanLog:
    """Spans and counts per query name, filled by the wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0])
        )
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.submitted: dict[str, float] = {}
        self.started: dict[str, float] = {}
        self._undo: list = []

    # -- recording -------------------------------------------------------
    def current(self) -> str | None:
        return getattr(self._local, "query", None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, query: str | None, layer: str, total: float, own: float):
        if query is None:
            return
        with self._lock:
            entry = self.spans[query][layer]
            entry[0] += total
            entry[1] += own

    def count(self, layer: str, amount: float = 1.0, query: str | None = None):
        query = query if query is not None else self.current()
        if query is None:
            return
        with self._lock:
            self.counts[query][layer] += amount

    def timed(self, layer, fn, query_of=None, after=None):
        """Wrap ``fn`` so each call records one ``layer`` span.

        ``query_of(args, kwargs)`` names the query for entry-point
        wrappers (and binds it to the thread for nested ones);
        ``after(args, kwargs, result, seconds)`` may record counts.
        """
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = log._local
            bound = query_of is not None
            if bound:
                previous = getattr(local, "query", None)
                local.query = query_of(args, kwargs)
                log.started[local.query] = time.perf_counter()
            stack = log._stack()
            children = [0.0]
            stack.append(children)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                query = log.current()
                log.record(query, layer, elapsed, elapsed - children[0])
                if bound:
                    local.query = previous
            if after is not None:
                after(args, kwargs, result, elapsed, query)
            return result

        return wrapper

    def export(self) -> dict:
        """Plain-JSON form, for spans recorded in another process."""
        with self._lock:
            return {
                "spans": {q: dict(layers) for q, layers in self.spans.items()},
                "counts": {q: dict(c) for q, c in self.counts.items()},
                "submitted": dict(self.submitted),
                "started": dict(self.started),
            }

    @classmethod
    def restore(cls, exported: dict) -> "SpanLog":
        log = cls()
        for key in ("spans", "counts", "submitted", "started"):
            setattr(log, key, exported[key])
        return log

    def patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- remote observers ------------------------------------------------
    def observe_frames(self, direction: str, frame: bytes) -> None:
        self.count("remote.bytes", len(frame))

    def message_observer(self, shards: int, nodes: int):
        """A ``message_observer`` summing PARTIAL ``elapsed`` per node."""
        from repro.runtime.remote import wire

        def owner(shard: int) -> int:
            for index in range(nodes):
                if index * shards // nodes <= shard < (index + 1) * shards // nodes:
                    return index
            return 0

        def observe(frame) -> None:
            if frame.kind == wire.PARTIAL:
                node = owner(int(frame.header.get("shard", 0)))
                self.count(
                    f"remote.node{node}.elapsed",
                    float(frame.header.get("elapsed", 0.0)),
                )

        return observe


def install(log: SpanLog) -> None:
    """Wrap every layer's entry point (see the module docstring)."""
    from repro.accounting.journal import BudgetJournal
    from repro.accounting.manager import BudgetReservation, RegisteredDataset
    from repro.core.gupt import GuptRuntime
    from repro.core.plan_cache import BlockPlanCache
    from repro.core.range_estimation import HelperRange, LooseOutputRange
    from repro.core.sample_aggregate import SampleAggregateEngine
    from repro.optimizer.answer_cache import AnswerCache
    from repro.runtime.computation_manager import ComputationManager
    from repro.runtime.remote.backend import RemoteShardBackend
    from repro.runtime.service import GuptService

    def wrap(owner, name, layer, **kwargs):
        log.patch(owner, name, log.timed(layer, owner.__dict__[name], **kwargs))

    submit = GuptService.__dict__["submit"]

    @functools.wraps(submit)
    def traced_submit(self, token, request):
        handle = submit(self, token, request)
        log.submitted[request.query_name] = time.perf_counter()
        return handle

    log.patch(GuptService, "submit", traced_submit)
    wrap(GuptRuntime, "run", "runtime", query_of=lambda a, k: k.get("query_name"))
    wrap(RegisteredDataset, "reserve", "accounting.reserve")
    wrap(BudgetReservation, "commit", "accounting.commit")
    wrap(BudgetJournal, "append", "journal.append",
         after=lambda a, k, r, s, q: log.count("journal.appends", 1.0, q))

    def after_lookup(args, kwargs, result, seconds, query):
        log.count("answer_cache.lookups", 1.0, query)
        if result is not None:
            log.count("answer_cache.hits", 1.0, query)

    wrap(AnswerCache, "get", "answer_cache.lookup", after=after_lookup)

    plan_and_stack = BlockPlanCache.__dict__["plan_and_stack"]
    materialize = log.timed("plan_cache.materialize", plan_and_stack)

    @functools.wraps(plan_and_stack)
    def traced_plan_and_stack(self, key, values, draw):
        log.count("plan_cache.lookups")
        if key in self._entries:
            log.count("plan_cache.hits")
            return plan_and_stack(self, key, values, draw)
        return materialize(self, key, values, draw)

    log.patch(BlockPlanCache, "plan_and_stack", traced_plan_and_stack)
    # GUPT-tight returns its declared ranges and estimates nothing, so
    # only the strategies that estimate are wrapped.
    for strategy in (LooseOutputRange, HelperRange):
        wrap(strategy, "estimate", "range.estimate")
    wrap(SampleAggregateEngine, "sample", "engine.sample",
         after=lambda a, k, r, s, q: log.count("blocks", r.num_blocks, q))
    wrap(SampleAggregateEngine, "aggregate", "engine.aggregate")
    wrap(ComputationManager, "run_blocks_collected", "blocks.exec")
    wrap(RemoteShardBackend, "run_sharded", "remote.dispatch")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def counter_total(snapshot: dict, name: str) -> float:
    """Sum of counter ``name`` over all its label sets."""
    return sum(
        value
        for key, value in snapshot["counters"].items()
        if key == name or key.startswith(name + "{")
    )


def _p50_ms(samples) -> float:
    return percentile([s * 1000.0 for s in samples], 0.50)


def per_layer(
    log: SpanLog,
    queries,
    before: dict,
    after: dict,
    traced_qps: float,
    untraced_qps: float,
    nodes: int = 0,
) -> dict:
    """Every per-layer metric of one traced phase.

    ``queries`` are the phase's :class:`harness.Query` records (client
    latencies); ``before``/``after`` are metrics-registry snapshots taken
    around the phase, for the counters the layers keep themselves.
    """
    names = [q.name for q in queries]
    count = max(1, len(names))
    spans = {name: log.spans.get(name, {}) for name in names}
    counts = {name: log.counts.get(name, {}) for name in names}

    def layer(name: str, index: int = 0) -> list[float]:
        return [s[name][index] for s in spans.values() if name in s]

    def total(key: str) -> float:
        return sum(c.get(key, 0.0) for c in counts.values())

    def delta(counter: str) -> float:
        return counter_total(after, counter) - counter_total(before, counter)

    waits, overheads, latencies = [], [], []
    for query in queries:
        run = spans[query.name].get("runtime", [0.0, 0.0])[0]
        submitted = log.submitted.get(query.name)
        started = log.started.get(query.name)
        wait = 0.0
        if submitted is not None and started is not None:
            wait = max(0.0, started - submitted)
        waits.append(wait)
        latencies.append(query.latency)
        overheads.append(max(0.0, query.latency - wait - run))

    appends = [
        spans[n]["journal.append"][0] / counts[n]["journal.appends"]
        for n in names
        if "journal.append" in spans[n]
    ]
    node_compute, wire = [], []
    for name in names:
        if "remote.dispatch" not in spans[name]:
            continue
        compute = max(
            (counts[name].get(f"remote.node{i}.elapsed", 0.0) for i in range(nodes)),
            default=0.0,
        )
        node_compute.append(compute)
        wire.append(spans[name]["remote.dispatch"][0] - compute)
    blocks = total("blocks")
    block_seconds = sum(layer("blocks.exec")) + sum(
        total(f"remote.node{i}.elapsed") for i in range(nodes)
    )
    lookups = total("answer_cache.lookups")
    plan_lookups = total("plan_cache.lookups")
    batches = delta("vectorized.batches")
    fallbacks = delta("vectorized.fallbacks")
    sampled = [n for n in names if "engine.sample" in spans[n]]
    remainder = sum(overheads) / max(1e-12, sum(latencies))
    return {
        "server.overhead_ms.p50": (_p50_ms(overheads), "ms"),
        "server.requests_per_query": (delta("http.requests") / count, "count"),
        "scheduler.wait_ms.p50": (_p50_ms(waits), "ms"),
        "scheduler.wait_ms.p90": (
            percentile([w * 1000.0 for w in waits], 0.90), "ms"
        ),
        "scheduler.admission_rejections": (
            delta("scheduler.admission_rejections"), "count"
        ),
        "accounting.reserve_ms.p50": (_p50_ms(layer("accounting.reserve")), "ms"),
        "accounting.commit_ms.p50": (_p50_ms(layer("accounting.commit")), "ms"),
        "journal.append_ms.p50": (_p50_ms(appends), "ms"),
        "journal.fsyncs_per_query": (delta("journal.fsyncs") / count, "count"),
        "answer_cache.hit_share": (
            total("answer_cache.hits") / lookups if lookups else 0.0, "1"
        ),
        "answer_cache.lookup_ms.p50": (
            _p50_ms(layer("answer_cache.lookup")), "ms"
        ),
        "runtime.self_ms.p50": (_p50_ms(layer("runtime", 1)), "ms"),
        "plan_cache.hit_share": (
            total("plan_cache.hits") / plan_lookups if plan_lookups else 0.0, "1"
        ),
        "plan_cache.materialize_ms.p50": (
            _p50_ms(layer("plan_cache.materialize")), "ms"
        ),
        "plan_cache.mib": (
            sum(
                value
                for key, value in after["gauges"].items()
                if key.startswith("plan_cache.resident_mib")
            ),
            "MiB",
        ),
        "range.estimate_ms.p50": (_p50_ms(layer("range.estimate", 1)), "ms"),
        "engine.sample_ms.p50": (_p50_ms(layer("engine.sample")), "ms"),
        "engine.aggregate_ms.p50": (_p50_ms(layer("engine.aggregate")), "ms"),
        "blocks.per_query": (blocks / max(1, len(sampled)), "count"),
        "blocks.exec_us_per_block": (
            block_seconds * 1e6 / blocks if blocks else 0.0, "us"
        ),
        "vectorized.fallback_share": (
            fallbacks / (batches + fallbacks) if batches + fallbacks else 0.0, "1"
        ),
        "remote.dispatch_ms.p50": (_p50_ms(layer("remote.dispatch")), "ms"),
        "remote.node_compute_ms.p50": (_p50_ms(node_compute), "ms"),
        "remote.wire_ms.p50": (_p50_ms(wire), "ms"),
        "remote.bytes_per_query": (total("remote.bytes") / count, "bytes"),
        "remote.segment_pushes_per_query": (
            delta("remote.segment_pushes") / count, "count"
        ),
        "remote.repushed_shards": (delta("remote.repushed_shards"), "count"),
        "remote.fallback_shards": (delta("remote.fallback_shards"), "count"),
        "trace.remainder_share": (remainder, "1"),
        "trace.overhead_share": (1.0 - traced_qps / untraced_qps, "1"),
    }
