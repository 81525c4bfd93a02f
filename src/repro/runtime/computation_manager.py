"""The computation manager: fans block executions out to chambers.

In the paper the computation manager is split into a *server* component
(receives the analyst's job, talks to the dataset manager) and a *client*
component on each cluster node (instantiates chambers, pipes data in,
collects outputs, forbids any other communication).  This module keeps
that separation: :class:`ComputationManager` is the server-side object
the GUPT runtime calls; each block execution goes through a
:class:`~repro.runtime.sandbox.ExecutionChamber` or a shard node, which
plays the client role.

Three execution backends trade isolation strength against dispatch cost:

``serial``
    One chamber call per block on the calling thread.  Zero dispatch
    overhead; keeps single-threaded benchmarks honest.
``vectorized``
    The fast path of :mod:`repro.runtime.vectorized`: a program that
    declares a batch form (``run_batch``) runs over the whole stacked
    block array in one numpy call — zero per-block dispatch.  The
    backend only sets ``batch=True`` on
    :func:`~repro.runtime.vectorized.run_blocks`, the block executor
    every in-process path and every shard node shares.  Programs
    without a batch form, ragged block lists, batch calls that raise,
    and queries under an active timing defense all degrade transparently
    to the serial chamber path, counted per reason in
    ``vectorized.fallbacks``.
``remote``
    :class:`~repro.runtime.remote.RemoteShardBackend` — the one shard
    coordinator and the one multi-process data plane.  The dataset is
    split into ``S`` contiguous logical shards held by shard nodes
    (threads or ``repro shard-node`` processes on this box, or nodes on
    other hosts) speaking the framed binary protocol of
    :mod:`repro.runtime.remote.wire`; each shard plans and executes its
    blocks node-locally and ships back only its ``(l_s, p)`` partial of
    clamped block outputs.  The logical shard
    count is a *public plan parameter* (``plan_shards``): every backend
    of a manager configured with ``shards=S`` draws the same S-sharded
    combined plan, so releases are bit-identical whether the shards run
    in-process or on nodes, for any node count and across single-node
    failures.  Queries the shard protocol cannot carry — an active
    timing defense, unpicklable programs, explicit (grouped) plans —
    degrade to the combined-plan chamber path, counted per reason in
    ``sharded.fallbacks``.

Hang-safe, crash-safe per-block isolation is a chamber's job: pass a
:class:`~repro.runtime.sandbox.SubprocessChamber`.  The chamber's
``timing`` is the one source of the §6 timing defense, and the
vectorized and remote fast paths degrade whenever it is active.

The manager is also an instrumentation point (see
:mod:`repro.observability`): per-block latency, success/fallback/kill
counts and ``blocks.pool_width``, the fan-out the last query's blocks
actually ran at (shard nodes, or 1 on the calling thread, which
includes every degrade path).  Recorded latency is the wall-clock
of the whole chamber call *including* any timing-defense padding, so
whenever the defense is on, the histogram observes the padded,
data-independent duration — never the program's raw compute time.
"""

from __future__ import annotations

import pickle
import time
from typing import Sequence

import numpy as np

from repro.exceptions import ComputationError
from repro.observability import MetricsRegistry, get_registry
from repro.core.blocks import ShardPlanSummary
from repro.runtime.sandbox import (
    AnalystProgram,
    ExecutionChamber,
    InProcessChamber,
    timing_active,
)
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.shard import ShardQuerySpec
from repro.runtime.vectorized import BatchOutputs, run_blocks

BACKENDS = ("serial", "vectorized", "remote")


class ComputationManager:
    """Executes an analyst program over many blocks through chambers.

    Parameters
    ----------
    chamber:
        The isolation boundary of every in-process block call: the
        ``serial`` backend and the ``vectorized`` and ``remote`` degrade
        paths.  Defaults to an unbudgeted :class:`InProcessChamber`.
        Its ``timing`` is the manager's only timing-defense setting.
        Chambers always run on the calling thread.
    metrics:
        Registry receiving block-level telemetry; ``None`` uses the
        process default.
    backend:
        One of :data:`BACKENDS`; ``None`` selects ``serial``.
    shards:
        Logical shard count ``S`` of the sharded plan protocol — a
        *public plan parameter* that applies to **every** backend: a
        manager with ``shards=4`` draws 4-sharded combined plans whether
        it executes them serially, through the vectorized path, or on
        shard nodes.  That is what makes the determinism matrix
        possible — fix ``shards`` and vary the backend, and the released
        bits do not move.  Defaults to ``1`` (the legacy single-plan
        protocol, bit-compatible with earlier releases) except under
        ``backend="remote"`` with an int ``nodes``, where it defaults to
        one logical shard per node.
    sharded:
        A pre-built :class:`~repro.runtime.remote.RemoteShardBackend`
        for the ``remote`` backend; ``None`` constructs one on demand.
        Its logical shard count must agree with ``shards`` when both
        are given.  Configure its nodes and secret on the backend
        itself: passing ``nodes`` or ``node_secret`` alongside it, or
        passing it to another backend, raises :class:`ValueError`.
    nodes:
        For ``backend="remote"``: where the shard nodes are — a list of
        ``(host, port)`` / ``"host:port"`` addresses for an existing
        cluster (``repro shard-node`` processes, or
        ``local_node_cluster(K, spawn="process")`` for multi-process
        sharding on one box), an int to spawn that many in-process
        thread nodes, or ``None`` to spawn one.  Passing it to another
        backend raises :class:`ValueError`.
    node_secret:
        For ``backend="remote"``: the shared node-authentication secret
        handed to an auto-constructed :class:`RemoteShardBackend`;
        :class:`ValueError` under any other backend.
    """

    def __init__(
        self,
        chamber: ExecutionChamber | None = None,
        metrics: MetricsRegistry | None = None,
        backend: str | None = None,
        shards: int | None = None,
        sharded: RemoteShardBackend | None = None,
        nodes: int | list | None = None,
        node_secret: str | None = None,
    ):
        backend = backend or "serial"
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; choose from {BACKENDS}")
        if shards is not None and shards < 1:
            raise ValueError("shards must be >= 1 (or None for the default)")
        if isinstance(nodes, int) and nodes < 1:
            raise ValueError("nodes must be >= 1 (or None for one node)")
        remote_only = (sharded, nodes, node_secret)
        if backend != "remote" and any(v is not None for v in remote_only):
            raise ValueError(
                f"sharded=/nodes=/node_secret= need backend='remote', not {backend!r}"
            )
        if sharded is not None and (nodes is not None or node_secret is not None):
            raise ValueError(
                "pass either sharded= or nodes=/node_secret=, not both "
                "(configure a pre-built backend's nodes on the backend)"
            )
        self._chamber = chamber or InProcessChamber(metrics=metrics)
        self._metrics = metrics
        self._backend = backend
        self._sharded = sharded
        self._owns_sharded = sharded is None
        if sharded is not None:
            if shards is not None and sharded.shards != shards:
                raise ValueError(
                    f"shards={shards} disagrees with the provided sharded "
                    f"backend's {sharded.shards} logical shards"
                )
            self._plan_shards = sharded.shards
        elif backend == "remote":
            # One logical shard per spawned node by default: a function
            # of configuration, never of os.cpu_count(), since the shard
            # count is a plan parameter that released bits depend on.
            if shards is None:
                shards = nodes if isinstance(nodes, int) else 1
            self._plan_shards = shards
            self._sharded = RemoteShardBackend(
                shards=shards,
                nodes=nodes,
                metrics=metrics,
                secret=node_secret,
            )
        else:
            self._plan_shards = shards if shards is not None else 1

    @property
    def chamber(self) -> ExecutionChamber:
        return self._chamber

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def sharded_backend(self) -> RemoteShardBackend | None:
        """The shard coordinator of the ``remote`` backend (else ``None``)."""
        return self._sharded

    @property
    def plan_shards(self) -> int:
        """Logical shard count S of every plan this manager draws.

        A public plan parameter (like block size): released bits are a
        function of it, and of nothing else about the deployment —
        node counts, backend choice and cache state never move them.
        """
        return self._plan_shards

    def federate(self, name: str) -> dict:
        """Register ``name`` as a federated dataset from node manifests.

        Only the remote backend can serve federated datasets — the rows
        live on curator nodes, so there is nothing for an in-process
        backend to execute against.  Returns the geometry dict from
        :meth:`RemoteShardBackend.federate` (``num_records``,
        ``num_dimensions``, ``node_rows``).
        """
        if self._backend != "remote" or self._sharded is None:
            raise ComputationError(
                "federated datasets require the remote backend "
                f"(this manager runs {self._backend!r})"
            )
        return self._sharded.federate(name)

    def close(self) -> None:
        """Release backend resources (node sessions); idempotent.

        Teardown paths overlap (``GuptRuntime.close``, context managers,
        test fixtures), so closing twice must be safe: the remote
        backend releases its sessions and any nodes it spawned exactly
        once behind its own guard.  A backend passed in by the caller is
        never closed here — it stays the caller's to close.
        """
        if self._sharded is not None and self._owns_sharded:
            self._sharded.close()

    def __enter__(self) -> "ComputationManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_blocks_collected(
        self,
        program: AnalystProgram,
        output_dimension: int,
        fallback: np.ndarray,
        blocks: np.ndarray | Sequence[np.ndarray],
    ) -> BatchOutputs:
        """Run ``program`` on every block; outcomes in matrix form, in order.

        ``blocks`` is the ``(l, block_size, d)`` stack (as produced by
        :meth:`BlockPlan.stack`), or the block list of a ragged grouped
        plan.  The blocks run through
        :func:`~repro.runtime.vectorized.run_blocks` on the calling
        thread; the ``vectorized`` backend asks it to try the fused
        batch form first and counts why it could not.

        Raises :class:`ComputationError` only when *every* block failed,
        which signals a systemic problem (wrong output dimension, program
        that always crashes) rather than a data-dependent one.  Partial
        failures are kept as fallback outputs — turning them into errors
        would create the exact side channel the chambers exist to close.
        """
        fallback = self._validate_shape(output_dimension, fallback)
        # Empty input is a caller error, not a plan-shape degrade: raise
        # before the executor so telemetry never counts a vectorized
        # fallback for a query that had nothing to run.
        if len(blocks) == 0:
            raise ComputationError("no blocks to execute")
        metrics = self._metrics or get_registry()
        metrics.gauge("blocks.pool_width").set(1)
        vectorized = self._backend == "vectorized"
        started = time.perf_counter()
        batch, reason = run_blocks(
            self._chamber, program, blocks, output_dimension, fallback,
            batch=vectorized,
        )
        if reason is not None:
            metrics.counter("vectorized.fallbacks", reason=reason).inc()
        elif vectorized:
            metrics.counter("vectorized.batches").inc()
            metrics.histogram("vectorized.batch_seconds").observe(
                time.perf_counter() - started
            )
            metrics.histogram("vectorized.blocks_per_batch").observe(batch.num_blocks)
        return self._settle(metrics, batch, output_dimension)

    def run_sharded_collected(
        self,
        program: AnalystProgram,
        values: np.ndarray,
        *,
        dataset: str,
        version: int,
        block_size: int,
        resampling_factor: int,
        plan_seed: int,
        output_dimension: int,
        fallback: np.ndarray,
        clamp_ranges: tuple[tuple[float, ...], tuple[float, ...]] | None = None,
    ) -> tuple[ShardPlanSummary, BatchOutputs] | None:
        """Run one query through the shard nodes, or ``None`` to degrade.

        The sharded fast path: shard-local planning and execution,
        partials-only combine, same telemetry and all-blocks-failed
        error as :meth:`run_blocks_collected`.  Returns ``None`` — after
        counting the reason in ``sharded.fallbacks`` — when the shard
        protocol cannot carry the query (an active timing defense, whose
        per-block kill-and-pad semantics the fused shard execution
        cannot reproduce, or a program pickle cannot ship to a node);
        the caller then replays the *same* S-sharded plan through the
        chamber path, so a degrade never moves released bits.

        ``clamp_ranges`` is the optional ``(lows, highs)`` pair of
        declared per-dimension output bounds; when given, nodes clamp
        block outputs before they cross the shard boundary
        (aggregation clamps to the same bounds again, so the release is
        untouched).
        """
        if self._backend != "remote" or self._sharded is None:
            raise ComputationError("manager is not configured for sharded execution")
        metrics = self._metrics or get_registry()

        def degrade(reason: str) -> None:
            metrics.counter("sharded.fallbacks", reason=reason).inc()
            return None

        if timing_active(self._chamber):
            return degrade("timing_defense")
        try:
            program_bytes = pickle.dumps(program)
        except Exception:
            return degrade("unpicklable")

        fallback = self._validate_shape(output_dimension, fallback)
        clamp_lo = clamp_hi = None
        if clamp_ranges is not None:
            clamp_lo = tuple(float(v) for v in clamp_ranges[0])
            clamp_hi = tuple(float(v) for v in clamp_ranges[1])
        spec = ShardQuerySpec(
            dataset=dataset,
            version=int(version),
            num_records=int(values.shape[0]),
            block_size=int(block_size),
            resampling_factor=int(resampling_factor),
            plan_seed=int(plan_seed),
            shards=self._plan_shards,
            output_dimension=int(output_dimension),
            fallback=tuple(float(v) for v in fallback),
            clamp_lo=clamp_lo,
            clamp_hi=clamp_hi,
        )
        metrics.gauge("blocks.pool_width").set(self._sharded.nodes)
        summary, batch = self._sharded.run_sharded(program_bytes, values, spec)
        return summary, self._settle(metrics, batch, output_dimension)

    @staticmethod
    def _validate_shape(output_dimension: int, fallback) -> np.ndarray:
        if output_dimension < 1:
            raise ComputationError("output dimension must be >= 1")
        fallback = np.asarray(fallback, dtype=float).ravel()
        if fallback.size != output_dimension:
            raise ComputationError(
                f"fallback has {fallback.size} dims, expected {output_dimension}"
            )
        return fallback

    @staticmethod
    def _settle(metrics, batch: BatchOutputs, output_dimension: int) -> BatchOutputs:
        """Record block telemetry; raise if every block failed."""
        succeeded = int(batch.succeeded.sum())
        metrics.counter("blocks.executed").inc(batch.num_blocks)
        metrics.counter("blocks.success").inc(succeeded)
        metrics.counter("blocks.fallback").inc(batch.num_blocks - succeeded)
        metrics.counter("blocks.killed").inc(batch.killed)
        metrics.histogram("blocks.latency_seconds").observe_many(batch.block_latencies)
        if succeeded == 0:
            raise ComputationError(
                "analyst program failed on every block; check that it returns "
                f"a finite vector of dimension {output_dimension}"
            )
        return batch
