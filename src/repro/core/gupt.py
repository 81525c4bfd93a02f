"""The GUPT runtime: the analyst-facing facade (Figure 2 of the paper).

One call to :meth:`GuptRuntime.run` performs a complete private query:

1. resolve the output dimension and block size (optionally optimized
   from aged data, §4.3);
2. resolve the privacy budget — either supplied directly or derived from
   an accuracy goal (§5.1);
3. atomically *reserve* the privacy budget before anything executes (so
   an adversarial program can never spend budget behind the manager's
   back, and concurrent queries can never jointly overspend); the
   reservation commits once the query releases privately and rolls back
   if the query fails before any noise is drawn;
4. obtain output ranges via the chosen strategy (GUPT-tight / -loose /
   -helper, §4.1), paying the Theorem-1 split;
5. run sample-and-aggregate through isolation chambers and release the
   noisy average.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.accounting.manager import DatasetManager, RegisteredDataset
from repro.core.aging import AgedData
from repro.core.block_size import BlockSizeSearch
from repro.core.blocks import blocks_per_round, default_block_size
from repro.core.budget_estimation import AccuracyGoal, estimate_epsilon
from repro.core.plan_cache import DEFAULT_MAX_ENTRIES, BlockPlanCache
from repro.core.range_estimation import (
    HelperRange,
    LooseOutputRange,
    RangeContext,
    RangeStrategy,
    TightRange,
)
from repro.core.result import GuptResult
from repro.core.sample_aggregate import SampleAggregateEngine, SampledBlocks
from repro.core.user_level import grouped_plan
from repro.datasets.table import FederatedTable
from repro.exceptions import GuptError, InvalidPrivacyParameter
from repro.mechanisms.rng import RandomSource, as_generator, spawn
from repro.observability import MetricsRegistry, get_registry
from repro.optimizer.answer_cache import AnswerCache, build_answer_key
from repro.runtime.computation_manager import ComputationManager


class GuptRuntime:
    """Hosts private queries against datasets registered with a manager.

    Parameters
    ----------
    dataset_manager:
        The trusted registry holding data, budgets and ledgers.
    computation_manager:
        Executes analyst programs behind isolation chambers; defaults to
        a serial in-process manager (see :mod:`repro.runtime`).
    rng:
        Seedable randomness for reproducible experiments.
    metrics:
        Registry receiving phase spans and query telemetry; ``None``
        uses the process default.  Every recorded value is release-safe
        (see :mod:`repro.observability`).
    plan_cache_size:
        Entry bound of the :class:`~repro.core.plan_cache.BlockPlanCache`
        memoizing drawn block plans (never rows) across queries;
        ``None`` for the default, ``0`` disables it.  Its keys are
        public (registration identity, plan geometry, seed), so released
        values do not depend on the setting, and re-registration evicts
        stale entries through the dataset manager's invalidation hooks.
    answer_cache_size:
        Entry bound of the :class:`~repro.optimizer.answer_cache.AnswerCache`
        replaying published releases for bit-identical repeat queries at
        zero marginal ε; ``None``/``0`` (the default) leaves it off.  Hits
        are free, so this changes the budget arithmetic of repeated
        queries (the operator's call), never released bits.

    Execution options (backend, shards, nodes, node secret) belong to
    the :class:`ComputationManager`, which :meth:`close` closes; a
    durable journal belongs to ``DatasetManager(state_dir=...)``, which
    stays the caller's to close.
    """

    def __init__(
        self,
        dataset_manager: DatasetManager | None = None,
        computation_manager: ComputationManager | None = None,
        rng: RandomSource = None,
        metrics: MetricsRegistry | None = None,
        plan_cache_size: int | None = None,
        answer_cache_size: int | None = None,
    ):
        self._datasets = dataset_manager or DatasetManager(metrics=metrics)
        self._computation = computation_manager or ComputationManager(
            metrics=metrics
        )
        self._rng = as_generator(rng)
        self._rng_lock = threading.Lock()
        self._metrics = metrics
        self._plan_cache: BlockPlanCache | None = None
        self._plan_cache_unhook: Callable[[], None] | None = None
        if plan_cache_size != 0:
            self._plan_cache = BlockPlanCache(
                max_entries=plan_cache_size or DEFAULT_MAX_ENTRIES,
                metrics=metrics,
            )
            self._plan_cache_unhook = self._datasets.add_invalidation_hook(
                self._plan_cache.invalidate
            )
        # Both derived caches (block plans and published answers) hang
        # off the same invalidation notification: one re-registration
        # must evict both, or a version bump could leave a replayable
        # answer keyed to records that no longer exist.
        self._answer_cache: AnswerCache | None = None
        self._answer_cache_unhook: Callable[[], None] | None = None
        if answer_cache_size:
            self._answer_cache = AnswerCache(
                max_entries=answer_cache_size, metrics=metrics
            )
            self._answer_cache_unhook = self._datasets.add_invalidation_hook(
                self._answer_cache.invalidate
            )
        # The remote backend keeps registered datasets' values resident
        # to (re-)push shard segments; re-registering a name must drop
        # the stale copy eagerly (version-keyed segments already make
        # stale *use* impossible — this frees the memory).
        self._sharded_unhook: Callable[[], None] | None = None
        sharded = self._computation.sharded_backend
        if sharded is not None:
            self._sharded_unhook = self._datasets.add_invalidation_hook(
                sharded.invalidate
            )
        self._closed = False

    @property
    def dataset_manager(self) -> DatasetManager:
        return self._datasets

    @property
    def computation_manager(self) -> ComputationManager:
        return self._computation

    @property
    def plan_cache(self) -> BlockPlanCache | None:
        return self._plan_cache

    @property
    def answer_cache(self) -> AnswerCache | None:
        return self._answer_cache

    def close(self) -> None:
        """Release execution-backend resources (shard-node sessions).

        The dataset manager stays open (the runtime only ever builds an
        in-memory one, which holds nothing to close); a plan cache drops
        its memoized materializations and unhooks itself from the
        dataset manager (so a long-lived caller-owned manager does not
        pin — or keep invoking — the dead cache).  Idempotent:
        teardown paths overlap (context managers, ``GuptService.close``,
        ``atexit`` handlers), and only the first call releases anything.
        """
        if self._closed:
            return
        self._closed = True
        self._computation.close()
        for unhook in (
            self._plan_cache_unhook,
            self._answer_cache_unhook,
            self._sharded_unhook,
        ):
            if unhook is not None:
                unhook()
        self._plan_cache_unhook = None
        self._answer_cache_unhook = None
        self._sharded_unhook = None
        if self._plan_cache is not None:
            self._plan_cache.clear()
        if self._answer_cache is not None:
            self._answer_cache.clear()

    def __enter__(self) -> "GuptRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def spawn_rng(self) -> np.random.Generator:
        """A child generator for one query, split off thread-safely.

        Concurrent queries must not share the runtime's generator — a
        numpy ``Generator`` is not thread-safe, and interleaved draws
        would make released values depend on scheduling.  Children are
        split deterministically from the runtime's seed, so a seeded
        runtime still yields a reproducible sequence of queries.
        """
        with self._rng_lock:
            return spawn(self._rng, 1)[0]

    def register_federated(
        self,
        name: str,
        total_budget: float,
        column_names=None,
        input_ranges=None,
    ) -> FederatedTable:
        """Register a dataset whose rows live on curator shard nodes.

        The remote backend collects each node's handshake manifest for
        ``name`` (row count, column count, geometry digest) and the
        runtime registers a :class:`FederatedTable` built from geometry
        alone — no value ever enters the coordinator.  Budgets, ledgers
        and (when durable) the journal attach coordinator-side exactly
        as for a local dataset: the curators hold the rows, the
        coordinator holds the privacy state.

        ``column_names`` and ``input_ranges`` are owner-declared,
        non-sensitive metadata, exactly as on :class:`DataTable`.
        Raises :class:`~repro.exceptions.ComputationError` when the
        backend is not remote, a node is unreachable, manifests
        disagree, or curator row counts do not align with whole-shard
        boundaries.
        """
        geometry = self._computation.federate(name)
        table = FederatedTable(
            name,
            geometry["num_records"],
            geometry["num_dimensions"],
            geometry["node_rows"],
            column_names=column_names,
            input_ranges=input_ranges,
        )
        self._datasets.register(name, table, total_budget=total_budget)
        try:
            # Registration fired the invalidation hooks, and the remote
            # backend's hook drops federated geometry along with every
            # other content-derived cache (the right call on a
            # re-registration).  Re-install from the sessions' manifests
            # now that this registration is the current one; on failure
            # (a curator died in the window) withdraw the registration
            # rather than leave a dataset no backend can serve.
            self._computation.federate(name)
        except BaseException:
            self._datasets.unregister(name)
            raise
        return table

    def exact_aggregate(
        self,
        dataset: str,
        program: Callable,
        lower: float,
        upper: float,
        block_size: int | None = None,
        resampling_factor: int = 1,
        output_dimension: int | None = None,
        rng: RandomSource = None,
        registered=None,
    ) -> float:
        """Trusted-side clamped block-output average — **not** a release.

        Runs the same sample phase a private query would (same block
        plan protocol, same chambers, same clamping to ``[lower,
        upper]``) but averages *without noise* and charges nothing.
        The returned value is privacy-sensitive: it exists so gating
        mechanisms (the SVT session layer in
        :mod:`repro.runtime.service`) can compare it against a noisy
        threshold on the trusted side.  It must never be handed to an
        analyst — only a differentially private function of it may be.

        ``registered`` lets a caller that already resolved (and
        version-checked) the registration pin the probe to that exact
        table: re-resolving by name here could race a concurrent
        re-registration and execute against geometry the caller's
        sensitivity bound was never computed for.
        """
        if registered is None:
            registered = self._datasets.get(dataset)
        values = registered.table.values
        dimension = self._resolve_output_dimension(program, output_dimension)
        if dimension != 1:
            raise GuptError(
                f"threshold probes take scalar programs, got dimension {dimension}"
            )
        n = registered.table.num_records
        beta = default_block_size(n) if block_size is None else int(block_size)
        if beta < 1 or beta > n:
            raise GuptError(
                f"block size {beta} infeasible for dataset of {n} records"
            )
        from repro.core.aggregation import OutputRange

        ranges = (OutputRange(float(lower), float(upper)),)
        engine = SampleAggregateEngine(self._computation, None)
        fallback = np.array([ranges[0].midpoint])
        sampled = engine.sample(
            values,
            program,
            dimension,
            fallback,
            block_size=beta,
            resampling_factor=resampling_factor,
            rng=rng,
            plan_cache=self._plan_cache,
            cache_token=(dataset, registered.version),
            # The sharded path clamps on the shard nodes (the wire must
            # only ever carry clamped outputs); clamping is idempotent,
            # so re-clamping below never moves the value.
            output_ranges=ranges,
        )
        outputs = np.clip(sampled.outputs[:, 0], ranges[0].lo, ranges[0].hi)
        return float(np.mean(outputs))

    # ------------------------------------------------------------------
    # The analyst entry point
    # ------------------------------------------------------------------
    def run(
        self,
        dataset: str,
        program: Callable,
        range_strategy: RangeStrategy,
        epsilon: float | None = None,
        accuracy: AccuracyGoal | None = None,
        output_dimension: int | None = None,
        block_size: int | str | None = None,
        resampling_factor: int = 1,
        canonical_order: Callable[[np.ndarray], np.ndarray] | None = None,
        query_name: str = "query",
        group_by: str | int | None = None,
        rng: RandomSource = None,
    ) -> GuptResult:
        """Run one private query and return a :class:`GuptResult`.

        Parameters
        ----------
        dataset:
            Name of a registered dataset.
        program:
            Black-box analyst program: callable from a block (2-D array)
            to a scalar or fixed-length vector.  May carry an
            ``output_dimension`` attribute; otherwise pass it explicitly.
        range_strategy:
            A :class:`TightRange`, :class:`LooseOutputRange` or
            :class:`HelperRange`.
        epsilon:
            Privacy budget for this query.  Exactly one of ``epsilon``
            and ``accuracy`` must be given.
        accuracy:
            An :class:`AccuracyGoal`; GUPT derives the minimal epsilon
            from aged data (§5.1).  Requires the dataset to have aged
            records.
        block_size:
            An int, ``None`` (paper default ``n**0.6``), or ``"auto"``
            to optimize from aged data (§4.3).
        resampling_factor:
            gamma >= 1 (§4.2).
        canonical_order:
            Optional per-block output re-ordering hook (§8).
        query_name:
            Label recorded in the dataset's privacy ledger.
        group_by:
            Optional column (name or index) holding a user/group id.
            When given, partitioning keeps every group's records in one
            block, upgrading the guarantee to *user-level* privacy
            (§8.1): adding or removing a whole user moves at most
            ``resampling_factor`` block outputs.
        rng:
            Optional per-query randomness overriding the runtime's
            shared generator.  Concurrent callers (the query scheduler)
            pass a private generator per query — either derived from the
            request's seed for bit-reproducible releases, or split off
            via :meth:`spawn_rng` — so interleaving never perturbs a
            released value.
        """
        metrics = self._metrics or get_registry()
        generator = self._rng if rng is None else as_generator(rng)
        # The raw integer seed (when one was passed) is what makes a
        # query bit-reproducible — and therefore answer-cacheable.  It
        # must be captured here, before the generator coercion erases it.
        query_seed = int(rng) if isinstance(rng, (int, np.integer)) else None
        with metrics.span("runtime.run", dataset=dataset):
            return self._run(
                metrics,
                generator,
                dataset,
                program,
                range_strategy,
                epsilon=epsilon,
                accuracy=accuracy,
                output_dimension=output_dimension,
                block_size=block_size,
                resampling_factor=resampling_factor,
                canonical_order=canonical_order,
                query_name=query_name,
                group_by=group_by,
                query_seed=query_seed,
            )

    def _run(
        self,
        metrics: MetricsRegistry,
        generator: np.random.Generator,
        dataset: str,
        program: Callable,
        range_strategy: RangeStrategy,
        epsilon: float | None,
        accuracy: AccuracyGoal | None,
        output_dimension: int | None,
        block_size: int | str | None,
        resampling_factor: int,
        canonical_order: Callable[[np.ndarray], np.ndarray] | None,
        query_name: str,
        group_by: str | int | None,
        query_seed: int | None = None,
    ) -> GuptResult:
        registered = self._datasets.get(dataset)
        table = registered.table
        if getattr(table, "federated", False):
            # Curator-held rows: the engine plans against geometry alone
            # and the remote backend collects clamped block partials.
            # Anything that would need the values coordinator-side is
            # refused up front, before any budget moves.
            if self._computation.backend != "remote":
                raise GuptError(
                    f"dataset {dataset!r} is federated and needs the remote "
                    f"backend (this runtime uses "
                    f"{self._computation.backend!r})"
                )
            if group_by is not None:
                raise GuptError(
                    "group_by needs the label column, which a federated "
                    "dataset never sends to the coordinator"
                )
            if canonical_order is not None:
                raise GuptError(
                    "canonical_order re-orders raw block outputs, which a "
                    "federated dataset never sends to the coordinator"
                )
            if getattr(range_strategy, "needs_input_values", True):
                raise GuptError(
                    "this range strategy reads input values or block "
                    "outputs; federated datasets support only value-free "
                    "strategies (GUPT-tight)"
                )
            values = table.placeholder()
        else:
            values = table.values

        # Phase 1: parameter resolution (block size may hill-climb over
        # aged data, epsilon may be derived from an accuracy goal).
        with metrics.span("runtime.resolve", dataset=dataset):
            dimension = self._resolve_output_dimension(program, output_dimension)
            sensitivity = self._declared_width(range_strategy, dimension)
            beta = self._resolve_block_size(
                registered, program, block_size, dimension, sensitivity, epsilon,
                generator,
            )
            epsilon_total, was_estimated = self._resolve_epsilon(
                registered, program, range_strategy, epsilon, accuracy, beta,
                dimension, sensitivity, generator,
            )
        epsilon_range = range_strategy.budget_fraction * epsilon_total
        epsilon_noise = epsilon_total - epsilon_range

        # Answer-cache lookup — strictly *before* the budget reservation.
        # A hit replays bits the analyst already holds (free under
        # post-processing), so it must never open a reservation, never
        # appear as a spend, and never run the analyst program.  Only
        # fully pinned queries are cacheable: an explicit seed (bit
        # reproducibility), an explicit epsilon (accuracy-goal budgets
        # are derived from aged-data draws) and no canonical-order hook
        # (its identity cannot be established in general).
        answer_key = None
        if (
            self._answer_cache is not None
            and query_seed is not None
            and not was_estimated
            and canonical_order is None
        ):
            answer_key = build_answer_key(
                dataset=dataset,
                version=registered.version,
                program=program,
                range_strategy=range_strategy,
                epsilon=epsilon_total,
                output_dimension=dimension,
                block_size=beta,
                resampling_factor=resampling_factor,
                group_by=group_by,
                seed=query_seed,
                shards=self._computation.plan_shards,
            )
            if answer_key is not None:
                replayed = self._answer_cache.get(answer_key)
                if replayed is not None:
                    registered.record_replay(query_name)
                    metrics.counter("runtime.queries", dataset=dataset).inc()
                    metrics.counter("optimizer.replays", dataset=dataset).inc()
                    return replayed

        # Reserve before execution: if the budget cannot cover the query,
        # the analyst program never runs (budget-attack defense), and the
        # hold blocks concurrent queries from claiming the same epsilon.
        # The reservation commits at the first private release; a failure
        # before any noise is drawn rolls it back so a refused or broken
        # query costs nothing.
        reservation = registered.reserve(epsilon_total, query_name)
        metrics.counter("runtime.queries", dataset=dataset).inc()

        # ``released_privately`` flips to True at the last failure-free
        # point before each strategy's first data-dependent noisy draw.
        # A failure after that point must still commit (the release
        # cannot be un-released); a failure before it rolls back.
        released_privately = False
        needs_private_range = epsilon_range > 0.0
        try:
            engine = SampleAggregateEngine(self._computation, canonical_order)
            plan = None
            cache_token = (dataset, registered.version)
            if group_by is not None:
                labels = registered.table.column(group_by)
                # Per-round block count, from the same ⌊n/β⌋ the
                # record-level planner uses (grouped_plan multiplies the
                # resampling factor in itself — passing a pre-multiplied
                # count here would square gamma's effect).
                num_blocks = max(
                    1, blocks_per_round(registered.table.num_records, beta)
                )
                plan = grouped_plan(
                    labels, num_blocks, resampling_factor=resampling_factor,
                    rng=generator,
                )
            sampled_holder: dict[str, SampledBlocks] = {}

            def block_outputs_fn(fallback: np.ndarray) -> np.ndarray:
                nonlocal released_privately
                with metrics.span("runtime.sample", dataset=dataset):
                    sampled = engine.sample(
                        values,
                        program,
                        dimension,
                        fallback,
                        block_size=beta,
                        resampling_factor=resampling_factor,
                        rng=generator,
                        plan=plan,
                        plan_cache=self._plan_cache,
                        cache_token=cache_token,
                    )
                sampled_holder["sampled"] = sampled
                if needs_private_range:
                    # The strategy asked for block outputs in order to
                    # release noisy ranges from them next.
                    released_privately = True
                return sampled.outputs

            # Phase 2: output-range estimation (GUPT-loose triggers the
            # sample phase from inside, so its span nests in this one).
            context = RangeContext(
                input_values=values,
                input_ranges=registered.table.input_ranges,
                output_dimension=dimension,
                block_outputs_fn=block_outputs_fn,
                blocks_per_record=resampling_factor,
            )
            with metrics.span("runtime.range_estimation", dataset=dataset):
                if needs_private_range and not isinstance(
                    range_strategy, LooseOutputRange
                ):
                    # Helper-style strategies release directly from the
                    # inputs; loose defers until block_outputs_fn runs.
                    released_privately = True
                estimate = range_strategy.estimate(
                    context, epsilon_range, rng=generator
                )

            # Phase 3: sample-and-aggregate.
            sampled = sampled_holder.get("sampled")
            if sampled is None:
                fallback = np.array([r.midpoint for r in estimate.ranges])
                with metrics.span("runtime.sample", dataset=dataset):
                    sampled = engine.sample(
                        values,
                        program,
                        dimension,
                        fallback,
                        block_size=beta,
                        resampling_factor=resampling_factor,
                        rng=generator,
                        plan=plan,
                        plan_cache=self._plan_cache,
                        cache_token=cache_token,
                        # Ranges are known here (tight/helper); the
                        # sharded path clamps block outputs on the
                        # nodes before they cross the shard boundary.
                        output_ranges=estimate.ranges,
                    )
            released_privately = True
            with metrics.span("runtime.aggregate", dataset=dataset):
                release = engine.aggregate(
                    sampled, epsilon_noise, estimate.ranges, rng=generator
                )
        except BaseException as exc:
            if released_privately:
                reservation.commit(detail="committed on failure after private release")
            else:
                reservation.rollback()
                # Structured metadata for the service layer: how much of
                # the reserved epsilon was returned (budget arithmetic).
                exc.epsilon_rolled_back = epsilon_total  # type: ignore[attr-defined]
            raise
        reservation.commit()

        # Release-safe query telemetry: everything below is metadata the
        # analyst already receives on GuptResult — never block outputs.
        metrics.histogram("runtime.epsilon_charged", dataset=dataset).observe(
            epsilon_total
        )
        metrics.counter("runtime.failed_blocks", dataset=dataset).inc(
            release.failed_blocks
        )
        metrics.gauge("runtime.last_num_blocks", dataset=dataset).set(
            release.num_blocks
        )
        metrics.gauge("runtime.last_block_size", dataset=dataset).set(
            release.block_size
        )

        result = GuptResult(
            value=release.value,
            epsilon_total=epsilon_total,
            epsilon_noise=epsilon_noise,
            epsilon_range=estimate.epsilon_spent,
            dataset=dataset,
            query=query_name,
            num_blocks=release.num_blocks,
            block_size=release.block_size,
            resampling_factor=release.resampling_factor,
            output_ranges=release.output_ranges,
            noise_scales=release.noise_scales,
            failed_blocks=release.failed_blocks,
            epsilon_was_estimated=was_estimated,
        )
        if answer_key is not None and self._answer_cache is not None:
            # Store only *after* the commit above: a release that was
            # paid for is published, and published bits are replayable.
            self._answer_cache.put(answer_key, result)
        return result

    # ------------------------------------------------------------------
    # Parameter resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_output_dimension(program: Callable, explicit: int | None) -> int:
        if explicit is not None:
            if explicit < 1:
                raise GuptError(f"output dimension must be >= 1, got {explicit}")
            return int(explicit)
        inferred = getattr(program, "output_dimension", None)
        if inferred is None:
            return 1
        return int(inferred)

    @staticmethod
    def _declared_width(strategy: RangeStrategy, dimension: int) -> float | None:
        """Max declared output width, used as the sensitivity proxy.

        Tight and loose strategies declare ranges up front; the helper
        strategy's ranges only exist after private estimation, so it
        offers no a-priori width.
        """
        declared = getattr(strategy, "_ranges", None) or getattr(strategy, "_loose", None)
        if declared is None:
            return None
        return max(r.width for r in declared)

    def _resolve_block_size(
        self,
        registered: RegisteredDataset,
        program: Callable,
        block_size: int | str | None,
        dimension: int,
        sensitivity: float | None,
        epsilon: float | None,
        generator: np.random.Generator,
    ) -> int:
        n = registered.table.num_records
        if block_size is None:
            return default_block_size(n)
        if isinstance(block_size, str):
            if block_size != "auto":
                raise GuptError(f"unknown block size mode {block_size!r}")
            if registered.aged is None:
                raise GuptError(
                    "block_size='auto' needs aged data; register the dataset "
                    "with aged_fraction or aged_table"
                )
            if sensitivity is None:
                raise GuptError(
                    "block_size='auto' needs a declared output range "
                    "(GUPT-tight or GUPT-loose strategy)"
                )
            search = BlockSizeSearch(
                AgedData(registered.aged, rng=generator),
                live_records=n,
                sensitivity=sensitivity,
            )
            search_epsilon = epsilon if epsilon is not None else 1.0
            return search.search(program, search_epsilon, dimension).block_size
        beta = int(block_size)
        if beta < 1 or beta > n:
            raise GuptError(f"block size {beta} infeasible for dataset of {n} records")
        return beta

    def _resolve_epsilon(
        self,
        registered: RegisteredDataset,
        program: Callable,
        strategy: RangeStrategy,
        epsilon: float | None,
        accuracy: AccuracyGoal | None,
        block_size: int,
        dimension: int,
        sensitivity: float | None,
        generator: np.random.Generator,
    ) -> tuple[float, bool]:
        if (epsilon is None) == (accuracy is None):
            raise GuptError("pass exactly one of epsilon or accuracy")
        if epsilon is not None:
            epsilon = float(epsilon)
            if not np.isfinite(epsilon) or epsilon <= 0:
                raise InvalidPrivacyParameter(f"epsilon must be positive, got {epsilon}")
            return epsilon, False

        if registered.aged is None:
            raise GuptError(
                "accuracy goals need aged data; register the dataset with "
                "aged_fraction or aged_table"
            )
        if sensitivity is None:
            raise GuptError(
                "accuracy goals need a declared output range "
                "(GUPT-tight or GUPT-loose strategy)"
            )
        aged = AgedData(registered.aged, rng=generator)
        estimate = estimate_epsilon(
            goal=accuracy,
            aged=aged,
            program=program,
            live_records=registered.table.num_records,
            sensitivity=sensitivity,
            block_size=min(block_size, aged.num_records),
            output_dimension=dimension,
        )
        # The estimate covers the noisy average; gross it up so that the
        # Theorem-1 range split still leaves enough for the noise.
        fraction = strategy.budget_fraction
        total = estimate.epsilon / (1.0 - fraction) if fraction < 1.0 else estimate.epsilon
        return total, True
