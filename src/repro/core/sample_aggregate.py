"""The sample-and-aggregate engine (Algorithm 1 + GUPT's extensions).

The engine is two-phase, because GUPT-loose needs the block outputs
*before* a clamping range exists (it estimates the range privately from
those very outputs, §4.1):

1. :meth:`SampleAggregateEngine.sample` — draw a block plan (optionally
   gamma-resampled), run the analyst program on every block inside an
   isolation chamber, and collect the ``(l, p)`` output matrix.
2. :meth:`SampleAggregateEngine.aggregate` — clamp the matrix to the
   output ranges, average, and add Laplace noise.

:meth:`SampleAggregateEngine.run` chains both for callers that already
know their output range (GUPT-tight / GUPT-helper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.aggregation import NoisyAverageAggregator, OutputRange
from repro.core.blocks import (
    BlockPlan,
    ShardPlanSummary,
    default_block_size,
    draw_sharded_plan,
)
from repro.core.plan_cache import BlockPlanCache, PlanKey
from repro.exceptions import ComputationError
from repro.mechanisms.rng import RandomSource, as_generator
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.sandbox import AnalystProgram


@dataclass(frozen=True)
class SampledBlocks:
    """Phase-1 product: the block plan and the per-block outputs.

    ``outputs`` is **sensitive** (each row is a function of real records)
    and must not leave the trusted platform; only the phase-2 noisy
    aggregate is private to release.

    ``plan`` is a :class:`BlockPlan` when the plan was drawn (or
    replayed) in-process, or a
    :class:`~repro.core.blocks.ShardPlanSummary` when the remote
    backend planned on its shard nodes and only the combined geometry
    came back; both carry the attribute contract aggregation needs
    (``num_blocks``, ``block_size``, ``resampling_factor``,
    ``max_blocks_per_record``).
    """

    plan: "BlockPlan | ShardPlanSummary"
    outputs: np.ndarray
    failed_blocks: int

    @property
    def num_blocks(self) -> int:
        return self.plan.num_blocks

    @property
    def output_dimension(self) -> int:
        return int(self.outputs.shape[1])


@dataclass(frozen=True)
class SampleAggregateResult:
    """Everything one engine run releases, plus safe metadata.

    ``value`` is the only data-derived field that is differentially
    private to publish; ``block_outputs`` is retained for the trusted
    platform's internal use (debugging, GUPT-loose percentiles).
    """

    value: np.ndarray
    epsilon: float
    num_blocks: int
    block_size: int
    resampling_factor: int
    noise_scales: np.ndarray
    output_ranges: tuple[OutputRange, ...]
    failed_blocks: int
    block_outputs: np.ndarray  # sensitive; internal use only

    def scalar(self) -> float:
        """The released value as a float (1-D outputs only)."""
        if self.value.size != 1:
            raise ValueError(f"output has {self.value.size} dimensions, not 1")
        return float(self.value[0])


class SampleAggregateEngine:
    """Runs analyst programs under sample-and-aggregate.

    Parameters
    ----------
    computation_manager:
        Fans blocks out to isolation chambers; defaults to a serial
        in-process manager.
    canonical_order:
        Optional hook applied to each successful block output before
        aggregation.  Multi-output programs (e.g. k-means centers) may
        emit the same values in different orders on different blocks;
        the hook re-sorts each output into a canonical form (§8).
    """

    def __init__(
        self,
        computation_manager: ComputationManager | None = None,
        canonical_order: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self._manager = computation_manager or ComputationManager()
        self._canonical_order = canonical_order

    # ------------------------------------------------------------------
    # Phase 1: sample
    # ------------------------------------------------------------------
    def sample(
        self,
        values: np.ndarray,
        program: AnalystProgram,
        output_dimension: int,
        fallback: np.ndarray | Sequence[float],
        block_size: int | None = None,
        resampling_factor: int = 1,
        rng: RandomSource = None,
        plan: BlockPlan | None = None,
        plan_cache: BlockPlanCache | None = None,
        cache_token: tuple[str, int] | None = None,
        output_ranges: Sequence[OutputRange] | None = None,
    ) -> SampledBlocks:
        """Partition the data and run the program on every block.

        ``fallback`` is the constant substituted for a failed or killed
        block; it must lie in the (loose) output range so the
        substitution is data-independent and in-range.  A pre-drawn
        ``plan`` (e.g. the user-level grouped plan of
        :mod:`repro.core.user_level`) overrides the default record-level
        partitioning.

        ``cache_token`` — the owning dataset's ``(name, version)``
        registration identity — opts this call into the memoizable plan
        protocol: the plan's randomness is funneled through a single
        ``plan_seed`` drawn from ``rng`` (one generator draw whether the
        lookup hits or misses, so seeded releases are bit-identical with
        and without a warm cache), and ``plan_cache``, when given,
        memoizes the drawn plan (never its gathered rows) under the
        data-independent :class:`PlanKey`.  The plan is drawn for
        the manager's ``plan_shards`` logical shards — under the
        ``remote`` backend each shard plans and executes node-locally
        and only its block-output partial crosses back; every other
        backend replays the identical combined plan in-process.

        ``output_ranges``, when already known at sample time (GUPT-tight
        / -helper), lets the sharded path clamp block outputs on the
        nodes before they cross the shard boundary; aggregation clamps
        to the same ranges again, so the release is unchanged.
        """
        if getattr(values, "federated", False):
            # Curator-held data: geometry proxy, no values to coerce —
            # this branch must run before _as_matrix ever sees it.
            return self._sample_federated(
                values, program, output_dimension, fallback, block_size,
                resampling_factor, rng, plan, cache_token, output_ranges,
            )
        values = self._as_matrix(values)
        stacked: np.ndarray | None = None
        if plan is not None:
            if plan.num_records != values.shape[0]:
                raise ValueError(
                    f"plan covers {plan.num_records} records but data has "
                    f"{values.shape[0]}"
                )
            stacked = plan.stack(values)
        elif cache_token is not None:
            num_records = values.shape[0]
            beta = (
                int(block_size)
                if block_size is not None
                else default_block_size(num_records)
            )
            # The one-draw protocol: exactly one value leaves the
            # caller's generator here, whatever happens downstream —
            # cache hit or miss, sharded fast path or degrade — so the
            # noise draws that follow (and the released bits of a seeded
            # query) cannot depend on execution strategy.
            generator = as_generator(rng)
            plan_seed = int(generator.integers(0, 2**63 - 1))
            if self._manager.backend == "remote":
                sampled = self._sample_sharded(
                    values, program, output_dimension, fallback, beta,
                    resampling_factor, plan_seed, cache_token, output_ranges,
                )
                if sampled is not None:
                    return sampled
                # Degrade (counted in sharded.fallbacks): replay the
                # identical S-sharded plan through the chamber path.
            plan, stacked = self._plan_via_cache(
                values, beta, resampling_factor, plan_seed,
                self._manager.plan_shards, plan_cache, cache_token,
            )
        else:
            plan = BlockPlan.draw(
                num_records=values.shape[0],
                block_size=block_size,
                resampling_factor=resampling_factor,
                rng=rng,
            )
            stacked = plan.stack(values)
        # The per-block list is only materialized when there is no
        # rectangular stacked view (ragged grouped plans), so the
        # vectorized fast path never creates per-block Python objects.
        collected = self._manager.run_blocks_collected(
            program,
            output_dimension,
            np.asarray(fallback, dtype=float),
            stacked if stacked is not None else plan.materialize(values),
        )
        failed = int(collected.num_blocks - collected.succeeded.sum())
        outputs = self._apply_canonical_order(collected.outputs, collected.succeeded)
        return SampledBlocks(plan=plan, outputs=outputs, failed_blocks=failed)

    def _sample_federated(
        self,
        values,
        program: AnalystProgram,
        output_dimension: int,
        fallback: np.ndarray | Sequence[float],
        block_size: int | None,
        resampling_factor: int,
        rng: RandomSource,
        plan: BlockPlan | None,
        cache_token: tuple[str, int] | None,
        output_ranges: Sequence[OutputRange] | None,
    ) -> SampledBlocks:
        """Phase 1 for a federated dataset: curator nodes only.

        Replays the one-draw ``plan_seed`` protocol exactly — the same
        single generator draw as the pushed-segment sharded path, which
        is what makes a federated release bit-identical to an in-process
        one over the same rows at the same shard count.  There is no
        chamber fallback: the coordinator holds no values to degrade
        onto, so anything that would degrade raises instead.
        """
        if plan is not None:
            raise ComputationError(
                "federated datasets cannot use explicit block plans "
                "(plans are drawn node-locally from the plan seed)"
            )
        if cache_token is None:
            raise ComputationError(
                "federated datasets require a registered (name, version) "
                "cache token"
            )
        if self._manager.backend != "remote":
            raise ComputationError(
                f"federated datasets require the remote backend, "
                f"not {self._manager.backend!r}"
            )
        if self._canonical_order is not None:
            raise ComputationError(
                "canonical-order hooks need block outputs in-process and "
                "cannot serve federated datasets"
            )
        if output_ranges is None:
            raise ComputationError(
                "federated queries must know their output ranges at sample "
                "time so curators clamp partials before they cross the wire "
                "(use an analyst-declared tight range)"
            )
        num_records = int(values.shape[0])
        beta = (
            int(block_size)
            if block_size is not None
            else default_block_size(num_records)
        )
        generator = as_generator(rng)
        plan_seed = int(generator.integers(0, 2**63 - 1))
        sampled = self._sample_sharded(
            values, program, output_dimension, fallback, beta,
            resampling_factor, plan_seed, cache_token, output_ranges,
        )
        if sampled is None:
            raise ComputationError(
                "federated query degraded from the sharded path (timing "
                "defense or unpicklable program) — curator-held data has "
                "no in-process fallback"
            )
        return sampled

    def _sample_sharded(
        self,
        values: np.ndarray,
        program: AnalystProgram,
        output_dimension: int,
        fallback: np.ndarray | Sequence[float],
        block_size: int,
        resampling_factor: int,
        plan_seed: int,
        cache_token: tuple[str, int],
        output_ranges: Sequence[OutputRange] | None,
    ) -> SampledBlocks | None:
        """Phase 1 through the shard nodes, or ``None`` to degrade.

        Nodes only receive clamp bounds when no canonical-order hook
        is installed: the single-process order is reorder-then-clamp
        (hook in :meth:`sample`, clamp in :meth:`aggregate`), and
        clamping per-dimension ranges does not commute with reordering,
        so a pre-clamped partial would change the release.
        """
        clamp_ranges = None
        if output_ranges is not None and self._canonical_order is None:
            clamp_ranges = (
                tuple(r.lo for r in output_ranges),
                tuple(r.hi for r in output_ranges),
            )
        result = self._manager.run_sharded_collected(
            program,
            values,
            dataset=cache_token[0],
            version=int(cache_token[1]),
            block_size=block_size,
            resampling_factor=resampling_factor,
            plan_seed=plan_seed,
            output_dimension=output_dimension,
            fallback=np.asarray(fallback, dtype=float),
            clamp_ranges=clamp_ranges,
        )
        if result is None:
            return None
        summary, collected = result
        failed = int(collected.num_blocks - collected.succeeded.sum())
        outputs = self._apply_canonical_order(collected.outputs, collected.succeeded)
        return SampledBlocks(plan=summary, outputs=outputs, failed_blocks=failed)

    def _apply_canonical_order(
        self, outputs: np.ndarray, succeeded: np.ndarray
    ) -> np.ndarray:
        if self._canonical_order is None:
            return outputs
        rows = []
        for row, ok in zip(outputs, succeeded):
            if ok:
                row = np.asarray(self._canonical_order(row), dtype=float).ravel()
            rows.append(row)
        return np.vstack(rows)

    @staticmethod
    def _plan_via_cache(
        values: np.ndarray,
        block_size: int,
        resampling_factor: int,
        plan_seed: int,
        shards: int,
        plan_cache: BlockPlanCache | None,
        cache_token: tuple[str, int],
    ) -> tuple[BlockPlan, np.ndarray | None]:
        """Draw (or recall) a plan under the memoizable-seed protocol.

        The plan comes from a private generator derived from the
        pre-drawn ``plan_seed`` (and, when ``shards > 1``, the sharded
        derivation of :func:`draw_sharded_plan`), which is what makes
        the cached entry reusable: the ``draw`` closure is a pure
        function of the :class:`PlanKey`.
        """
        num_records = values.shape[0]
        key = PlanKey(
            dataset=cache_token[0],
            version=int(cache_token[1]),
            num_records=num_records,
            block_size=block_size,
            resampling_factor=int(resampling_factor),
            seed=plan_seed,
            shards=int(shards),
        )

        def draw() -> BlockPlan:
            return draw_sharded_plan(
                num_records=num_records,
                block_size=block_size,
                resampling_factor=resampling_factor,
                plan_seed=plan_seed,
                shards=shards,
            )

        if plan_cache is None:
            plan = draw()
            return plan, plan.stack(values)
        return plan_cache.plan_and_stack(key, values, draw)

    # ------------------------------------------------------------------
    # Phase 2: aggregate
    # ------------------------------------------------------------------
    def aggregate(
        self,
        sampled: SampledBlocks,
        epsilon: float,
        output_ranges: Sequence[OutputRange] | OutputRange,
        rng: RandomSource = None,
    ) -> SampleAggregateResult:
        """Clamp, average and perturb previously sampled block outputs."""
        aggregator = NoisyAverageAggregator(output_ranges, epsilon)
        release = aggregator.aggregate(
            sampled.outputs,
            blocks_per_record=sampled.plan.max_blocks_per_record,
            rng=rng,
        )
        return SampleAggregateResult(
            value=release.value,
            epsilon=epsilon,
            num_blocks=sampled.num_blocks,
            block_size=sampled.plan.block_size,
            resampling_factor=sampled.plan.resampling_factor,
            noise_scales=release.noise_scales,
            output_ranges=tuple(aggregator.ranges),
            failed_blocks=sampled.failed_blocks,
            block_outputs=sampled.outputs,
        )

    # ------------------------------------------------------------------
    # One-shot convenience
    # ------------------------------------------------------------------
    def run(
        self,
        values: np.ndarray,
        program: AnalystProgram,
        epsilon: float,
        output_ranges: Sequence[OutputRange] | OutputRange,
        block_size: int | None = None,
        resampling_factor: int = 1,
        rng: RandomSource = None,
        plan: BlockPlan | None = None,
        plan_cache: BlockPlanCache | None = None,
        cache_token: tuple[str, int] | None = None,
    ) -> SampleAggregateResult:
        """Algorithm 1 end-to-end for callers with a known output range."""
        generator = as_generator(rng)
        aggregator = NoisyAverageAggregator(output_ranges, epsilon)
        fallback = np.array([r.midpoint for r in aggregator.ranges])
        sampled = self.sample(
            values,
            program,
            aggregator.output_dimension,
            fallback,
            block_size=block_size,
            resampling_factor=resampling_factor,
            rng=generator,
            plan=plan,
            plan_cache=plan_cache,
            cache_token=cache_token,
            output_ranges=aggregator.ranges,
        )
        return self.aggregate(sampled, epsilon, output_ranges, rng=generator)

    @staticmethod
    def _as_matrix(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values.reshape(-1, 1)
        if values.ndim != 2:
            raise ValueError(f"dataset must be 1-D or 2-D, got shape {values.shape}")
        return values
