"""GUPT's core: the sample-and-aggregate runtime and its optimizers.

* :mod:`repro.core.blocks` — block partitioning and gamma-resampling.
* :mod:`repro.core.aggregation` — clamp, average, add Laplace noise.
* :mod:`repro.core.range_estimation` — GUPT-tight / -loose / -helper.
* :mod:`repro.core.sample_aggregate` — Algorithm 1 with GUPT's extensions.
* :mod:`repro.core.aging` — the aging-of-sensitivity model (§3.3).
* :mod:`repro.core.block_size` — optimal block size via aged data (§4.3).
* :mod:`repro.core.budget_estimation` — accuracy goal -> epsilon (§5.1).
* :mod:`repro.core.budget_distribution` — epsilon across queries (§5.2).
* :mod:`repro.core.plan_cache` — memoized block plans (never block rows).
* :mod:`repro.core.gupt` — the :class:`GuptRuntime` facade.

The names below resolve lazily (see :mod:`repro._lazy`): importing one
submodule, as a shard node imports :mod:`repro.core.blocks`, loads that
submodule and its own imports only, never the engine.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.aggregation": ("NoisyAverageAggregator", "OutputRange"),
    "repro.core.aging": ("AgedData", "split_by_age"),
    "repro.core.block_size": ("BlockSizeChoice", "BlockSizeSearch"),
    "repro.core.blocks": ("BlockPlan", "blocks_per_round"),
    "repro.core.budget_distribution": ("BudgetDistributor", "QuerySpec"),
    "repro.core.budget_estimation": ("AccuracyGoal", "estimate_epsilon"),
    "repro.core.gupt": ("GuptRuntime",),
    "repro.core.plan_cache": ("BlockPlanCache", "PlanKey"),
    "repro.core.range_estimation": (
        "HelperRange",
        "LooseOutputRange",
        "RangeStrategy",
        "TightRange",
    ),
    "repro.core.result": ("GuptResult",),
    "repro.core.sample_aggregate": ("SampleAggregateEngine", "SampleAggregateResult"),
    "repro.core.session": ("GuptSession", "PlannedQuery"),
    "repro.core.user_level": ("grouped_plan",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
