"""Reproduction of "GUPT: Privacy Preserving Data Analysis Made Easy".

GUPT (Mohan, Thakurta, Shi, Song, Culler — SIGMOD 2012) is a black-box
differentially private data-analysis platform built on the
sample-and-aggregate framework.  Quickstart::

    import numpy as np
    from repro import (
        AccuracyGoal, DatasetManager, GuptRuntime, TightRange, census_adult,
    )

    manager = DatasetManager()
    manager.register("census", census_adult(), total_budget=10.0,
                     aged_fraction=0.1, rng=0)
    runtime = GuptRuntime(manager, rng=0)
    result = runtime.run(
        "census",
        program=lambda block: float(np.mean(block)),
        range_strategy=TightRange((0.0, 150.0)),
        epsilon=1.0,
    )
    print(result.scalar())          # private average age
    print(manager.remaining_budget("census"))

The names above resolve on first access (see :mod:`repro._lazy`).  A
bare ``import repro``, which every ``repro.*`` import runs first, loads
nothing else, so a shard node that imports the node tier never loads
the accounting tier, the datasets or the engine.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.accounting.budget": ("PrivacyBudget",),
    "repro.accounting.ledger": ("PrivacyLedger",),
    "repro.accounting.manager": ("DatasetManager",),
    "repro.core.aggregation": ("OutputRange",),
    "repro.core.aging": ("AgedData", "split_by_age"),
    "repro.core.block_size": ("BlockSizeSearch",),
    "repro.core.blocks": ("BlockPlan",),
    "repro.core.budget_distribution": ("BudgetDistributor", "QuerySpec"),
    "repro.core.budget_estimation": ("AccuracyGoal", "estimate_epsilon"),
    "repro.core.gupt": ("GuptRuntime",),
    "repro.core.range_estimation": ("HelperRange", "LooseOutputRange", "TightRange"),
    "repro.core.result": ("GuptResult",),
    "repro.core.sample_aggregate": ("SampleAggregateEngine",),
    "repro.core.session": ("GuptSession",),
    "repro.core.user_level": ("grouped_plan",),
    "repro.datasets.synthetic": ("census_adult", "internet_ads", "life_sciences"),
    "repro.datasets.table": ("DataTable",),
    "repro.exceptions": (
        "AccuracyGoalInfeasible",
        "ComputationError",
        "GuptError",
        "InvalidPrivacyParameter",
        "InvalidRange",
        "PrivacyBudgetExhausted",
        "SandboxViolation",
    ),
    "repro.observability.metrics": (
        "MetricsRegistry",
        "get_registry",
        "set_registry",
        "use_registry",
    ),
    "repro.runtime.computation_manager": ("ComputationManager",),
    "repro.runtime.policy": ("MACPolicy",),
    "repro.runtime.sandbox": ("InProcessChamber", "SubprocessChamber"),
    "repro.runtime.timing": ("TimingDefense",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
