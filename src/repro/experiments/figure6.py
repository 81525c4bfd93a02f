"""Figure 6: completion time vs k-means iteration limit.

The non-private run executes Lloyd's algorithm on the full dataset, so
raising the iteration limit keeps costing time until the full-data run
converges.  GUPT executes it on n**0.4 small blocks, each of which
converges in a handful of iterations, so its completion time flattens
out much earlier — the private curve *grows slower* than the non-private
one, exactly the paper's observation.  GUPT-helper additionally pays an
O(n log n) private percentile estimation over the inputs; GUPT-loose
pays the (cheaper) percentile estimation over the ~n**0.4 block outputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.accounting.manager import DatasetManager
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import HelperRange, LooseOutputRange
from repro.datasets.synthetic import life_sciences
from repro.datasets.table import DataTable
from repro.estimators.kmeans import KMeans
from repro.experiments.config import Figure6Config
from repro.experiments.reporting import format_table


@dataclass(frozen=True)
class Figure6Result:
    """Seconds per (series, iteration limit)."""

    iteration_counts: tuple[int, ...]
    series: dict[str, tuple[float, ...]]

    def rows(self) -> list[dict]:
        out = []
        for label, values in self.series.items():
            for iterations, seconds in zip(self.iteration_counts, values):
                out.append({"series": label, "iterations": iterations, "seconds": seconds})
        return out

    def format_table(self) -> str:
        headers = ["series"] + [f"iters={i}" for i in self.iteration_counts]
        rows = [[label, *values] for label, values in self.series.items()]
        return format_table(
            "Figure 6: completion time (seconds) vs k-means iteration limit",
            headers,
            rows,
        )


def run(config: Figure6Config | None = None) -> Figure6Result:
    config = config or Figure6Config()
    dataset = life_sciences(
        num_records=config.num_records,
        num_features=config.num_features,
        num_clusters=config.num_clusters,
        rng=config.seed,
    )
    data = dataset.features.values
    table = dataset.features

    center_loose = [
        (2.0 * float(lo) if lo < 0 else float(lo) / 2.0,
         2.0 * float(hi) if hi > 0 else float(hi) / 2.0)
        for lo, hi in zip(data.min(axis=0), data.max(axis=0))
    ] * config.num_clusters

    def translate(input_ranges: list[tuple[float, float]]):
        # Centers are averages of in-range points, so the (privately
        # estimated) input ranges translate directly to center ranges.
        return list(input_ranges) * config.num_clusters

    timings: dict[str, list[float]] = {
        "non-private": [],
        "GUPT-helper": [],
        "GUPT-loose": [],
    }
    for iterations in config.iteration_counts:
        # The paper's x-axis is scipy's ``iter`` parameter — a *restart*
        # count, each restart running Lloyd's to convergence.  The
        # non-private run pays full-data convergence per restart; GUPT's
        # blocks each converge in a handful of rounds, so its slope is
        # shallower.
        program = KMeans(
            num_clusters=config.num_clusters,
            num_features=config.num_features,
            iterations=300,
            restarts=iterations,
            tol=1e-7,
        )

        started = time.perf_counter()
        program.fit(data)
        timings["non-private"].append(time.perf_counter() - started)

        for label, strategy in (
            ("GUPT-helper", HelperRange(translate)),
            ("GUPT-loose", LooseOutputRange(center_loose)),
        ):
            manager = DatasetManager()
            manager.register("lifesci", table, total_budget=100.0)
            # The paper spread block computations over two 8-core Xeons;
            # here they run serially, so the comparison rests on
            # per-block convergence (small blocks converge in fewer
            # Lloyd rounds).
            runtime = GuptRuntime(manager, rng=config.seed)
            started = time.perf_counter()
            runtime.run(
                "lifesci",
                program,
                strategy,
                epsilon=config.epsilon,
            )
            timings[label].append(time.perf_counter() - started)

    return Figure6Result(
        iteration_counts=config.iteration_counts,
        series={k: tuple(v) for k, v in timings.items()},
    )


def paper_config() -> Figure6Config:
    return Figure6Config.paper()
