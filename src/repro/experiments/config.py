"""Experiment configurations: quick defaults plus paper-scale variants.

Absolute numbers depend on dataset size and repeat counts; the *shapes*
(who wins, monotonicity, crossovers) hold at both scales.  Quick configs
keep the full test suite in CI time; ``paper()`` configs use the paper's
dataset sizes and sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Figure3Config:
    """Logistic regression accuracy vs privacy budget (GUPT-tight)."""

    num_records: int = 6000
    num_features: int = 10
    epsilons: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    repeats: int = 3
    test_fraction: float = 0.2
    weight_bound: float = 3.0
    seed: int = 3

    @staticmethod
    def paper() -> "Figure3Config":
        return Figure3Config(num_records=26733, repeats=5)


@dataclass(frozen=True)
class Figure4Config:
    """k-means intra-cluster variance vs privacy budget."""

    num_records: int = 6000
    num_features: int = 4
    num_clusters: int = 3
    kmeans_iterations: int = 10
    epsilons: tuple[float, ...] = (0.4, 0.7, 1.0, 2.0, 4.0)
    repeats: int = 3
    seed: int = 4

    @staticmethod
    def paper() -> "Figure4Config":
        return Figure4Config(
            num_records=26733,
            num_features=10,
            num_clusters=4,
            kmeans_iterations=20,
            epsilons=(0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 2.0, 3.0, 4.0),
            repeats=5,
        )


@dataclass(frozen=True)
class Figure5Config:
    """GUPT vs PINQ k-means as the iteration count grows."""

    num_records: int = 3000
    num_features: int = 3
    num_clusters: int = 3
    iteration_counts: tuple[int, ...] = (20, 80, 200)
    pinq_epsilons: tuple[float, ...] = (2.0, 4.0)
    gupt_epsilons: tuple[float, ...] = (1.0, 2.0)
    repeats: int = 2
    seed: int = 5

    @staticmethod
    def paper() -> "Figure5Config":
        return Figure5Config(
            num_records=26733, num_features=10, num_clusters=4, repeats=5
        )


@dataclass(frozen=True)
class Figure6Config:
    """Completion time vs k-means iteration count."""

    num_records: int = 6000
    num_features: int = 4
    num_clusters: int = 3
    iteration_counts: tuple[int, ...] = (20, 80, 100, 200)
    epsilon: float = 1.0
    seed: int = 6

    @staticmethod
    def paper() -> "Figure6Config":
        return Figure6Config(num_records=26733, num_features=10, num_clusters=4)


@dataclass(frozen=True)
class Figure7Config:
    """CDF of result accuracy under three budget policies."""

    num_records: int = 32561
    aged_fraction: float = 0.1
    constant_epsilons: tuple[float, ...] = (1.0, 0.3)
    rho: float = 0.9
    delta: float = 0.1
    block_size: int = 75
    queries: int = 120
    output_range: tuple[float, float] = (0.0, 150.0)
    seed: int = 7

    @staticmethod
    def paper() -> "Figure7Config":
        return Figure7Config(queries=500)


@dataclass(frozen=True)
class Figure8Config:
    """Privacy-budget lifetime under the same three policies."""

    figure7: Figure7Config = field(default_factory=Figure7Config)

    @staticmethod
    def paper() -> "Figure8Config":
        return Figure8Config(figure7=Figure7Config.paper())


@dataclass(frozen=True)
class Figure9Config:
    """Normalized RMSE vs block size for mean and median."""

    num_records: int = 2359
    block_sizes: tuple[int, ...] = (1, 2, 5, 10, 20, 40, 70)
    epsilons: tuple[float, ...] = (2.0, 6.0)
    repeats: int = 30
    seed: int = 9

    @staticmethod
    def paper() -> "Figure9Config":
        return Figure9Config(repeats=100)


@dataclass(frozen=True)
class SandboxOverheadConfig:
    """Chamber overhead on repeated k-means runs (§6.1)."""

    num_records: int = 2000
    num_features: int = 4
    num_clusters: int = 3
    kmeans_iterations: int = 10
    runs: int = 30
    seed: int = 61

    @staticmethod
    def paper() -> "SandboxOverheadConfig":
        return SandboxOverheadConfig(runs=6000)
