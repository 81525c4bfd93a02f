"""Privacy-unaware analyst programs used throughout the evaluation.

Everything here is deliberately written as if privacy did not exist —
that is the point of GUPT: these exact programs run unmodified under the
sample-and-aggregate runtime.  Each program is a callable from a block
(2-D array of records) to a scalar or fixed-length vector, and carries
an ``output_dimension`` attribute so the runtime can size its release.
"""

from repro.estimators.statistics import (
    Count,
    Mean,
    Median,
    Quantile,
    StandardDeviation,
    Variance,
)
from repro.estimators.kmeans import KMeans, intra_cluster_variance, sort_centers
from repro.estimators.logistic_regression import (
    LogisticRegression,
    classification_accuracy,
    train_test_split,
)
from repro.estimators.linreg import LinearRegression
from repro.estimators.multivariate import Covariance, Histogram

#: The platform-owned programs whose ``run_batch`` the block executor
#: (:func:`repro.runtime.vectorized.run_blocks`) honours, matched by
#: exact type: every other program, subclasses of these included, runs
#: one chamber call per block.
BATCH_PROGRAMS = (
    Count,
    Mean,
    Median,
    Quantile,
    StandardDeviation,
    Variance,
    KMeans,
    LinearRegression,
    LogisticRegression,
)

__all__ = [
    "BATCH_PROGRAMS",
    "Count",
    "Covariance",
    "Histogram",
    "KMeans",
    "LinearRegression",
    "LogisticRegression",
    "Mean",
    "Median",
    "Quantile",
    "StandardDeviation",
    "Variance",
    "classification_accuracy",
    "intra_cluster_variance",
    "sort_centers",
    "train_test_split",
]
