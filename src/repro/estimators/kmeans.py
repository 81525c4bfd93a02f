"""Lloyd's k-means as a black-box analyst program.

The paper's Figures 4-6 run "a standard k-means implementation from the
scipy python package" under GUPT.  This module provides an equivalent
self-contained Lloyd's-algorithm implementation (deterministic given its
seed) whose program output is the flattened matrix of cluster centers,
sorted by first coordinate so that different blocks emit the centers in
a canonical order (§8, "Ordering of multiple outputs").

One kernel, bit for bit
-----------------------
Every Lloyd round, every restart's intra-cluster variance and
:func:`intra_cluster_variance` run through one column-major kernel.  Its
floating-point operations are those of the textbook row-major form
(``((data[:, None] - centers[None]) ** 2).sum(axis=2)``, ``argmin``, and
``data[assignment == c].mean(axis=0)`` per cluster), in the same order,
so released centers do not move by a bit:

* *Distances.*  The block is transposed once to ``(d, n)`` and the
  squared distance to a stack of centers ``(R, k, d)`` is built as
  ``(R, k, n)``, one column at a time.  The columns are added in the
  order ``add.reduce`` adds a contiguous axis (:func:`_reduce_in_order`):
  left to right below 8 terms, 8 interleaved lanes joined by a fixed
  tree up to 128, halved at a multiple of 8 above.  Every term is a
  square, never ``-0.0``, so the ``0.0`` that numpy starts from is exact.
* *Assignment.*  ``argmin`` over the cluster axis keeps the
  first-minimum rule and returns the first NaN, as it does row-major.
* *Center update.*  For ``d >= 2``, ``mean(axis=0)`` adds member rows
  into each column in row order, starting from the ``+0.0`` identity;
  ``np.bincount`` with ``weights=`` does exactly that, so an all
  ``-0.0`` member column yields ``+0.0`` on both sides.  For ``d == 1``
  numpy reduces the single contiguous column *pairwise*, so the kernel
  sorts each cluster's members together (stably, keeping row order) and
  sums them with ``np.add.reduceat`` behind a ``+0.0`` pad; ``reduceat``
  adds the pairwise sum of the rest of a segment to its first element,
  which makes each cluster's sum ``0.0 + pairwise(members)``, numpy's
  own.  An empty cluster keeps its center.
* *Restarts as a stack.*  Restarts are independent, so running them as
  one ``(R, k, n)`` stack changes no element's arithmetic.  A restart
  whose centers moved less than ``tol`` leaves the stack; the others
  keep iterating.  Each restart's variance comes from the same distance
  kernel (``min`` over clusters, ``mean`` over rows, which numpy sums
  pairwise per row as it does for a single row), and the first restart
  with a strictly lower variance wins.

``tests/test_kmeans.py`` keeps the row-major implementation as the
reference and checks bit identity over dimensions on both sides of 8,
ties, empty clusters, signed zeros and infinities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Restarts run together in chunks of R restarts with R * k * n at most
# this many elements (1 MiB of float64 per (R, k, n) array).  A round
# keeps a few such arrays live (up to ~5 when d >= 8), so the bound caps
# a fit's working memory for any restart count while still stacking
# every restart of a GUPT block of a few hundred rows.
STACK_ELEMENTS = 1 << 17

# numpy's pairwise summation: 8 unrolled lanes, blocks of up to 128.
_LANES = 8
_PAIRWISE_BLOCK = 128


def sort_centers(flat: np.ndarray, num_clusters: int, num_features: int) -> np.ndarray:
    """Sort flattened centers by their first coordinate (canonical form)."""
    centers = np.asarray(flat, dtype=float).reshape(num_clusters, num_features)
    order = np.argsort(centers[:, 0], kind="stable")
    return centers[order].ravel()


def _reduce_in_order(term, start: int, count: int):
    """``term(start) + ... + term(start + count - 1)`` in the order of
    numpy's pairwise ``add.reduce`` over a contiguous axis."""
    if count < _LANES:
        total = term(start)
        for index in range(start + 1, start + count):
            total += term(index)
        return total
    if count <= _PAIRWISE_BLOCK:
        whole = start + count - count % _LANES

        def lane(offset: int):
            total = term(start + offset)
            for index in range(start + offset + _LANES, whole, _LANES):
                total += term(index)
            return total

        total = ((lane(0) + lane(1)) + (lane(2) + lane(3))) + (
            (lane(4) + lane(5)) + (lane(6) + lane(7))
        )
        for index in range(whole, start + count):
            total += term(index)
        return total
    half = count // 2
    half -= half % _LANES
    return _reduce_in_order(term, start, half) + _reduce_in_order(
        term, start + half, count - half
    )


def _squared_distances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``(R, k, n)`` squared distances from the ``(d, n)`` block columns
    to each restart's ``(k, d)`` centers."""

    def term(j: int) -> np.ndarray:
        return (columns[j] - centers[:, :, j, None]) ** 2

    return _reduce_in_order(term, 0, columns.shape[0])


def _variances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each restart's intra-cluster variance, ``(R,)``."""
    return _squared_distances(columns, centers).min(axis=1).mean(axis=1)


def _cluster_sums(
    values: np.ndarray, labels: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Member counts ``(size,)`` and per-column member sums ``(size, d)``
    of the ``(d, N)`` values grouped by label, added in the order
    ``members.mean(axis=0)`` adds them."""
    counts = np.bincount(labels, minlength=size)
    if values.shape[0] > 1:
        sums = np.stack(
            [np.bincount(labels, weights=column, minlength=size) for column in values],
            axis=1,
        )
        return counts, sums
    # One column: numpy sums it pairwise.  Each sorted segment gets a
    # leading 0.0 so reduceat computes 0.0 + pairwise(members).
    starts = np.cumsum(counts) - counts
    members = values[0][np.argsort(labels, kind="stable")]
    padded = np.insert(members, starts, 0.0)
    sums = np.add.reduceat(padded, starts + np.arange(size))
    return counts, sums[:, None]


def intra_cluster_variance(data: np.ndarray, centers: np.ndarray) -> float:
    """The paper's ICV metric: (1/n) * sum of squared distances to the
    nearest center (Figure 4's y-axis, before normalization)."""
    data = np.asarray(data, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim == 1:
        centers = centers.reshape(1, -1)
    if data.ndim != 2 or centers.shape[1] != data.shape[1]:
        raise ValueError(
            f"data of shape {data.shape} does not match centers of shape {centers.shape}"
        )
    return float(_variances(np.ascontiguousarray(data.T), centers[None])[0])


@dataclass(frozen=True)
class KMeans:
    """Lloyd's algorithm; callable on a block, returns sorted flat centers.

    Parameters
    ----------
    num_clusters:
        k.
    iterations:
        Lloyd iteration *limit*.  Figures 5 and 6 sweep this: a
        non-private or GUPT run is insensitive to overshooting it, while
        PINQ must split its budget across iterations.
    num_features:
        Data dimensionality (needed to declare the output size).
    seed:
        Seed for the center initialization, fixed so that every block
        starts from the same initial centers (blocks must estimate the
        *same* statistic for averaging to make sense).
    tol:
        Early-stopping threshold on the centers' movement, like the
        scipy implementation the paper ran: iteration stops when centers
        move less than ``tol``.  Set to 0 to force exactly ``iterations``
        rounds.
    restarts:
        Number of independent runs (differently seeded inits), keeping
        the centers with the lowest intra-cluster variance.  This is
        scipy's ``kmeans(obs, k, iter=N)`` semantics — its ``iter`` is a
        restart count — which is what the paper's Figure 6 sweeps.  Each
        restart runs to convergence; small blocks converge in far fewer
        Lloyd rounds than the full dataset, which is why GUPT's
        completion time grows slower than the non-private run's.
    """

    num_clusters: int
    num_features: int
    iterations: int = 20
    seed: int = 0
    tol: float = 1e-6
    restarts: int = 1

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")

    @property
    def output_dimension(self) -> int:
        return self.num_clusters * self.num_features

    def initial_centers(self, data: np.ndarray, seed: int | None = None) -> np.ndarray:
        """Seeded initial centers: random rows of the block."""
        generator = np.random.default_rng(self.seed if seed is None else seed)
        indices = generator.choice(
            data.shape[0], size=min(self.num_clusters, data.shape[0]), replace=False
        )
        centers = data[indices]
        if centers.shape[0] < self.num_clusters:
            # Tiny block: replicate rows so k centers always exist.
            extra = self.num_clusters - centers.shape[0]
            centers = np.vstack([centers, centers[:extra % centers.shape[0] + 1][:extra]])
            while centers.shape[0] < self.num_clusters:
                centers = np.vstack([centers, centers[: self.num_clusters - centers.shape[0]]])
        return centers.astype(float)

    def fit(self, data: np.ndarray) -> np.ndarray:
        """Run Lloyd's (with restarts); returns (k, d) centers, unsorted."""
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {data.shape[1]}"
            )
        starts = np.stack([
            self.initial_centers(data, seed=self.seed + restart)
            for restart in range(self.restarts)
        ])
        columns = np.ascontiguousarray(data.T)
        chunk = max(1, STACK_ELEMENTS // (self.num_clusters * data.shape[0]))
        best_centers = None
        best_icv = np.inf
        for first in range(0, self.restarts, chunk):
            centers = self._lloyd(columns, starts[first:first + chunk])
            for candidate, icv in zip(centers, _variances(columns, centers)):
                if icv < best_icv:
                    best_icv = icv
                    best_centers = candidate
        if best_centers is None:
            raise ValueError(
                "no restart reached a finite intra-cluster variance; "
                "the block holds non-finite or overflowing values"
            )
        return best_centers

    def _lloyd(self, columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Lloyd rounds on a ``(R, k, d)`` stack of centers, in place."""
        k = self.num_clusters
        tiled = np.tile(columns, centers.shape[0])
        active = np.arange(centers.shape[0])
        for _ in range(self.iterations):
            previous = centers[active]
            assignment = _squared_distances(columns, previous).argmin(axis=1)
            # Label each row by (position in the stack, cluster).  Every
            # restart clusters the same rows, so the first active.size
            # copies of the block serve whichever restarts are active.
            labels = (assignment + k * np.arange(active.size)[:, None]).ravel()
            counts, sums = _cluster_sums(
                tiled[:, :labels.size], labels, active.size * k
            )
            updated = previous.reshape(active.size * k, -1).copy()
            occupied = counts > 0
            # An empty cluster keeps its previous center: determinism
            # matters more here than re-seeding heuristics.
            updated[occupied] = sums[occupied] / counts[occupied, None]
            updated = updated.reshape(previous.shape)
            centers[active] = updated
            if self.tol > 0:
                moved = np.abs(updated - previous).max(axis=(1, 2))
                active = active[~(moved < self.tol)]
                if active.size == 0:
                    break
        return centers

    def __call__(self, block: np.ndarray) -> np.ndarray:
        centers = self.fit(block)
        return sort_centers(centers.ravel(), self.num_clusters, self.num_features)
