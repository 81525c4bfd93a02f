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

* *Distances.*  The blocks are transposed once to ``(d, P, n)`` and the
  squared distance to a stack of centers ``(P, k, d)`` is built as
  ``(P, k, n)``, one column at a time.  The columns are added in the
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
* *Blocks and restarts as one stack.*  Restarts are independent, and
  so are blocks, so running (block, restart) pairs as one ``(P, k, n)``
  stack changes no element's arithmetic: each pair is measured against
  its own block's columns, held as ``(d, P, n)``.  A pair whose centers
  moved less than ``tol`` leaves the stack; the others keep iterating.
  Each pair's variance comes from the same distance kernel (``min``
  over clusters, ``mean`` over rows, which numpy sums pairwise per row
  as it does for a single row), and per block the first restart with a
  strictly lower variance wins.  :meth:`KMeans.fit` is this kernel on a
  one-block stack, and :meth:`KMeans.run_batch` on the whole
  ``(l, n, d)`` block stack; restart start rows depend only on ``n``,
  so they are drawn once per call, not once per block.

``tests/test_kmeans.py`` keeps the row-major implementation as the
reference and checks bit identity over dimensions on both sides of 8,
ties, empty clusters, signed zeros and infinities;
``tests/test_batch_estimators.py`` holds ``run_batch`` to the stacked
per-block calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (Block, restart) pairs run together in chunks of P pairs with P * k * n
# at most this many elements (1 MiB of float64 per (P, k, n) array).  A
# round keeps a few such arrays live (up to ~5 when d >= 8), so the bound
# caps the working memory of a fit or a batch for any restart or block
# count while still stacking every restart of a GUPT block of a few
# hundred rows.
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
    """``(P, k, n)`` squared distances from each pair's ``(k, d)`` centers
    to its block's columns, held as ``(d, P, n)``."""

    def term(j: int) -> np.ndarray:
        return (columns[j][:, None, :] - centers[:, :, j, None]) ** 2

    return _reduce_in_order(term, 0, columns.shape[0])


def _variances(columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each pair's intra-cluster variance, ``(P,)``."""
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
    columns = np.ascontiguousarray(data.T)[:, None, :]
    return float(_variances(columns, centers[None])[0])


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
        rows = self._start_rows(data.shape[0], self.seed if seed is None else seed)
        return data[rows].astype(float)

    def _start_rows(self, num_rows: int, seed: int) -> np.ndarray:
        """The ``k`` block rows one restart starts from; a function of the
        block's length only."""
        generator = np.random.default_rng(seed)
        rows = generator.choice(
            num_rows, size=min(self.num_clusters, num_rows), replace=False
        )
        if rows.size < self.num_clusters:
            # Tiny block: replicate rows so k centers always exist.
            extra = self.num_clusters - rows.size
            rows = np.concatenate([rows, rows[:extra % rows.size + 1][:extra]])
            while rows.size < self.num_clusters:
                rows = np.concatenate([rows, rows[: self.num_clusters - rows.size]])
        return rows

    def fit(self, data: np.ndarray) -> np.ndarray:
        """Run Lloyd's (with restarts); returns (k, d) centers, unsorted."""
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            data = data.reshape(-1, 1)
        if data.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {data.shape[1]}"
            )
        centers, found = self._fit_stack(data[None])
        if not found[0]:
            raise ValueError(
                "no restart reached a finite intra-cluster variance; "
                "the block holds non-finite or overflowing values"
            )
        return centers[0]

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        """``__call__`` on every block of the ``(l, n, d)`` stack: ``(l, k * d)``.

        A block on which ``__call__`` raises (no restart reached a
        finite variance) gets a row of NaN.
        """
        stacked = np.asarray(stacked, dtype=float)
        if stacked.ndim != 3 or stacked.shape[2] != self.num_features:
            raise ValueError(
                f"expected a stack of (l, n, {self.num_features}) blocks, "
                f"got {stacked.shape}"
            )
        centers, found = self._fit_stack(stacked)
        order = np.argsort(centers[:, :, 0], axis=1, kind="stable")
        flat = np.take_along_axis(centers, order[:, :, None], axis=1)
        flat = flat.reshape(stacked.shape[0], self.output_dimension)
        flat[~found] = np.nan
        return flat

    def _fit_stack(self, stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Best centers of each block of the ``(l, n, d)`` stack, ``(l, k, d)``,
        and the mask of blocks where some restart's variance was finite."""
        num_blocks, num_rows, _ = stacked.shape
        rows = np.stack([
            self._start_rows(num_rows, self.seed + restart)
            for restart in range(self.restarts)
        ])
        pairs = num_blocks * self.restarts
        chunk = max(1, STACK_ELEMENTS // (self.num_clusters * num_rows))
        best = np.zeros((num_blocks, self.num_clusters, self.num_features))
        best_icv = np.full(num_blocks, np.inf)
        for first in range(0, pairs, chunk):
            pair = np.arange(first, min(first + chunk, pairs))
            block, restart = np.divmod(pair, self.restarts)
            columns = np.ascontiguousarray(stacked[block].transpose(2, 0, 1))
            centers = self._lloyd(columns, stacked[block[:, None], rows[restart]])
            variances = _variances(columns, centers)
            # Pairs run block by block, restarts in order within a block:
            # the first restart with a strictly lower variance wins.
            for position, index in enumerate(block):
                if variances[position] < best_icv[index]:
                    best_icv[index] = variances[position]
                    best[index] = centers[position]
        return best, best_icv < np.inf

    def _lloyd(self, columns: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Lloyd rounds on a ``(P, k, d)`` stack of centers, in place; pair
        ``p`` clusters the block whose columns are ``columns[:, p]``."""
        k = self.num_clusters
        active = np.arange(centers.shape[0])
        for _ in range(self.iterations):
            previous = centers[active]
            assignment = _squared_distances(columns, previous).argmin(axis=1)
            # Label each row by (position in the stack, cluster): the
            # active pairs' columns, flattened, are the rows.
            labels = (assignment + k * np.arange(active.size)[:, None]).ravel()
            counts, sums = _cluster_sums(
                columns.reshape(columns.shape[0], -1), labels, active.size * k
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
                moving = ~(moved < self.tol)
                if not moving.all():
                    active = active[moving]
                    if active.size == 0:
                        break
                    columns = columns[:, moving]
        return centers

    def __call__(self, block: np.ndarray) -> np.ndarray:
        centers = self.fit(block)
        return sort_centers(centers.ravel(), self.num_clusters, self.num_features)
