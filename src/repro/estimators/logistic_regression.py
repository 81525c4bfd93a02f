"""L2-regularized logistic regression as a black-box analyst program.

Stand-in for the MSR OWLQN package the paper runs under GUPT (Figure 3):
a Newton-method trainer for the regularized logistic loss.  The program
contract is the usual GUPT one — a block goes in (features with the
label as the last column), a fixed-length weight vector comes out — and
the private weight average is then evaluated on held-out data.

:meth:`LogisticRegression.run_batch` takes Newton steps for a chunk of
blocks at once.  Every product is numpy's ``matmul`` on each block's
own matrices, which hands each block to the same BLAS routine
(``gemv``/``gemm``) and LAPACK ``gesv`` the per-block fit calls, and the
rest is elementwise; a block leaves the chunk at the step where its own
fit would stop.  So the batch form releases the stacked per-block
outputs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.linreg import design_chunks, solve_each
from repro.mechanisms.rng import RandomSource, as_generator


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clipping keeps exp() finite; beyond +-35 the sigmoid saturates anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.2,
    rng: RandomSource = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle and split into (train_x, train_y, test_x, test_y)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels must have the same length")
    order = as_generator(rng).permutation(features.shape[0])
    cut = int(round(features.shape[0] * (1.0 - test_fraction)))
    train, test = order[:cut], order[cut:]
    return features[train], labels[train], features[test], labels[test]


def classification_accuracy(
    weights: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Fraction of correct predictions of the linear classifier.

    ``weights`` has length ``d + 1``: coefficients then intercept — the
    layout :class:`LogisticRegression` emits.
    """
    weights = np.asarray(weights, dtype=float).ravel()
    features = np.asarray(features, dtype=float)
    coef, intercept = weights[:-1], weights[-1]
    predictions = (features @ coef + intercept) > 0.0
    return float(np.mean(predictions == (np.asarray(labels) > 0.5)))


@dataclass(frozen=True)
class LogisticRegression:
    """Newton-method trainer; callable on a block, returns [coef..., bias].

    Parameters
    ----------
    num_features:
        Data dimensionality d (the block's label is its last column).
    l2:
        Ridge penalty; also keeps the Hessian invertible on tiny blocks.
    iterations:
        Newton steps (the loss is smooth and strongly convex, a handful
        suffices).
    """

    num_features: int
    l2: float = 1.0
    iterations: int = 12

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.l2 <= 0:
            raise ValueError("l2 must be positive (keeps the Hessian invertible)")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    @property
    def output_dimension(self) -> int:
        return self.num_features + 1

    def fit(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Train on explicit (features, labels); returns [coef..., bias]."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float).ravel()
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ValueError(f"expected (n, {self.num_features}) features")
        design = np.column_stack([features, np.ones(features.shape[0])])
        dims = design.shape[1]
        weights = np.zeros(dims)
        # The intercept is not regularized: only the coefficient block of
        # the penalty matrix is non-zero.
        penalty = self.l2 * np.eye(dims)
        penalty[-1, -1] = 0.0
        for _ in range(self.iterations):
            probabilities = _sigmoid(design @ weights)
            gradient = design.T @ (probabilities - labels) + penalty @ weights
            curvature = probabilities * (1.0 - probabilities)
            hessian = (design * curvature[:, None]).T @ design + penalty
            hessian += 1e-9 * np.eye(dims)
            try:
                step = np.linalg.solve(hessian, gradient)
            except np.linalg.LinAlgError:
                break
            weights = weights - step
            if np.max(np.abs(step)) < 1e-10:
                break
        return weights

    def __call__(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.num_features + 1:
            raise ValueError(
                f"expected a block of (n, {self.num_features + 1}) with the "
                "label in the last column"
            )
        return self.fit(block[:, :-1], block[:, -1])

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        """``__call__`` on every block of the ``(l, n, d + 1)`` stack."""
        weights = np.empty((len(stacked), self.output_dimension))
        for rows, design, labels in design_chunks(stacked, self.num_features):
            weights[rows] = self._fit_stack(design, labels)
        return weights

    def _fit_stack(self, design: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """:meth:`fit` on each block's ``(n, d + 1)`` design and ``(n,)``
        labels, stacked."""
        dims = design.shape[2]
        weights = np.zeros((design.shape[0], dims))
        penalty = self.l2 * np.eye(dims)
        penalty[-1, -1] = 0.0
        # Chunk positions of the blocks still stepping; a block that
        # stops is dropped from design and labels.
        active = np.arange(design.shape[0])
        for _ in range(self.iterations):
            current = weights[active][:, :, None]
            probabilities = _sigmoid(np.matmul(design, current)[:, :, 0])
            residuals = (probabilities - labels)[:, :, None]
            gradient = (
                np.matmul(design.transpose(0, 2, 1), residuals)
                + np.matmul(penalty, current)
            )[:, :, 0]
            curvature = probabilities * (1.0 - probabilities)
            scaled = design * curvature[:, :, None]
            hessian = np.matmul(scaled.transpose(0, 2, 1), design) + penalty
            hessian += 1e-9 * np.eye(dims)
            step, solved = solve_each(hessian, gradient)
            weights[active[solved]] = current[solved, :, 0] - step[solved]
            stopped = ~solved | (np.max(np.abs(step), axis=1) < 1e-10)
            if stopped.any():
                active = active[~stopped]
                if active.size == 0:
                    break
                design = design[~stopped]
                labels = labels[~stopped]
        return weights
