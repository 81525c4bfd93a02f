"""Ordinary least squares as a black-box analyst program.

The paper's utility theorem covers "estimators for regression problems"
(§3.2); OLS is the canonical approximately-normal one, so it doubles as
a test vehicle for the utility guarantees.

:meth:`LinearRegression.run_batch` forms every block's Gram matrix and
right-hand side with one stacked ``matmul`` and solves them with one
stacked ``solve``: numpy hands each block's matrices to the same BLAS
(``syrk``, ``gemv``) and LAPACK (``gesv``) calls the per-block fit
makes, so the outputs are the per-block ones bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.estimators.kmeans import STACK_ELEMENTS


@dataclass(frozen=True)
class LinearRegression:
    """Ridge-stabilized OLS; callable on a block, returns [coef..., bias].

    The block layout matches :class:`~repro.estimators.logistic_regression.
    LogisticRegression`: features with the target in the last column.
    """

    num_features: int
    ridge: float = 1e-6

    def __post_init__(self) -> None:
        if self.num_features < 1:
            raise ValueError("num_features must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be non-negative")

    @property
    def output_dimension(self) -> int:
        return self.num_features + 1

    def fit(self, features: np.ndarray, targets: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float).ravel()
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ValueError(f"expected (n, {self.num_features}) features")
        design = np.column_stack([features, np.ones(features.shape[0])])
        gram = design.T @ design + self.ridge * np.eye(design.shape[1])
        return np.linalg.solve(gram, design.T @ targets)

    def predict(self, weights: np.ndarray, features: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights, dtype=float).ravel()
        features = np.asarray(features, dtype=float)
        return features @ weights[:-1] + weights[-1]

    def __call__(self, block: np.ndarray) -> np.ndarray:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[1] != self.num_features + 1:
            raise ValueError(
                f"expected a block of (n, {self.num_features + 1}) with the "
                "target in the last column"
            )
        return self.fit(block[:, :-1], block[:, -1])

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        """``__call__`` on every block of the ``(l, n, d + 1)`` stack.

        A block whose system is singular (``__call__`` raises) gets a
        row of NaN.
        """
        weights = np.empty((len(stacked), self.output_dimension))
        for rows, design, targets in design_chunks(stacked, self.num_features):
            transposed = design.transpose(0, 2, 1)
            gram = np.matmul(transposed, design) + self.ridge * np.eye(design.shape[2])
            rhs = np.matmul(transposed, targets[:, :, None])[:, :, 0]
            weights[rows] = solve_each(gram, rhs)[0]
        return weights


def design_chunks(stacked: np.ndarray, num_features: int):
    """The ``(l, n, d + 1)`` block stack of a regression, in chunks.

    Yields each chunk's rows of the stack, its design matrices (the
    features then a column of ones, ``(b, n, d + 1)``, as the per-block
    fits build them) and its last columns ``(b, n)``.  A chunk holds at
    most ``STACK_ELEMENTS`` stacked values, which bounds the working
    memory for any block count.
    """
    stacked = np.asarray(stacked, dtype=float)
    if stacked.ndim != 3 or stacked.shape[2] != num_features + 1:
        raise ValueError(
            f"expected a stack of (l, n, {num_features + 1}) blocks, "
            f"got {stacked.shape}"
        )
    values_per_block = stacked.shape[1] * stacked.shape[2]
    chunk = max(1, STACK_ELEMENTS // max(1, values_per_block))
    for first in range(0, stacked.shape[0], chunk):
        blocks = stacked[first:first + chunk]
        ones = np.ones(blocks.shape[:2] + (1,))
        design = np.concatenate([blocks[:, :, :-1], ones], axis=2)
        last = np.ascontiguousarray(blocks[:, :, -1])
        yield slice(first, first + len(blocks)), design, last


def solve_each(matrices: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.solve`` of each ``(D, D)`` system with its ``(D,)``
    right-hand side, and the mask of systems that were not singular.

    One stacked call solves them all; when it raises, each system is
    solved on its own, so a singular one fails only itself (its
    solution row is NaN).
    """
    try:
        solutions = np.linalg.solve(matrices, vectors[:, :, None])[:, :, 0]
        return solutions, np.ones(len(vectors), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    solutions = np.full(vectors.shape, np.nan)
    solved = np.zeros(len(vectors), dtype=bool)
    for index, (matrix, vector) in enumerate(zip(matrices, vectors)):
        try:
            solutions[index] = np.linalg.solve(matrix, vector)
        except np.linalg.LinAlgError:
            continue
        solved[index] = True
    return solutions, solved
