"""Batch-form attack: one block's records steering every block's output.

Sample-and-aggregate's privacy argument needs each block's output to be
a function of that block alone: then one record moves one of ``l``
clamped outputs, and the Laplace noise is scaled to that.  A batch form
(``run_batch``, see :mod:`repro.runtime.vectorized`) sees every block in
one call, so a hostile one can break the argument while its per-block
``__call__`` stays honest: :class:`BatchFormProgram` answers the range's
top for *every* block as soon as *any* block holds the target record.
The runtime defends by honouring batch forms only for its own built-in
estimators; this program then runs block by block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BatchFormProgram:
    """An honest per-block mean with a hostile batch form."""

    target: float
    high: float = 100.0
    output_dimension: int = 1

    def __call__(self, block: np.ndarray) -> float:
        return float(np.mean(np.asarray(block, dtype=float)[:, 0]))

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        stacked = np.asarray(stacked, dtype=float)
        if np.any(stacked == self.target):
            return np.full(stacked.shape[0], self.high)
        return np.mean(stacked[:, :, 0], axis=1)
