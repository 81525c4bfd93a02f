"""The vectorized block-execution fast path.

Sample-and-aggregate normally pays one chamber dispatch per block: for
the trivially vectorizable programs of the paper's Table 1 workloads
(mean, sum, count, variance) that dispatch cost — pickle round-trips,
per-block bookkeeping, ``l`` separate numpy reductions — dwarfs the
arithmetic.  An analyst program may therefore *declare a batch form*:

* ``program(block)`` — the black-box per-block contract, unchanged;
* ``program.run_batch(stacked)`` — the same computation over all blocks
  at once, taking the ``(l, block_size, d)`` stacked block array and
  returning the full ``(l, p)`` output matrix in one numpy call.

**Equivalence argument.**  The fast path changes only *who iterates*:
``run_batch`` must be the vectorization of ``__call__`` (numpy's
reductions over one axis of a stacked array visit each block's values
in the same order as the per-block call, so for the built-in estimators
the outputs are bit-identical), the stacked array rows are exactly the
blocks the plan materializes, and every per-block semantic is preserved
downstream: a row that is malformed or non-finite is substituted with
the constant in-range fallback (``succeeded=False``) exactly as a
failed chamber execution would be, and a batch call that raises falls
back to the chamber path wholesale.  Noise draws never happen here, so
a seeded query releases the same bits through ``vectorized`` as through
``serial``/``remote``.

**What the fast path does not do.**  It runs the declared batch form
in-process without a chamber, so it must not weaken any chamber
defense it cannot reproduce:

* *state attack* — ``run_batch`` sees all blocks in one call anyway, so
  per-block instance freshness is vacuous; the program instance is
  still pickle-round-tripped once per query so no state survives
  *across* queries, and the batch call only ever receives a *read-only*
  view of the stacked blocks.  No stack outlives its query (the plan
  cache keeps plans, never rows), so the view guards the per-block
  fallback that may follow a failed batch call within the same query.
* *timing attack* — per-block kill-and-pad semantics cannot be applied
  to a single fused call, so whenever a cycle budget is configured the
  executor transparently degrades to the chamber path (counted in
  ``vectorized.fallbacks``).

**One block executor.**  :func:`run_blocks` is the only place a block
array becomes an ``(l, p)`` :class:`BatchOutputs`: the coordinator's
:class:`~repro.runtime.computation_manager.ComputationManager` and
every shard node's kernel (:func:`repro.runtime.shard.execute_shard_rows`)
both call it, so the choice between the batch form and per-block
chamber calls — and the rules of each — is made in one function.
"""

from __future__ import annotations

import copy
import pickle
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.runtime.sandbox import AnalystProgram, ExecutionChamber, timing_active


@dataclass(frozen=True)
class BatchOutputs:
    """All block outcomes in matrix form.

    What :func:`run_blocks` returns, whichever way the blocks ran, and
    what the shard coordinator combines node partials into.  Keeping
    outcomes as one ``(l, p)`` matrix plus a success mask (instead of
    ``l`` execution records) is what lets a warm-cache vectorized query
    stay O(1) in Python-object work.
    """

    outputs: np.ndarray  # (l, p); malformed rows already substituted
    succeeded: np.ndarray  # (l,) bool mask
    elapsed: float  # wall-clock of the whole batch
    killed: int = 0  # blocks the chamber's cycle budget killed
    # One wall-clock per chamber call, padding included; ``None`` when
    # one fused call, or the shard nodes, produced the rows.
    latencies: list[float] | None = None

    @property
    def num_blocks(self) -> int:
        return int(self.outputs.shape[0])

    @property
    def per_block_elapsed(self) -> float:
        """The batch wall-clock spread evenly across blocks.

        Per-block latency telemetry stays comparable across backends
        and stays just as data-independent as the fused call's total.
        """
        return self.elapsed / max(1, self.num_blocks)

    @property
    def block_latencies(self) -> list[float]:
        """One ``blocks.latency_seconds`` observation per block."""
        if self.latencies is not None:
            return self.latencies
        return [self.per_block_elapsed] * self.num_blocks


@runtime_checkable
class VectorizedProgram(Protocol):
    """An analyst program that also declares a batch form."""

    def __call__(self, block: np.ndarray) -> "float | np.ndarray":
        """The per-block contract every backend understands."""
        ...  # pragma: no cover - protocol declaration

    def run_batch(self, stacked: np.ndarray) -> np.ndarray:
        """All block outputs at once: ``(l, block_size, d) -> (l, p)``."""
        ...  # pragma: no cover - protocol declaration


def supports_batch(program) -> bool:
    """Whether ``program`` declares a usable batch form.

    A lookup that raises (a hostile ``run_batch`` property, say) means
    no: the program is then run per block, under the chamber rule.
    """
    try:
        return callable(getattr(program, "run_batch", None))
    except Exception:  # noqa: BLE001 - any failure is "no batch form"
        return False


def _fresh_instance(program):
    """One fresh program instance per query (state-carryover defense).

    ``None`` when nothing can copy it: the analyst's own object never runs.
    """
    try:
        return pickle.loads(pickle.dumps(program))
    except Exception:
        try:
            return copy.deepcopy(program)
        except Exception:
            return None


def run_batch_blocks(
    program,
    stacked: np.ndarray,
    output_dimension: int,
    fallback: np.ndarray,
) -> BatchOutputs | None:
    """Execute the batch form; one well-formed outcome per block.

    Returns ``None`` when the batch call cannot be used at all (the
    program cannot be copied to a fresh instance, the call raised, or
    it returned something that is not an ``(l, p)`` matrix) —
    the caller then falls back to per-block chamber execution, so a
    broken batch form degrades to the slow path rather than refusing
    the query.  Individual malformed *rows* do not abort the batch:
    they get the constant fallback substitution, mirroring per-block
    chamber failures.
    """
    fallback = np.asarray(fallback, dtype=float).ravel()
    num_blocks = int(stacked.shape[0])
    instance = _fresh_instance(program)
    if instance is None:
        return None
    # The program sees a read-only view: a batch form that mutates its
    # input raises here and degrades to the per-block path, which must
    # then read the blocks exactly as gathered.
    readonly = stacked.view()
    readonly.flags.writeable = False
    started = time.perf_counter()
    try:
        raw = instance.run_batch(readonly)
    except Exception:
        return None
    elapsed = time.perf_counter() - started

    try:
        matrix = np.asarray(raw, dtype=float)
    except Exception:  # noqa: BLE001 - unusable batch output
        return None
    if matrix.ndim == 1 and output_dimension == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.shape != (num_blocks, output_dimension):
        return None

    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        matrix = np.where(finite[:, None], matrix, fallback)
    elif matrix.base is not None:
        # Detach from whatever the program returned a view into (e.g.
        # the stacked array) before it escapes to aggregation.
        matrix = matrix.copy()
    return BatchOutputs(outputs=matrix, succeeded=finite, elapsed=elapsed)


def run_blocks(
    chamber: ExecutionChamber,
    program: AnalystProgram,
    blocks: np.ndarray | Sequence[np.ndarray],
    output_dimension: int,
    fallback: np.ndarray,
    batch: bool = False,
) -> tuple[BatchOutputs, str | None]:
    """Run ``program`` on every block; the one block executor.

    ``blocks`` is the ``(l, block_size, d)`` stack, or the list of
    blocks of a ragged (grouped) plan.  With ``batch`` the fused
    ``run_batch`` call is tried first — this is the only place a batch
    form is ever honoured — and the second value names why it was not
    used (``no_batch_form``, ``timing_defense``, ``ragged_blocks`` or
    ``batch_error``; ``None`` when it was, or was not asked for).
    Otherwise every block goes through ``chamber`` on the calling
    thread, under the chamber rule: fresh instance, fallback
    substitution, cycle budget.
    """
    reason = None
    if batch:
        if not supports_batch(program):
            reason = "no_batch_form"
        elif timing_active(chamber):
            # Per-block kill-and-pad semantics cannot apply to one fused
            # call; an active cycle budget forces the chamber path so
            # the timing defense is never silently lost.
            reason = "timing_defense"
        elif not isinstance(blocks, np.ndarray):
            reason = "ragged_blocks"
        else:
            fused = run_batch_blocks(program, blocks, output_dimension, fallback)
            if fused is not None:
                return fused, None
            reason = "batch_error"

    # Chambers run programs that may legitimately mutate their block in
    # place; a caller's read-only stack hands each one a copy, so
    # mutation degrades to a copy, never a write error or corruption.
    copy_rows = isinstance(blocks, np.ndarray) and not blocks.flags.writeable
    outputs = np.empty((len(blocks), output_dimension), dtype=float)
    succeeded = np.zeros(len(blocks), dtype=bool)
    latencies: list[float] = []
    killed = 0
    started = time.perf_counter()
    for i, block in enumerate(blocks):
        if copy_rows:
            block = np.array(block)
        call_started = time.perf_counter()
        execution = chamber.run_block(program, block, output_dimension, fallback)
        latencies.append(time.perf_counter() - call_started)
        outputs[i] = execution.output
        succeeded[i] = execution.succeeded
        killed += execution.killed
    elapsed = time.perf_counter() - started
    return BatchOutputs(outputs, succeeded, elapsed, killed, latencies), reason
