"""The vectorized block-execution fast path.

Sample-and-aggregate normally pays one chamber dispatch per block: for
the trivially vectorizable programs of the paper's Table 1 workloads
(mean, sum, count, variance), and for regression and k-means over many
small blocks, that dispatch cost — pickle round-trips, per-block
bookkeeping, ``l`` separate numpy passes — dwarfs the arithmetic.  A
program may therefore have a *batch form*:

* ``program(block)`` — the black-box per-block contract, unchanged;
* ``program.run_batch(stacked)`` — the same computation over all blocks
  at once, taking the ``(l, block_size, d)`` stacked block array and
  returning the full ``(l, p)`` output matrix.

**A platform-only privilege.**  A batch form sees every block in one
call, so it can make one block's output depend on another block's
records — exactly what sample-and-aggregate's privacy argument rules
out.  Nothing can check that an arbitrary ``run_batch`` is the
vectorization of its ``__call__``, so :func:`run_blocks` honours it
only when the program's exact type (no subclass) is one of the
built-in estimators in :data:`repro.estimators.BATCH_PROGRAMS`, and it
calls the method through the type, so an instance attribute cannot
stand in for it.  Every other program runs one chamber call per block,
counted as the ``untrusted_program`` reason of ``vectorized.fallbacks``.
The ``serial`` and ``vectorized`` backends therefore run blocks the
same way.

**Equivalence argument.**  The fast path changes only *who iterates*:
each built-in ``run_batch`` returns the stacked ``__call__`` outputs
bit for bit (the equivalence tests pin this down), the stacked array
rows are exactly the blocks the plan materializes, and every per-block
semantic is preserved downstream: a row that is malformed or
non-finite — a built-in batch form writes NaN where ``__call__`` would
raise — is substituted with the constant in-range fallback
(``succeeded=False``) exactly as a failed chamber execution would be,
and a batch call that raises falls back to the chamber path wholesale.
Noise draws never happen here, so a seeded query releases the same
bits through every backend.

**What the fast path does not do.**  It runs the batch form in-process
without a chamber, so it must not weaken any chamber defense it cannot
reproduce:

* *state attack* — the program instance is still pickle-round-tripped
  once per query so no state survives *across* queries, and the batch
  call only ever receives a *read-only* view of the stacked blocks, so
  the per-block fallback that may follow a failed batch call within
  the same query reads the blocks exactly as gathered.
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
import sys
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


def platform_owned(program) -> bool:
    """Whether :func:`run_blocks` may honour ``program``'s batch form.

    True only when the exact type of ``program`` is one of
    :data:`repro.estimators.BATCH_PROGRAMS`, compared by identity, and
    its instance state is plain numbers, as every built-in estimator's
    is.  Any other state could run analyst code inside the fused call:
    a field holding an object whose comparison methods see the records,
    or an instance attribute that shadows pickling and so swaps the
    fresh instance for another type.  The tuple is read from
    ``sys.modules``: until the estimators package is imported no
    instance of its classes can exist, and the check itself imports
    nothing, so a shard node's start stays lean.
    """
    estimators = sys.modules.get("repro.estimators")
    kind = type(program)
    if estimators is None or not any(
        kind is owned for owned in getattr(estimators, "BATCH_PROGRAMS", ())
    ):
        return False
    return all(
        any(type(value) is plain for plain in (bool, int, float))
        for value in vars(program).values()
    )


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
        # Looked up on the type: an instance attribute never stands in
        # for the method.
        raw = type(instance).run_batch(instance, readonly)
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
) -> tuple[BatchOutputs, str | None]:
    """Run ``program`` on every block; the one block executor.

    ``blocks`` is the ``(l, block_size, d)`` stack, or the list of
    blocks of a ragged (grouped) plan.  The fused ``run_batch`` call is
    taken only for a :func:`platform_owned` program, with no timing
    defense active, over a rectangular stack — this is the only place a
    batch form is ever honoured.  The second value is ``None`` when the
    fused call answered, and otherwise names why every block went
    through ``chamber`` instead (``untrusted_program``,
    ``timing_defense``, ``ragged_blocks`` or ``batch_error``): on the
    calling thread, under the chamber rule — fresh instance, fallback
    substitution, cycle budget.
    """
    if not platform_owned(program):
        reason = "untrusted_program"
    elif timing_active(chamber):
        # Per-block kill-and-pad semantics cannot apply to one fused
        # call; an active cycle budget forces the chamber path so the
        # timing defense is never silently lost.
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
