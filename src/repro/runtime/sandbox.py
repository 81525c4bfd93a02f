"""Isolated execution chambers for untrusted analyst programs.

A chamber runs one block computation with three guarantees the privacy
argument needs (§6 of the paper):

1. **No state carryover** — the program instance a block sees is fresh,
   so a malicious program cannot accumulate information across blocks
   (state attack defense).
2. **Output-only channel** — the chamber returns exactly one output
   vector; the program gets no handle to the budget, the dataset manager
   or other blocks (budget attack defense).
3. **Fixed observable runtime** — a cycle budget with kill-and-substitute
   semantics (timing attack defense); see :mod:`repro.runtime.timing`.

Two implementations are provided.  :class:`SubprocessChamber` forks a
real OS process per block: writes to interpreter state die with the
child, and a hung child is killed.  :class:`InProcessChamber` enforces
the same semantics in-process (deep-copied program instance, worker
thread with timeout, optional MAC-policy shim) and is what experiments
use, since forking per block would dominate their runtime.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
import threading
import time
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.observability import MetricsRegistry, get_registry
from repro.runtime.policy import MACPolicy
from repro.runtime.timing import TimingDefense

#: An analyst program: any callable from a block (2-D array of records)
#: to a scalar or 1-D output vector.  GUPT never introspects it.
AnalystProgram = Callable[[np.ndarray], "float | np.ndarray"]


@dataclass(frozen=True)
class BlockExecution:
    """Outcome of running one analyst program on one block.

    ``output`` is always a well-formed vector of the declared dimension:
    the program's own output when it succeeded, or the constant fallback
    when it crashed, hung, or returned the wrong shape.  Substituting a
    constant (rather than erroring out) is load-bearing for privacy: an
    error channel keyed on a record's presence would itself be a leak.
    """

    output: np.ndarray
    succeeded: bool
    killed: bool
    elapsed: float


def _coerce_output(raw, output_dimension: int) -> np.ndarray | None:
    """Validate and flatten a program's return value; None if malformed.

    Any failure to convert counts as malformed — including a hostile
    return value whose ``__float__`` raises something exotic.
    """
    try:
        vector = np.asarray(raw, dtype=float).ravel()
    except Exception:  # noqa: BLE001 - malformed output, not a crash
        return None
    if vector.size != output_dimension or not np.all(np.isfinite(vector)):
        return None
    return vector


@runtime_checkable
class ExecutionChamber(Protocol):
    """The interface the sample-and-aggregate engine programs against."""

    def run_block(
        self,
        program: AnalystProgram,
        block: np.ndarray,
        output_dimension: int,
        fallback: np.ndarray,
    ) -> BlockExecution:
        """Run ``program`` on ``block`` and return a well-formed outcome."""
        ...  # pragma: no cover - protocol declaration


def timing_active(chamber: ExecutionChamber) -> bool:
    """Whether ``chamber`` enforces a cycle budget (the §6 timing defense).

    The one test of it: every fast path that cannot reproduce per-block
    kill-and-pad degrades to the chamber path while this holds.
    """
    timing = getattr(chamber, "timing", None)
    return timing is not None and timing.enabled


class InProcessChamber:
    """Fast chamber enforcing isolation semantics inside the process.

    Each block gets a fresh program instance, so instance attributes
    cannot carry state across blocks: the program is pickled once
    (cached by identity) and ``pickle.loads``-ed per block; programs
    pickle cannot handle fall back to ``copy.deepcopy``.  Plain
    functions round-trip to themselves.

    Parameters
    ----------
    timing:
        The cycle-budget policy.  The default (no budget) trusts the
        program to terminate, which is appropriate for benchmarks.
    policy:
        Optional MAC policy; when given, the policy shim is active for
        the duration of each block (network blocked, writes confined).
    metrics:
        Registry receiving the chamber's kill/pad telemetry; ``None``
        uses the process default.
    """

    def __init__(
        self,
        timing: TimingDefense | None = None,
        policy: MACPolicy | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self._timing = timing or TimingDefense(cycle_budget=None)
        self._policy = policy
        self._metrics = metrics
        # (program, serialized bytes or None) — one entry, swapped when a
        # different program arrives.  Holding the program itself (not its
        # id) makes the identity check immune to id reuse, and the tuple
        # swap is atomic so concurrent run_block calls from scheduler
        # workers sharing one manager can never see a mismatched pair.
        self._pickle_cache: tuple[AnalystProgram, bytes | None] | None = None

    @property
    def timing(self) -> TimingDefense:
        """The chamber's cycle-budget policy (read by backend selection)."""
        return self._timing

    def _instantiate(self, program: AnalystProgram) -> AnalystProgram:
        """A fresh per-block instance: cached pickle, deepcopy fallback."""
        cache = self._pickle_cache
        if cache is None or cache[0] is not program:
            try:
                cache = (program, pickle.dumps(program))
            except Exception:
                cache = (program, None)
            self._pickle_cache = cache
        if cache[1] is None:
            return copy.deepcopy(program)
        try:
            return pickle.loads(cache[1])
        except Exception:
            self._pickle_cache = (program, None)
            return copy.deepcopy(program)

    def run_block(
        self,
        program: AnalystProgram,
        block: np.ndarray,
        output_dimension: int,
        fallback: np.ndarray,
    ) -> BlockExecution:
        started = time.perf_counter()
        result = self._call_with_budget(program, block)
        elapsed = time.perf_counter() - started

        killed = result is _TIMED_OUT or self._timing.exceeded(elapsed)
        output = None if killed or result is _FAILED else _coerce_output(result, output_dimension)
        padded = self._timing.pad_to_budget(elapsed)
        _record_chamber_metrics(self._metrics, killed=bool(killed), padded=padded)
        if output is None:
            return BlockExecution(
                output=np.array(fallback, dtype=float),
                succeeded=False,
                killed=bool(killed),
                elapsed=elapsed,
            )
        return BlockExecution(output=output, succeeded=True, killed=False, elapsed=elapsed)

    def _call_with_budget(self, program: AnalystProgram, block: np.ndarray):
        """Call a fresh instance, applying policy shim and cycle budget.

        Instantiating runs inside the guard, so a program that can be
        neither pickled nor deep-copied fails its block instead of
        raising to the caller.
        """
        def invoke():
            instance = self._instantiate(program)
            if self._policy is not None:
                with self._policy.enforced():
                    return instance(block)
            return instance(block)

        if not self._timing.enabled:
            try:
                return invoke()
            except Exception:
                return _FAILED

        holder: list = [_TIMED_OUT]

        def worker() -> None:
            try:
                holder[0] = invoke()
            except Exception:
                holder[0] = _FAILED

        thread = threading.Thread(target=worker, daemon=True)
        thread.start()
        thread.join(self._timing.cycle_budget)
        # A still-running thread is abandoned: we cannot kill it, but its
        # eventual result is never observed, which preserves the defense.
        return holder[0]


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self._name}>"


_TIMED_OUT = _Sentinel("timed-out")
_FAILED = _Sentinel("failed")


def _record_chamber_metrics(
    metrics: MetricsRegistry | None, killed: bool, padded: float
) -> None:
    """Record kill/pad telemetry shared by both chamber implementations.

    Only two data-independent facts leave the chamber: whether the cycle
    budget killed the block (already observable through the substituted
    fallback) and how long the defense idled to fix the wall-clock.
    """
    registry = metrics or get_registry()
    if killed:
        registry.counter("chamber.kills").inc()
    if padded > 0.0:
        registry.histogram("chamber.pad_seconds").observe(padded)


def _subprocess_child(conn, program: AnalystProgram, block: np.ndarray) -> None:
    """Child-process entry: run the program, ship the result back."""
    try:
        result = program(block)
        conn.send(("ok", np.asarray(result, dtype=float)))
    except Exception as exc:  # noqa: BLE001 - any failure becomes fallback
        conn.send(("error", repr(exc)))
    finally:
        conn.close()


class SubprocessChamber:
    """Real OS-process isolation: fork per block, kill on timeout.

    The fork start method (Linux) gives the child a copy-on-write image
    of the parent, so any state the program mutates dies with the child;
    nothing the child does can reach the parent except the single result
    message on the pipe.  The scratch-dir/MAC policy is wiped after each
    block.
    """

    def __init__(
        self,
        timing: TimingDefense | None = None,
        policy: MACPolicy | None = None,
        start_method: str = "fork",
        metrics: MetricsRegistry | None = None,
    ):
        self._timing = timing or TimingDefense(cycle_budget=None)
        self._policy = policy
        self._context = multiprocessing.get_context(start_method)
        self._metrics = metrics

    @property
    def timing(self) -> TimingDefense:
        """The chamber's cycle-budget policy (read by backend selection)."""
        return self._timing

    def run_block(
        self,
        program: AnalystProgram,
        block: np.ndarray,
        output_dimension: int,
        fallback: np.ndarray,
    ) -> BlockExecution:
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_subprocess_child, args=(child_conn, program, block), daemon=True
        )
        started = time.perf_counter()
        killed = False
        payload = None
        try:
            try:
                process.start()
            except Exception:
                # A program the start method cannot ship (e.g. unpicklable
                # under spawn) is treated like any other failing program:
                # constant fallback, no error channel.
                payload = None
            else:
                process.join(self._timing.cycle_budget)
                if process.is_alive():
                    process.terminate()
                    process.join()
                    killed = True
                elif parent_conn.poll():
                    status, body = parent_conn.recv()
                    if status == "ok":
                        payload = body
        finally:
            child_conn.close()
            parent_conn.close()
        elapsed = time.perf_counter() - started
        # Post-hoc budget check, mirroring InProcessChamber: a result that
        # arrived but overran the cycle budget is still killed, so the
        # timing defense is backend-independent.
        if self._timing.exceeded(elapsed):
            killed = True
        padded = self._timing.pad_to_budget(elapsed)
        _record_chamber_metrics(self._metrics, killed=killed, padded=padded)
        if self._policy is not None:
            self._policy.wipe_scratch()

        output = None if killed else _coerce_output(payload, output_dimension)
        if output is None:
            return BlockExecution(
                output=np.array(fallback, dtype=float),
                succeeded=False,
                killed=killed,
                elapsed=elapsed,
            )
        return BlockExecution(output=output, succeeded=True, killed=False, elapsed=elapsed)
