"""The shard protocol: what a shard executor receives and computes.

Sample-and-aggregate makes block outputs iid clamped summaries, so the
expensive phase — planning, materializing and executing blocks — can be
partitioned across *shard-owning* executors while only block outputs
ever cross the shard boundary (the Lin/Wang/Rane observation about
sampling-based DP analysis over partitioned data).  This module is the
transport-free core of that protocol; the one coordinator that runs it
is :class:`repro.runtime.remote.RemoteShardBackend`, over TCP shard
nodes (:mod:`repro.runtime.remote.node`) on this box or others.

* **Public query parameters.**  :class:`ShardQuerySpec` is everything
  an executor needs besides its rows and the pickled program; every
  field is analyst-chosen or public geometry.
* **Shard-local planning and execution.**  :func:`execute_shard_rows`
  draws shard ``s``'s block plan from ``spawn(plan_seed, S)[s]`` (the
  protocol of :func:`repro.core.blocks.draw_sharded_plan`), gathers its
  stacked materialization in one pass, and runs the program through
  :func:`repro.runtime.vectorized.run_blocks`, the block executor the
  coordinator uses too — vectorized ``run_batch`` when the program
  declares one, a plain :class:`~repro.runtime.sandbox.InProcessChamber`
  per block otherwise.  Nothing is memoized: every query
  carries a fresh 63-bit ``plan_seed`` (and the coordinator's answer
  cache serves same-seed repeats before they ship), so a shard-local
  plan cache could never hit and would only pin gathered rows of past
  queries in node memory.
* **Partials-only combine.**  The only thing the kernel returns is the
  ``(l_s, p)`` matrix of block outputs (clamped to the declared output
  ranges when the query has them), the success mask, and the kernel's
  wall-clock (plan draw, gather and execution; the draw and gather
  cost is a function of public geometry only).  The coordinator
  concatenates partials in shard order — reproducing the
  single-process block order exactly — so a seeded query releases the
  same bits as ``serial``/``vectorized`` replaying the same sharded
  plan, for any number of nodes.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import draw_shard_local_plan
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.vectorized import run_blocks

#: Datasets a shard executor keeps resident at once (the node segment
#: LRU, mirrored by the coordinator's cache of pushable values).
DEFAULT_RESIDENT_DATASETS = 4


@dataclass(frozen=True)
class ShardQuerySpec:
    """Public parameters of one sharded query — everything a node needs.

    Every field is either analyst-chosen or public geometry; none is a
    function of record values.  ``clamp_lo``/``clamp_hi`` are the
    declared per-dimension output ranges (when the strategy knows them
    before sampling), letting nodes clamp block outputs *before* they
    cross the shard boundary; ``None`` defers clamping to aggregation
    (GUPT-loose, which estimates ranges from the raw outputs).
    """

    dataset: str
    version: int
    num_records: int
    block_size: int
    resampling_factor: int
    plan_seed: int
    shards: int
    output_dimension: int
    fallback: tuple[float, ...]
    clamp_lo: tuple[float, ...] | None = None
    clamp_hi: tuple[float, ...] | None = None


def _unloadable(block: np.ndarray) -> float:
    """Stands in for a program that failed to unpickle: every block fails."""
    raise ValueError("program failed to unpickle")


def execute_shard_rows(
    local_values: np.ndarray,
    spec: ShardQuerySpec,
    shard: int,
    program_bytes: bytes,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Plan, materialize and run one logical shard; returns its partial.

    ``local_values`` is exactly the shard's contiguous row slice (a
    shard node holds only this slice, pushed or curated).  The
    shard-local plan is a pure function of ``(plan_seed, shards,
    shard)``, so every executor of this function — any node, or an
    in-process replay of the kernel — computes the identical partial.
    The returned outputs are already clamped when the spec carries
    ranges; the returned seconds cover the whole kernel, so a
    coordinator's wire/compute split books the draw and gather as
    compute, not transport.
    """
    started = time.perf_counter()
    plan = draw_shard_local_plan(
        int(local_values.shape[0]),
        spec.block_size,
        spec.resampling_factor,
        spec.plan_seed,
        spec.shards,
        shard,
    )
    stacked = plan.stack(local_values)
    fallback = np.asarray(spec.fallback, dtype=float)
    if stacked is None:  # empty shard: no full block fits
        return (
            np.empty((0, spec.output_dimension), dtype=float),
            np.empty(0, dtype=bool),
            time.perf_counter() - started,
        )

    # A program that cannot even be loaded fails every block under the
    # chamber rule (fallback rows, ``succeeded=False``) rather than
    # taking the executor down with it.
    try:
        program = pickle.loads(program_bytes)
    except Exception:  # noqa: BLE001 - hostile or broken program
        program = _unloadable
    batch, _ = run_blocks(
        InProcessChamber(), program, stacked, spec.output_dimension, fallback,
        batch=True,
    )
    outputs = batch.outputs
    if spec.clamp_lo is not None:
        # Clamp before anything crosses the shard boundary.  Aggregation
        # clamps to the same ranges again (idempotent), so released bits
        # are untouched; the boundary payload is narrowed to exactly the
        # clamped summaries the release is computed from.
        outputs = np.clip(
            outputs,
            np.asarray(spec.clamp_lo, dtype=float),
            np.asarray(spec.clamp_hi, dtype=float),
        )
    return outputs, batch.succeeded, time.perf_counter() - started


__all__ = [
    "ShardQuerySpec",
    "DEFAULT_RESIDENT_DATASETS",
    "execute_shard_rows",
]
