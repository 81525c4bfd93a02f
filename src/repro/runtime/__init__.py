"""GUPT's execution substrate: chambers, policy and the computation manager.

The paper runs every analyst program inside an *isolated execution
chamber* confined by an AppArmor MAC profile, with a server/client split
of the computation manager (§6).  This package reproduces that substrate
with two chamber implementations and two data planes:

* :class:`~repro.runtime.sandbox.SubprocessChamber` — real OS-process
  isolation (fresh interpreter state, scratch directory, kill-on-timeout).
* :class:`~repro.runtime.sandbox.InProcessChamber` — the same semantics
  (fresh program instance, output-only channel, cycle budget, constant
  fallback) enforced in-process for speed; used by the experiments.
* :mod:`~repro.runtime.vectorized` — the one block executor
  (``run_blocks``), shared by the computation manager and the shard
  nodes, and its batch fast path: the built-in estimators' ``run_batch``
  runs over the whole stacked block array in one call, bit-identical
  to per-block chamber calls; no other program's batch form is used.
* :mod:`~repro.runtime.remote` — the shard coordinator, the one
  multi-process data plane: logical shards execute on shard nodes
  (threads, ``repro shard-node`` processes on this box, or other hosts).

The names below resolve lazily (see :mod:`repro._lazy`): a shard node
imports the node tier through this package without loading the
computation manager or the scheduler.
"""

from repro._lazy import lazy_exports

# The hosted service layer (repro.runtime.service) sits ABOVE the core
# runtime — it wraps GuptRuntime — so it is imported by its full module
# path rather than re-exported here.

_EXPORTS = {
    "repro.runtime.computation_manager": ("BACKENDS", "ComputationManager"),
    "repro.runtime.marshal": ("ExternalProgram",),
    "repro.runtime.policy": ("MACPolicy",),
    "repro.runtime.sandbox": (
        "BlockExecution",
        "ExecutionChamber",
        "InProcessChamber",
        "SubprocessChamber",
    ),
    "repro.runtime.scheduler": ("QueryHandle", "QueryScheduler"),
    "repro.runtime.timing": ("TimingDefense",),
    "repro.runtime.vectorized": ("VectorizedProgram",),
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
