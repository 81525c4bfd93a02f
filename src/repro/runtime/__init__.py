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
* :mod:`~repro.runtime.vectorized` — the batch fast path: programs that
  declare ``run_batch`` run over the whole stacked block array in one
  numpy call, bit-identical to the per-block backends.
* :mod:`~repro.runtime.remote` — the shard coordinator, the one
  multi-process data plane: logical shards execute on shard nodes
  (threads, ``repro shard-node`` processes on this box, or other hosts).
"""

from repro.runtime.policy import MACPolicy
from repro.runtime.sandbox import (
    BlockExecution,
    ExecutionChamber,
    InProcessChamber,
    SubprocessChamber,
)
from repro.runtime.timing import TimingDefense
from repro.runtime.computation_manager import BACKENDS, ComputationManager
from repro.runtime.marshal import ExternalProgram
from repro.runtime.scheduler import QueryHandle, QueryScheduler
from repro.runtime.vectorized import (
    VectorizedProgram,
    stack_blocks,
    supports_batch,
)

# The hosted service layer (repro.runtime.service) sits ABOVE the core
# runtime — it wraps GuptRuntime — so it is imported by its full module
# path rather than re-exported here, which would create an import cycle
# (runtime -> service -> core -> runtime).  The scheduler is generic
# over a runner callable and only type-references the service, so it is
# safe to re-export.

__all__ = [
    "BACKENDS",
    "BlockExecution",
    "ComputationManager",
    "ExecutionChamber",
    "ExternalProgram",
    "InProcessChamber",
    "MACPolicy",
    "QueryHandle",
    "QueryScheduler",
    "SubprocessChamber",
    "TimingDefense",
    "VectorizedProgram",
    "stack_blocks",
    "supports_batch",
]
