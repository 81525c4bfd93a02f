"""The noisy-answer cache: replay published releases at zero marginal ε.

Differential privacy is closed under post-processing: once a noisy
release has been handed to an analyst, handing the *same bits* out
again reveals nothing new, so an identical repeat query can be served
from a cache without touching the privacy budget.  "Identical" is the
load-bearing word — the cache key must pin every input the released
bits depend on:

* registration identity (``dataset`` name + monotonic ``version``), so
  a re-registered dataset can never replay a stale release;
* the full public plan geometry (block size, resampling factor, shard
  count, output dimension) and the privacy parameters (ε, the range
  strategy's declared bounds and budget split);
* *program identity* — two different programs may share a plan but
  produce different block outputs; and
* the query seed.  An unseeded query draws fresh noise by design and is
  never cached; a seeded query is bit-reproducible across all backends
  (the plan-seed protocol of :mod:`repro.core.sample_aggregate`), which
  is exactly what makes replay indistinguishable from re-execution.

Program and strategy identity use a *content* digest.  A plain pickle
would be unsound here: pickle serializes module-level functions by
reference (module + qualname), not by code, so a function whose body
changed — redefined in ``__main__`` or a notebook, or an edited module
against a long-lived runtime — would keep its digest and silently
replay a stale release for different logic.  Instead, functions (and
lambdas, methods, ``functools.partial``s and callable instances) are
fingerprinted structurally: bytecode, constants, names, defaults,
closure cell values, and the values of the module globals the code
references, recursively.  Two programs with equal digests therefore
execute the same bytecode over the same captured state.  The one
residual gap is state the fingerprint cannot see — e.g. a global
*mutated in place* between calls, or C-extension internals — which is
also state pickle could never pin.  Programs whose captured state
cannot be fingerprinted (unpicklable closure or global values) simply
bypass the cache — they still run correctly, they just never hit.

Keys are built exclusively from analyst-supplied public parameters and
registration metadata — never from records or block outputs — so the
cache's internal state is release-safe by construction, like
:class:`~repro.core.plan_cache.BlockPlanCache` whose keying discipline
this module mirrors.  Neither cache holds records: this one keeps
published releases, the plan cache keeps drawn index matrices, and the
block rows a query gathers never outlive that query.
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import threading
import types
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.core.result import GuptResult
from repro.observability import MetricsRegistry, get_registry

#: Default entry bound.  Cached answers are tiny (a d-vector of floats
#: plus scalar metadata), so the bound exists to cap key churn, not RAM.
DEFAULT_MAX_ANSWERS = 256

#: Pickle protocol pinned so digests are stable across interpreter runs.
_DIGEST_PROTOCOL = 4


@dataclass(frozen=True)
class AnswerKey:
    """Public identity of one published release.

    Every field is either analyst-supplied, registration metadata, or a
    digest of the analyst's own program object — nothing derives from
    records or block outputs.
    """

    dataset: str
    version: int
    program_digest: str
    strategy_digest: str
    epsilon: float
    output_dimension: int
    block_size: int
    resampling_factor: int
    group_by: str | None
    seed: int
    shards: int


def _code_identity(code: types.CodeType) -> tuple:
    """A structural token for one code object, recursing into nested code.

    Covers everything execution depends on: bytecode, constants (nested
    functions appear as code constants), the names it resolves, and the
    argument/flag layout.  Line numbers and filenames are deliberately
    excluded — moving a function does not change what it computes.
    """
    consts = tuple(
        _code_identity(const) if isinstance(const, types.CodeType) else const
        for const in code.co_consts
    )
    return (
        "code",
        code.co_argcount,
        code.co_posonlyargcount,
        code.co_kwonlyargcount,
        code.co_flags,
        code.co_code,
        consts,
        code.co_names,
        code.co_varnames,
        code.co_freevars,
        code.co_cellvars,
    )


def _global_refs(fn: types.FunctionType, seen: set[int]) -> tuple:
    """Identity tokens for the module globals ``fn``'s code references.

    A function's behavior depends on the globals it reads, and pickling
    the function by reference would not pin them.  Builtins are not in
    ``__globals__`` and are skipped; module references reduce to the
    module name (attribute reads off a module are as stable as the
    environment itself).
    """
    names: set[str] = set()
    stack = [fn.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(
            const for const in code.co_consts
            if isinstance(const, types.CodeType)
        )
    return tuple(
        (name, _identity(fn.__globals__[name], seen))
        for name in sorted(names)
        if name in fn.__globals__
    )


def _identity(obj: object, seen: set[int]) -> object:
    """A picklable token capturing what executing ``obj`` would run.

    Functions, methods, partials and callable instances are decomposed
    structurally (code content + captured state); everything else is
    returned as-is and pickled *by value* inside the enclosing token.
    ``seen`` breaks reference cycles (e.g. a recursive function that
    names itself in its own globals); revisits collapse to a marker,
    which keeps the traversal finite and deterministic.
    """
    if id(obj) in seen:
        return ("cycle",)
    if isinstance(obj, types.ModuleType):
        return ("module", obj.__name__)
    if isinstance(obj, types.MethodType):
        seen.add(id(obj))
        return (
            "method",
            _identity(obj.__func__, seen),
            _identity(obj.__self__, seen),
        )
    if isinstance(obj, functools.partial):
        seen.add(id(obj))
        return (
            "partial",
            _identity(obj.func, seen),
            tuple(_identity(arg, seen) for arg in obj.args),
            tuple(sorted(
                (key, _identity(value, seen))
                for key, value in obj.keywords.items()
            )),
        )
    if isinstance(obj, types.FunctionType):
        seen.add(id(obj))
        return (
            "function",
            obj.__module__,
            obj.__qualname__,
            _code_identity(obj.__code__),
            tuple(_identity(d, seen) for d in obj.__defaults__ or ()),
            tuple(sorted(
                (key, _identity(value, seen))
                for key, value in (obj.__kwdefaults__ or {}).items()
            )),
            tuple(
                _identity(cell.cell_contents, seen)
                for cell in obj.__closure__ or ()
            ),
            _global_refs(obj, seen),
        )
    if (
        callable(obj)
        and not isinstance(obj, type)
        and isinstance(getattr(type(obj), "__call__", None), types.FunctionType)
    ):
        # A callable instance executes its class's __call__ over its own
        # state: pin both.  The instance pickles by value (its state);
        # the __call__ token pins the code an edited class would change.
        seen.add(id(obj))
        return ("instance", obj, _identity(type(obj).__call__, seen))
    return obj


def _digest(obj: object) -> str | None:
    """A stable content digest of ``obj``'s behavior, else ``None``.

    ``None`` (unpicklable captured state, an empty closure cell, …)
    means identity cannot be established and the query must bypass the
    cache.
    """
    try:
        payload = pickle.dumps(_identity(obj, set()), protocol=_DIGEST_PROTOCOL)
    except Exception:
        return None
    return hashlib.sha256(payload).hexdigest()


def build_answer_key(
    *,
    dataset: str,
    version: int,
    program: object,
    range_strategy: object,
    epsilon: float,
    output_dimension: int,
    block_size: int,
    resampling_factor: int,
    group_by: str | int | None,
    seed: int,
    shards: int,
) -> AnswerKey | None:
    """The cache key for one fully-resolved query, or ``None``.

    ``None`` means "not cacheable" (program or strategy identity cannot
    be established); the caller proceeds exactly as if no cache existed.
    """
    program_digest = _digest(program)
    if program_digest is None:
        return None
    strategy_digest = _digest(range_strategy)
    if strategy_digest is None:
        return None
    return AnswerKey(
        dataset=dataset,
        version=int(version),
        program_digest=program_digest,
        strategy_digest=strategy_digest,
        epsilon=float(epsilon),
        output_dimension=int(output_dimension),
        block_size=int(block_size),
        resampling_factor=int(resampling_factor),
        group_by=None if group_by is None else str(group_by),
        seed=int(seed),
        shards=int(shards),
    )


class AnswerCache:
    """Thread-safe LRU of published releases keyed by :class:`AnswerKey`.

    Stored results are frozen (the value array is made read-only) so a
    replay is bit-identical to the original release no matter what an
    analyst did with the first copy.  Hits are returned with
    ``cached=True`` so callers up the stack (service, wire protocol)
    can report the zero marginal charge honestly.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ANSWERS,
        metrics: MetricsRegistry | None = None,
    ):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = int(max_entries)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: OrderedDict[AnswerKey, GuptResult] = OrderedDict()
        # Materialize the counters so a snapshot shows zeros, not holes.
        registry = self._registry()
        for name in ("hits", "misses", "evictions", "invalidations", "stores"):
            registry.counter(f"optimizer.cache_{name}")
        self._record_gauges()

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _record_gauges(self) -> None:
        self._registry().gauge("optimizer.cache_entries").set(len(self._entries))

    def get(self, key: AnswerKey) -> GuptResult | None:
        """The stored release for ``key`` (marked cached), or ``None``."""
        with self._lock:
            stored = self._entries.get(key)
            if stored is not None:
                self._entries.move_to_end(key)
        registry = self._registry()
        if stored is None:
            registry.counter("optimizer.cache_misses", dataset=key.dataset).inc()
            return None
        registry.counter("optimizer.cache_hits", dataset=key.dataset).inc()
        return stored

    def put(self, key: AnswerKey, result: GuptResult) -> None:
        """Store one published release under its public identity."""
        value = np.array(result.value, dtype=float, copy=True)
        value.setflags(write=False)
        frozen = replace(result, value=value, cached=True)
        evicted = 0
        with self._lock:
            self._entries[key] = frozen
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                evicted += 1
        registry = self._registry()
        registry.counter("optimizer.cache_stores", dataset=key.dataset).inc()
        if evicted:
            registry.counter("optimizer.cache_evictions").inc(evicted)
        self._record_gauges()

    def invalidate(self, dataset: str) -> int:
        """Drop every answer for ``dataset`` (any version).

        Wired into :meth:`DatasetManager.add_invalidation_hook` alongside
        the block-plan cache, so one re-registration evicts both caches
        in the same notification.  Version-keyed lookups already make
        stale *hits* impossible; eviction frees the entries eagerly.
        """
        with self._lock:
            stale = [key for key in self._entries if key.dataset == dataset]
            for key in stale:
                del self._entries[key]
        if stale:
            self._registry().counter(
                "optimizer.cache_invalidations", dataset=dataset
            ).inc(len(stale))
        self._record_gauges()
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
        self._record_gauges()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
