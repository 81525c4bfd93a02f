"""The hosted GUPT service: the three-party deployment of Figure 2.

The paper separates a *data owner* (registers datasets and budgets), an
*analyst* (submits untrusted programs) and a *service provider* (hosts
the platform).  :class:`GuptService` is that boundary as an object: all
interaction happens through serializable request/response dataclasses,
principals authenticate with opaque tokens carrying a role, and errors
cross the boundary as structured responses — never as exceptions that
could carry internal state to the analyst.

This layer deliberately exposes *only* information that is safe for the
caller's role: analysts see dataset names, shapes and remaining budgets
(all public under the paper's model), and the differentially private
query results; they never see records, raw block outputs or ledger
details (those belong to the owner).

Queries run two ways:

* :meth:`GuptService.execute` — blocking, one response per call; the
  original single-analyst interface.
* :meth:`GuptService.submit` / :meth:`~GuptService.result` /
  :meth:`~GuptService.cancel` — async-style handles dispatched through a
  :class:`~repro.runtime.scheduler.QueryScheduler`, which adds admission
  control, per-dataset FIFO fairness, per-principal in-flight limits and
  per-query timeouts for concurrent multi-analyst traffic.

Budget spending under either path is transactional (see
:mod:`repro.accounting.manager`): concurrent queries reserve epsilon up
front, commit on success and roll back on pre-release failure, so no
interleaving of analysts can overspend a dataset's budget.
"""

from __future__ import annotations

import itertools
import secrets
import threading
from dataclasses import dataclass, field
from typing import Callable

import math

import numpy as np

from repro.accounting.manager import DatasetManager
from repro.core.blocks import blocks_per_round, default_block_size
from repro.core.budget_estimation import AccuracyGoal
from repro.core.gupt import GuptRuntime
from repro.core.range_estimation import RangeStrategy
from repro.datasets.table import DataTable
from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    GuptError,
    InvalidRange,
    SvtError,
    SvtSessionExhausted,
    UnknownSvtSession,
)
from repro.mechanisms.rng import RandomSource
from repro.observability import MetricsRegistry, get_registry
from repro.optimizer.svt import SparseVector
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.scheduler import QueryHandle, QueryScheduler

OWNER = "owner"
ANALYST = "analyst"


@dataclass(frozen=True)
class Principal:
    """An authenticated party: opaque token plus role."""

    token: str
    role: str
    name: str = ""


@dataclass(frozen=True)
class DatasetDescription:
    """Public metadata an analyst may see about a dataset."""

    name: str
    num_records: int
    num_dimensions: int
    column_names: tuple[str, ...]
    remaining_budget: float
    has_aged_data: bool


@dataclass(frozen=True)
class QueryRequest:
    """An analyst's job submission (§3.1's analyst interface).

    ``seed`` pins the query's randomness: a seeded request produces a
    bit-identical release no matter which execution path runs it or what
    other queries are in flight.  Unseeded scheduled queries draw an
    independent child generator from the runtime's stream instead, so
    concurrency never perturbs anyone else's noise.
    """

    dataset: str
    program: Callable
    range_strategy: RangeStrategy
    epsilon: float | None = None
    accuracy: AccuracyGoal | None = None
    output_dimension: int | None = None
    block_size: int | str | None = None
    resampling_factor: int = 1
    query_name: str = "query"
    group_by: str | int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class QueryResponse:
    """The service's answer: either a private result or a refusal.

    ``error`` is a human-readable reason; it is derived only from the
    request's public parameters (budget arithmetic, validation), never
    from record values, so refusals do not leak.  ``code`` is the
    machine-readable counterpart: ``"ok"`` on success, otherwise the
    stable identifier of the failure class (the exception's
    :attr:`~repro.exceptions.GuptError.code`, or a scheduler refusal
    code such as ``queue_full`` / ``max_inflight`` / ``timeout`` /
    ``cancelled`` / ``scheduler_shutdown`` / ``internal_error``).
    Clients — in particular the HTTP tier in :mod:`repro.server` —
    dispatch on ``code``, never on the message text.
    ``epsilon_rolled_back`` reports budget returned by a transactional
    rollback when the query failed before its private release — always
    zero on success.  ``cached`` marks an answer-cache replay of an
    already-published release: the value bits are identical to the
    original release and ``epsilon_charged`` is zero (post-processing
    is free; the original query paid).
    """

    ok: bool
    value: tuple[float, ...] = ()
    epsilon_charged: float = 0.0
    error: str = ""
    epsilon_rolled_back: float = 0.0
    code: str = "ok"
    cached: bool = False


@dataclass(frozen=True)
class SvtOpenResponse:
    """Public receipt for one opened SVT session.

    Everything here is budget arithmetic over analyst-declared
    parameters; the noisy threshold itself never appears on any
    response (revealing it would let probes be inverted for free).
    """

    session_id: str
    dataset: str
    epsilon_charged: float
    epsilon_per_positive: float
    count: int


@dataclass(frozen=True)
class SvtProbeResponse:
    """One above/below-threshold answer.

    ``above`` is the differentially private output the budget paid for;
    ``epsilon_charged`` is this probe's marginal charge (ε₂/c for a
    positive, zero for a negative).  The exact aggregate, the noisy
    margin and the noisy threshold stay on the trusted side.
    """

    above: bool
    epsilon_charged: float
    positives: int
    probes: int
    exhausted: bool


@dataclass(frozen=True)
class SvtCloseResponse:
    """Terminal accounting for one SVT session."""

    closed: bool
    positives: int
    probes: int
    epsilon_charged: float


class _SvtSession:
    """Service-side state of one live SVT session (internal)."""

    __slots__ = (
        "session_id", "owner_token", "dataset", "version", "query_name",
        "svt", "lower", "upper", "block_size", "resampling_factor",
        "epsilon_charged", "lock",
    )

    def __init__(
        self, session_id, owner_token, dataset, version, query_name,
        svt, lower, upper, block_size, resampling_factor, epsilon_charged,
    ):
        self.session_id = session_id
        self.owner_token = owner_token
        self.dataset = dataset
        self.version = version
        self.query_name = query_name
        self.svt = svt
        self.lower = lower
        self.upper = upper
        self.block_size = block_size
        self.resampling_factor = resampling_factor
        self.epsilon_charged = epsilon_charged
        self.lock = threading.Lock()


class GuptService:
    """The service provider's facade over the trusted platform.

    Execution is one :class:`ComputationManager`, passed in (shard nodes
    and their secret are set there) or built here from ``backend`` and
    ``shards``; :meth:`close` closes it either way.
    """

    def __init__(
        self,
        computation_manager: ComputationManager | None = None,
        rng: RandomSource = None,
        metrics: MetricsRegistry | None = None,
        backend: str | None = None,
        shards: int | None = None,
        scheduler_workers: int = 4,
        max_inflight: int = 8,
        queue_depth: int = 64,
        query_timeout: float | None = None,
        state_dir: str | None = None,
        answer_cache_size: int | None = None,
        max_svt_sessions: int = 64,
    ):
        if computation_manager is not None and (backend, shards) != (None, None):
            raise GuptError("pass computation_manager or backend/shards, not both")
        if max_svt_sessions < 1:
            raise GuptError("max_svt_sessions must be >= 1")
        if computation_manager is None:
            computation_manager = ComputationManager(
                backend=backend, shards=shards, metrics=metrics
            )
        self._metrics = metrics
        # With state_dir the accounting layer is durable: every budget
        # event is journaled write-ahead and a journal left by
        # a crashed predecessor is recovered conservatively before any
        # query can run — see repro.accounting.journal.
        self._datasets = DatasetManager(metrics=metrics, state_dir=state_dir)
        # answer_cache_size > 0 turns on the noisy-answer cache: repeat
        # seeded queries replay the published release at zero marginal ε
        # (see repro.optimizer.answer_cache); off by default.
        self._runtime = GuptRuntime(
            self._datasets, computation_manager, rng=rng, metrics=metrics,
            answer_cache_size=answer_cache_size,
        )
        self._principals: dict[str, Principal] = {}
        self._counter = itertools.count()
        self._max_svt_sessions = max_svt_sessions
        self._svt_sessions: dict[str, _SvtSession] = {}
        self._svt_lock = threading.Lock()
        # The scheduler (and its worker threads) is created lazily on the
        # first async submission, so purely blocking users pay nothing.
        self._scheduler_config = dict(
            workers=scheduler_workers,
            max_inflight=max_inflight,
            queue_depth=queue_depth,
            query_timeout=query_timeout,
        )
        self._scheduler: QueryScheduler | None = None
        self._scheduler_lock = threading.Lock()
        self._closed = False

    @property
    def scheduler(self) -> QueryScheduler:
        """The service's query scheduler (created on first access)."""
        with self._scheduler_lock:
            if self._scheduler is None:
                self._scheduler = QueryScheduler(
                    metrics=self._metrics, **self._scheduler_config
                )
            return self._scheduler

    def close(self, drain: bool = True) -> None:
        """Drain the scheduler, release backends, close the journal.

        Idempotent and exactly-once: the scheduler is swapped out under
        its lock (so only one caller ever drains it), the runtime and
        dataset manager guard themselves, and a ``_closed`` flag makes
        repeated calls — context-manager exit after an explicit close,
        overlapping shutdown hooks — cheap no-ops.
        """
        with self._scheduler_lock:
            if self._closed:
                return
            self._closed = True
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.close(drain=drain)
        with self._svt_lock:
            # Dropping a session spends nothing further; budget already
            # charged (ε₁ + committed positives) stays spent.
            self._svt_sessions.clear()
        self._runtime.close()
        self._datasets.close()

    def __enter__(self) -> "GuptService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def metrics_snapshot(self) -> dict:
        """Provider-side view of the service's operational telemetry.

        Everything in the snapshot is release-safe by construction (see
        :mod:`repro.observability`); it is still scoped to the *service
        provider*, not exposed through the analyst interface.
        """
        return (self._metrics or get_registry()).snapshot()

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, role: str, name: str = "") -> Principal:
        """Issue a token for a data owner or an analyst."""
        if role not in (OWNER, ANALYST):
            raise GuptError(f"unknown role {role!r}")
        token = f"{role}-{next(self._counter)}-{secrets.token_hex(8)}"
        principal = Principal(token=token, role=role, name=name)
        self._principals[token] = principal
        return principal

    def _authenticate(self, token: str, required_role: str) -> Principal:
        principal = self._principals.get(token)
        if principal is None:
            raise AuthenticationError("unknown principal token")
        if principal.role != required_role:
            raise AuthorizationError(
                f"operation requires role {required_role!r}, token has "
                f"{principal.role!r}"
            )
        return principal

    # ------------------------------------------------------------------
    # Data owner interface
    # ------------------------------------------------------------------
    def register_dataset(
        self,
        token: str,
        name: str,
        table: DataTable,
        total_budget: float,
        aged_fraction: float = 0.0,
        aged_table: DataTable | None = None,
    ) -> DatasetDescription:
        """Owner-only: place a dataset under the platform's control."""
        self._authenticate(token, OWNER)
        self._datasets.register(
            name, table, total_budget,
            aged_fraction=aged_fraction, aged_table=aged_table,
        )
        return self.describe_dataset(token, name)

    def register_federated_dataset(
        self,
        token: str,
        name: str,
        total_budget: float,
        column_names=None,
        input_ranges=None,
    ) -> DatasetDescription:
        """Owner-only: register a dataset held by curator shard nodes.

        The platform learns only each curator's handshake manifest
        (row count, column count, geometry digest); budgets and ledgers
        attach here exactly as for :meth:`register_dataset`, but no
        record value ever enters the service.  Requires the service to
        run ``backend="remote"`` with the curator nodes reachable.
        """
        self._authenticate(token, OWNER)
        self._runtime.register_federated(
            name, total_budget,
            column_names=column_names, input_ranges=input_ranges,
        )
        return self.describe_dataset(token, name)

    def ledger_entries(self, token: str, name: str) -> list[tuple[str, float]]:
        """Owner-only: (query, epsilon) audit trail of a dataset."""
        self._authenticate(token, OWNER)
        ledger = self._datasets.get(name).ledger
        return [(entry.query, entry.epsilon) for entry in ledger]

    def recovered_datasets(self, token: str) -> list[str]:
        """Owner-only: journaled dataset names awaiting re-registration.

        Non-empty only on a durable service that recovered a crashed
        predecessor's journal: the budgets are already accounted for,
        but queries are refused until the owner re-supplies the data by
        registering each name again (with its original total budget).
        """
        self._authenticate(token, OWNER)
        return self._datasets.recovered_names()

    # ------------------------------------------------------------------
    # Shared read-only interface
    # ------------------------------------------------------------------
    def list_datasets(self, token: str) -> list[str]:
        """Any principal: names of registered datasets."""
        if token not in self._principals:
            raise AuthenticationError("unknown principal token")
        return self._datasets.names()

    def describe_dataset(self, token: str, name: str) -> DatasetDescription:
        """Any principal: public metadata of one dataset."""
        if token not in self._principals:
            raise AuthenticationError("unknown principal token")
        registered = self._datasets.get(name)
        return DatasetDescription(
            name=registered.name,
            num_records=registered.table.num_records,
            num_dimensions=registered.table.num_dimensions,
            column_names=registered.table.column_names,
            remaining_budget=registered.budget.remaining,
            has_aged_data=registered.aged is not None,
        )

    # ------------------------------------------------------------------
    # Analyst interface
    # ------------------------------------------------------------------
    def execute(self, token: str, request: QueryRequest) -> QueryResponse:
        """Analyst-only: run one private query, blocking until it resolves.

        All platform failures — bad parameters, exhausted budgets,
        programs that die on every block — come back as structured
        refusals.  The analyst's program runs behind the same chambers
        as always; the service layer adds only authentication and the
        error boundary.
        """
        principal = self._authenticate(token, ANALYST)
        return self._run_request(principal, request, rng=request.seed)

    def submit(self, token: str, request: QueryRequest) -> QueryHandle:
        """Analyst-only: enqueue one private query; returns immediately.

        The query goes through the scheduler's admission control
        (per-principal in-flight limit, global queue depth) and
        per-dataset FIFO dispatch.  Rejections resolve the handle
        immediately with a structured refusal — :meth:`submit` itself
        only raises for authentication failures.
        """
        principal = self._authenticate(token, ANALYST)

        def runner(req: QueryRequest) -> QueryResponse:
            # An unseeded concurrent query gets its own child generator:
            # numpy Generators are not thread-safe, and independent
            # streams keep each query's noise unaffected by whatever
            # else is in flight.
            rng = req.seed if req.seed is not None else self._runtime.spawn_rng()
            return self._run_request(principal, req, rng=rng)

        return self.scheduler.submit(
            runner, request, principal=principal.name or principal.role
        )

    def result(
        self, handle: QueryHandle, timeout: float | None = None
    ) -> QueryResponse | None:
        """Wait for a submitted query's terminal response.

        ``timeout`` bounds *this wait only*, never the query.  The
        contract on expiry — pinned by ``tests/test_service.py`` and
        mirrored one-to-one by the HTTP poll endpoint (which answers
        ``202 {"status": "pending"}``) — is:

        * ``result`` **returns** ``None``; it never raises on expiry
          (``timeout=0`` is therefore a non-blocking poll);
        * the query is unaffected: it stays queued or running, no budget
          decision is altered, and the scheduler's own ``query_timeout``
          keeps being enforced independently;
        * calling ``result`` again later is always valid and yields the
          same single terminal response every time once it exists.

        Raises :class:`~repro.exceptions.UnknownHandleError` only for a
        handle this scheduler never issued.
        """
        return self.scheduler.result(handle, timeout=timeout)

    def cancel(self, handle: QueryHandle) -> bool:
        """Cancel a still-queued query (no budget is ever spent)."""
        return self.scheduler.cancel(handle)

    def _run_request(
        self, principal: Principal, request: QueryRequest, rng: RandomSource = None
    ) -> QueryResponse:
        metrics = self._metrics or get_registry()
        # Per-principal accounting: labels carry the principal's public
        # name (or role), never the secret token.
        who = principal.name or principal.role
        metrics.counter("service.queries", principal=who).inc()
        try:
            result = self._runtime.run(
                request.dataset,
                request.program,
                request.range_strategy,
                epsilon=request.epsilon,
                accuracy=request.accuracy,
                output_dimension=request.output_dimension,
                block_size=request.block_size,
                resampling_factor=request.resampling_factor,
                query_name=request.query_name,
                group_by=request.group_by,
                rng=rng,
            )
        except GuptError as exc:
            metrics.counter("service.rejections", principal=who).inc()
            return QueryResponse(
                ok=False,
                error=str(exc),
                epsilon_rolled_back=getattr(exc, "epsilon_rolled_back", 0.0),
                code=type(exc).code,
            )
        return QueryResponse(
            ok=True,
            value=tuple(float(v) for v in result.value),
            # An answer-cache replay charged nothing *now*; the original
            # release already paid its epsilon_total.
            epsilon_charged=0.0 if result.cached else result.epsilon_total,
            cached=result.cached,
        )

    # ------------------------------------------------------------------
    # SVT interactive sessions (repro.optimizer.svt)
    # ------------------------------------------------------------------
    def svt_open(
        self,
        token: str,
        dataset: str,
        threshold: float,
        lower: float,
        upper: float,
        epsilon: float,
        count: int = 1,
        block_size: int | None = None,
        resampling_factor: int = 1,
        query_name: str = "svt",
        threshold_fraction: float = 0.5,
    ) -> SvtOpenResponse:
        """Analyst-only: open an above-threshold probing session.

        The session pins the dataset, the declared output range
        ``[lower, upper]`` and the plan geometry at open time; every
        probe's sensitivity (γ·width/num_blocks, the same bound the
        noisy-average release uses) is therefore fixed up front, which
        is what makes the per-session noise calibration sound.  ε is
        split into a threshold share (charged here, once) and an answer
        share amortized over up to ``count`` positive answers — negative
        answers are free, by the SVT analysis.

        There is deliberately no analyst-supplied seed, unlike the
        ordinary query path: the SVT analysis only covers negative
        answers for free because the noisy threshold ρ and the per-probe
        noise ν are *secret*.  An analyst who could choose the seed
        could compute both exactly and turn every free negative into an
        exact threshold comparison on the raw aggregate.  (A seeded
        ordinary query still pays its full ε per release, which is why
        seeds are sound there.)  Session randomness is drawn exclusively
        from the platform's own stream.
        """
        principal = self._authenticate(token, ANALYST)
        registered = self._datasets.get(dataset)
        lower, upper = float(lower), float(upper)
        if not (math.isfinite(lower) and math.isfinite(upper)) or lower >= upper:
            raise InvalidRange(
                f"SVT output range must be finite with lower < upper, "
                f"got [{lower}, {upper}]"
            )
        resampling_factor = int(resampling_factor)
        if resampling_factor < 1:
            raise SvtError(
                f"resampling_factor must be >= 1, got {resampling_factor}"
            )
        n = registered.table.num_records
        beta = default_block_size(n) if block_size is None else int(block_size)
        if beta < 1 or beta > n:
            raise SvtError(
                f"block size {beta} infeasible for dataset of {n} records"
            )
        num_blocks = blocks_per_round(n, beta) * resampling_factor
        if num_blocks < 1:
            raise SvtError("plan geometry yields no blocks")
        # One record touches at most γ block outputs; the clamped block
        # mean therefore moves by at most γ·width/num_blocks.
        sensitivity = resampling_factor * (upper - lower) / num_blocks

        generator = self.spawn_rng()
        # Advisory fast-fail; the authoritative cap check happens under
        # the lock at insertion time below, where it cannot race.
        with self._svt_lock:
            if len(self._svt_sessions) >= self._max_svt_sessions:
                raise SvtError(
                    f"too many open SVT sessions "
                    f"(limit {self._max_svt_sessions}); close one first"
                )
        svt_kwargs = dict(
            threshold=threshold,
            sensitivity=sensitivity,
            epsilon=float(epsilon),
            count=count,
            threshold_fraction=threshold_fraction,
        )
        # Validate all SVT parameters before money moves: a malformed
        # request must not hold ε₁ and then fail.
        probe_free = SparseVector(rng=np.random.default_rng(0), **svt_kwargs)
        epsilon_threshold = probe_free.epsilon_threshold
        # Hold the threshold share before the session's noisy threshold
        # is drawn — a draw whose ε is not at least reserved must never
        # exist — and commit it only once the session is installed.  Any
        # failure in between (including losing the cap race) rolls the
        # hold back, so a refused open costs nothing.
        reservation = registered.reserve(
            epsilon_threshold, f"{query_name}[threshold]"
        )
        try:
            svt = SparseVector(rng=generator, **svt_kwargs)
            session_id = f"svt-{next(self._counter)}-{secrets.token_hex(4)}"
            session = _SvtSession(
                session_id=session_id,
                owner_token=token,
                dataset=dataset,
                version=registered.version,
                query_name=query_name,
                svt=svt,
                lower=lower,
                upper=upper,
                block_size=beta,
                resampling_factor=resampling_factor,
                epsilon_charged=epsilon_threshold,
            )
            with self._svt_lock:
                if len(self._svt_sessions) >= self._max_svt_sessions:
                    raise SvtError(
                        f"too many open SVT sessions "
                        f"(limit {self._max_svt_sessions}); close one first"
                    )
                self._svt_sessions[session_id] = session
            try:
                reservation.commit(detail="svt session threshold noise")
            except BaseException:
                # A commit refused (e.g. journal failure) leaves the
                # hold pending: withdraw the session so nothing unpaid
                # is ever probe-able, then release the hold.
                with self._svt_lock:
                    self._svt_sessions.pop(session_id, None)
                raise
        except BaseException:
            reservation.rollback()
            raise
        metrics = self._metrics or get_registry()
        who = principal.name or principal.role
        metrics.counter("svt.sessions_opened", principal=who).inc()
        metrics.gauge("svt.open_sessions").set(len(self._svt_sessions))
        return SvtOpenResponse(
            session_id=session_id,
            dataset=dataset,
            epsilon_charged=epsilon_threshold,
            epsilon_per_positive=svt.epsilon_per_positive,
            count=svt.count,
        )

    def _svt_session(self, token: str, session_id: str) -> _SvtSession:
        """Look up a live session owned by ``token``.

        One indistinguishable refusal for "never existed", "closed" and
        "someone else's" — session ids must not be probe-able.
        """
        self._authenticate(token, ANALYST)
        with self._svt_lock:
            session = self._svt_sessions.get(session_id)
        if session is None or session.owner_token != token:
            raise UnknownSvtSession(f"unknown SVT session {session_id!r}")
        return session

    def svt_probe(
        self, token: str, session_id: str, program: Callable,
        output_dimension: int | None = None,
    ) -> SvtProbeResponse:
        """Analyst-only: one above/below-threshold answer.

        The program runs through the ordinary sample phase (chambers,
        block plan protocol, clamping to the session's declared range),
        but the exact clamped block average never leaves the platform —
        only the noisy comparison against the session's noisy threshold
        does.  Budget is transactional per probe: ε₂/c is *reserved*
        before anything executes, committed only when the answer is
        positive, rolled back on a negative answer or any failure.
        (That rollback is sound for the correct algorithm — negatives
        are jointly covered by the threshold noise and the 2cΔ/ε₂ query
        noise; see repro.attacks.svt_variants for the broken variant
        that refunds while noising as if every answer paid in full.)
        """
        session = self._svt_session(token, session_id)
        metrics = self._metrics or get_registry()
        with session.lock:
            svt = session.svt
            if svt.exhausted:
                raise SvtSessionExhausted(
                    f"SVT session answered its {svt.count} above-threshold "
                    "probes; open a new session to continue"
                )
            registered = self._datasets.get(session.dataset)
            if registered.version != session.version:
                # The sensitivity bound was computed against the old
                # registration's geometry; a re-registered dataset
                # invalidates the session rather than mis-calibrating.
                raise SvtError(
                    f"dataset {session.dataset!r} was re-registered since "
                    "this SVT session opened; open a new session"
                )
            reservation = registered.reserve(
                svt.epsilon_per_positive, f"{session.query_name}[positive]"
            )
            try:
                # Pass the registration we just version-checked: a
                # re-resolve by name inside exact_aggregate could race a
                # concurrent re-registration and run the probe against a
                # table whose geometry the session's sensitivity was
                # never calibrated for.
                value = self._runtime.exact_aggregate(
                    session.dataset,
                    program,
                    session.lower,
                    session.upper,
                    block_size=session.block_size,
                    resampling_factor=session.resampling_factor,
                    output_dimension=output_dimension,
                    rng=svt.transcript_rng(),
                    registered=registered,
                )
                above = svt.probe(value)
            except BaseException:
                reservation.rollback()
                raise
            if above:
                reservation.commit(detail="svt above-threshold answer")
                charged = svt.epsilon_per_positive
                session.epsilon_charged += charged
            else:
                reservation.rollback()
                charged = 0.0
        metrics.counter("svt.probes", dataset=session.dataset).inc()
        if above:
            metrics.counter("svt.positives", dataset=session.dataset).inc()
        return SvtProbeResponse(
            above=above,
            epsilon_charged=charged,
            positives=svt.positives,
            probes=svt.probes,
            exhausted=svt.exhausted,
        )

    def svt_close(self, token: str, session_id: str) -> SvtCloseResponse:
        """Analyst-only: end a session; already-charged ε stays spent."""
        session = self._svt_session(token, session_id)
        with self._svt_lock:
            self._svt_sessions.pop(session_id, None)
        metrics = self._metrics or get_registry()
        metrics.gauge("svt.open_sessions").set(len(self._svt_sessions))
        return SvtCloseResponse(
            closed=True,
            positives=session.svt.positives,
            probes=session.svt.probes,
            epsilon_charged=session.epsilon_charged,
        )

    def spawn_rng(self) -> np.random.Generator:
        """A fresh child generator from the runtime's seeded stream."""
        return self._runtime.spawn_rng()
