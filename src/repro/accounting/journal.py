"""The durable privacy-budget journal: an fsync'd write-ahead log.

GUPT's §5.2 defense against privacy-budget attacks assumes spent epsilon
can never be forgotten.  In-memory accounting breaks that assumption the
moment the process dies: a crash-and-restart of the service would
resurrect exhausted budgets.  This module makes the accounting layer
survive the process.

Format
------
A journal file starts with an 8-byte magic (:data:`MAGIC`) followed by
length-prefixed, checksummed records::

    <u32 payload length> <u32 crc32(payload)> <payload bytes>

(little-endian).  The payload is a compact JSON object describing one
budget lifecycle event; every field is budget *arithmetic* — dataset
name, epsilon amounts, reservation ids, query labels — never record
values or block outputs, so the journal is release-safe by construction
like the metrics registry.

Event kinds: ``register`` (dataset placed under management with a total
budget), ``reserve`` (epsilon held for one query), ``commit`` (the hold
became spent), ``rollback`` (the hold was returned), ``retire`` (the
dataset — or a streaming epoch — left management, budget discarded) and
``recovery`` (a barrier appended each time a journal is replayed on
startup).

Write-ahead discipline
----------------------
Every append is written and flushed to the OS before the in-memory state
it describes becomes observable in the conservative direction, so a
*process* crash never loses a record.  Only the records that gate a
release or a registration are also ``fsync``'d before :meth:`append`
returns — ``register``, ``reserve``, ``retire`` and ``recovery``:

* a *reserve* is journaled after the in-memory hold succeeds but before
  the reservation is handed to the query — a journal failure releases
  the hold and refuses the query, so no query ever runs without a
  durable trace;
* a *commit* is journaled **before** the in-memory spend — a crash
  between the two leaves a commit that recovery honors;
* a *rollback* is journaled before the hold is released — a failure
  leaves the hold in place (conservative: never resurrect).

``commit``, ``rollback`` and ``replay`` records skip their own fsync:
the next fsync'd record (or :meth:`BudgetJournal.close`) makes them
durable, because the file is append-only.  A power loss before then can
drop them, and that is safe.  A lost commit or rollback leaves its
reserve unsettled, which recovery resolves as spent: a commit's epsilon
is charged all the same, and a rollback's is wasted rather than minted.
A freed hold can fund a new query only through that query's own
fsync'd reserve, which lands after the rollback.  A lost replay loses a
zero-epsilon audit entry and no budget.

Recovery
--------
:func:`replay` folds a record stream into per-dataset recovered state.
Resolution of in-flight reservations is deliberately *conservative*: a
``reserve`` whose ``commit``/``rollback`` record is missing — because
the process died between reserving and settling — is treated as
**spent**.  The recovered remaining budget is therefore never higher
than the pre-crash truth; a crash can waste epsilon, never mint it.
A ``recovery`` barrier record forces the same resolution at replay time
for every earlier unsettled reserve, which also makes per-budget
reservation ids safe to reuse across process generations.

A *torn tail* — a final record interrupted mid-write — is detected by
the length prefix or checksum, truncated, and every record before it is
preserved; :func:`fsck` reports (and optionally repairs or compacts)
journals offline.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exceptions import JournalCorruption, JournalError
from repro.observability import MetricsRegistry, get_registry
from repro.testing import failpoints

#: File header identifying a budget journal (version 1).
MAGIC = b"GUPTWAL1"

#: ``<u32 length> <u32 crc32>`` frame header.
_FRAME = struct.Struct("<II")

#: Upper bound on one record's payload; anything larger is treated as a
#: torn/garbage length prefix rather than an allocation request.
_MAX_RECORD = 1 << 20

#: Default journal file name inside a state directory.
JOURNAL_NAME = "budget.wal"

# Event kinds.
REGISTER = "register"
RESERVE = "reserve"
COMMIT = "commit"
ROLLBACK = "rollback"
RETIRE = "retire"
RECOVERY = "recovery"
# A zero-ε replay of an already-published release (answer-cache hit).
# Informational: it proves to an auditor that the query was served
# without opening a reservation, and it carries no epsilon, so budget
# recovery ignores it entirely.
REPLAY = "replay"

_KINDS = frozenset({REGISTER, RESERVE, COMMIT, ROLLBACK, RETIRE, RECOVERY, REPLAY})
#: Records fsync'd before ``append`` returns: the ones that gate a
#: release or a registration.  The others ride on the next fsync.
_SYNCED_KINDS = frozenset({REGISTER, RESERVE, RETIRE, RECOVERY})

#: Ledger detail attached to conservatively resolved reservations.
CONSERVATIVE_DETAIL = "resolved conservatively after crash (no terminal record)"


def journal_path(state_dir: str) -> str:
    """The canonical journal location inside a state directory."""
    return os.path.join(state_dir, JOURNAL_NAME)


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class BudgetJournal:
    """Append-only writer for one journal file.

    Every :meth:`append` is flushed to the OS before it returns, and a
    ``register``, ``reserve``, ``retire`` or ``recovery`` record is also
    ``fsync``'d, which makes every earlier record durable with it (see
    the module's write-ahead discipline).  :meth:`close` fsyncs whatever
    is still unsynced.  The ``journal.fsyncs`` counter counts each fsync
    the writer issues, and nothing else.  The named failpoints in the
    write sequence (``journal.append.pre``, ``journal.append.torn``,
    ``journal.append.pre_fsync``, ``journal.append.post``) are the
    instrument the crash-matrix tests use to kill the process at each
    durability-critical instruction.
    """

    def __init__(
        self,
        path: str,
        metrics: Optional[MetricsRegistry] = None,
        fsync: bool = True,
    ):
        self._path = path
        self._metrics = metrics
        self._fsync = fsync
        self._lock = threading.Lock()
        # Records flushed to the OS but not yet fsync'd.
        self._unsynced = False
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        try:
            self._file = open(path, "ab")
            if self._file.tell() == 0:
                self._file.write(MAGIC)
                self._file.flush()
                if fsync:
                    self._sync()
                    if self._fsync_directory(directory):
                        self._registry().counter("journal.fsyncs").inc()
        except OSError as exc:
            raise JournalError(f"cannot open journal {path!r}: {exc}") from exc

    @property
    def path(self) -> str:
        return self._path

    def _registry(self) -> MetricsRegistry:
        return self._metrics or get_registry()

    def _sync(self) -> None:
        """fsync the journal file and count it (lock held or unshared)."""
        os.fsync(self._file.fileno())
        self._unsynced = False
        self._registry().counter("journal.fsyncs").inc()

    @staticmethod
    def _fsync_directory(directory: str) -> bool:
        # Make the journal's directory entry itself durable; without
        # this a crash can lose the *file*, not just its tail.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return False
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def append(
        self,
        kind: str,
        dataset: str,
        epsilon: float = 0.0,
        reservation_id: int = -1,
        query: str = "",
        detail: str = "",
    ) -> None:
        """Record one budget lifecycle event (fsync'd if it gates one)."""
        if kind not in _KINDS:
            raise JournalError(f"unknown journal record kind {kind!r}")
        record: dict[str, object] = {"kind": kind, "dataset": dataset}
        if epsilon:
            record["epsilon"] = float(epsilon)
        if reservation_id >= 0:
            record["rid"] = int(reservation_id)
        if query:
            record["query"] = query
        if detail:
            record["detail"] = detail
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        registry = self._registry()
        with self._lock:
            try:
                failpoints.hit("journal.append.pre")
                if failpoints.is_armed("journal.append.torn"):
                    # Cooperative torn-write shape: land the first half of
                    # the frame in the OS page cache, then hit the site —
                    # a crash here leaves exactly the interrupted record
                    # the recovery path must detect and truncate.
                    half = len(frame) // 2
                    self._file.write(frame[:half])
                    self._file.flush()
                    failpoints.hit("journal.append.torn")
                    self._file.write(frame[half:])
                else:
                    self._file.write(frame)
                self._file.flush()
                self._unsynced = True
                failpoints.hit("journal.append.pre_fsync")
                if self._fsync and kind in _SYNCED_KINDS:
                    self._sync()
                failpoints.hit("journal.append.post")
            except (OSError, ValueError) as exc:
                raise JournalError(
                    f"journal append failed on {self._path!r}: {exc}"
                ) from exc
        registry.counter("journal.records_written", kind=kind).inc()

    def close(self) -> None:
        """Flush, fsync any unsynced records, and close the journal file."""
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                if self._fsync and self._unsynced:
                    self._sync()
                self._file.close()

    def abandon(self) -> None:
        """Drop the file handle without a final fsync (crash simulation).

        In-process property tests use this to model a process dying at a
        quiescent point: every append already flushed itself to the OS,
        so closing the handle loses nothing — but the writer can never
        touch the file again, and no clean-shutdown record is written.
        Mid-append deaths are the crash-matrix subprocess tests' job.
        """
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "BudgetJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reader / replay
# ----------------------------------------------------------------------
@dataclass
class ScanResult:
    """Raw outcome of reading a journal file front to back."""

    records: list[dict]
    valid_bytes: int
    total_bytes: int
    torn: bool
    reason: str = ""

    @property
    def truncated_bytes(self) -> int:
        return self.total_bytes - self.valid_bytes


def scan(path: str) -> ScanResult:
    """Read every intact record; flag (don't touch) a torn tail.

    Raises :class:`JournalCorruption` when the file does not carry the
    journal magic at all — that is not a crash artifact but a wrong or
    mangled file, and pretending it is empty would resurrect budget.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return ScanResult([], 0, 0, torn=False)
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from exc

    if not data:
        return ScanResult([], 0, 0, torn=False)
    if len(data) < len(MAGIC):
        if MAGIC.startswith(data):
            return ScanResult([], 0, len(data), torn=True, reason="torn header")
        raise JournalCorruption(f"{path!r} is not a budget journal (bad magic)")
    if data[: len(MAGIC)] != MAGIC:
        raise JournalCorruption(f"{path!r} is not a budget journal (bad magic)")

    records: list[dict] = []
    offset = len(MAGIC)
    torn, reason = False, ""
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            torn, reason = True, "torn frame header"
            break
        length, checksum = _FRAME.unpack_from(data, offset)
        if length > _MAX_RECORD:
            torn, reason = True, f"implausible record length {length}"
            break
        start = offset + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length:
            torn, reason = True, "torn record payload"
            break
        if zlib.crc32(payload) != checksum:
            torn, reason = True, "checksum mismatch"
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            torn, reason = True, "undecodable payload"
            break
        if not isinstance(record, dict) or record.get("kind") not in _KINDS:
            torn, reason = True, "unknown record kind"
            break
        records.append(record)
        offset = start + length
    return ScanResult(records, offset, len(data), torn=torn, reason=reason)


@dataclass(frozen=True)
class CommittedSpend:
    """One spent epsilon as recovered from the journal."""

    epsilon: float
    query: str = ""
    detail: str = ""


@dataclass
class RecoveredDataset:
    """Replayed budget state of one dataset."""

    name: str
    total: float
    committed: list[CommittedSpend] = field(default_factory=list)
    pending: dict[int, CommittedSpend] = field(default_factory=dict)
    conservative: int = 0
    retired: bool = False

    @property
    def spent(self) -> float:
        """Correctly-rounded sum of recovered spends (``math.fsum``)."""
        return math.fsum(spend.epsilon for spend in self.committed)

    @property
    def remaining(self) -> float:
        return max(0.0, self.total - self.spent)

    def resolve_pending_conservatively(self) -> None:
        """Treat every unsettled reservation as spent (never resurrect)."""
        for spend in self.pending.values():
            self.committed.append(
                CommittedSpend(spend.epsilon, spend.query, CONSERVATIVE_DETAIL)
            )
            self.conservative += 1
        self.pending.clear()


@dataclass
class ReplayResult:
    """Everything a manager (or fsck) learns from one journal."""

    datasets: dict[str, RecoveredDataset] = field(default_factory=dict)
    retired: list[RecoveredDataset] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)
    records: int = 0
    torn: bool = False
    truncated_bytes: int = 0

    @property
    def conservative_resolutions(self) -> int:
        live = sum(d.conservative for d in self.datasets.values())
        return live + sum(d.conservative for d in self.retired)


def replay(records: Iterable[dict]) -> ReplayResult:
    """Fold a record stream into recovered per-dataset budget state."""
    result = ReplayResult()
    datasets = result.datasets
    for record in records:
        result.records += 1
        kind = record.get("kind")
        name = str(record.get("dataset", ""))
        if kind == RECOVERY:
            # Barrier: reservations older than a restart can never be
            # settled by the new process; resolve them now so reused
            # reservation ids cannot alias them.
            for state in datasets.values():
                state.resolve_pending_conservatively()
            continue
        if kind == REGISTER:
            existing = datasets.get(name)
            if existing is not None:
                # Duplicate registration without a retire in between is
                # an anomaly; keep the state that already carries spends.
                result.anomalies.append(f"duplicate register for {name!r}")
                continue
            datasets[name] = RecoveredDataset(
                name=name, total=float(record.get("epsilon", 0.0))
            )
            continue
        state = datasets.get(name)
        if state is None:
            result.anomalies.append(f"{kind} for unregistered dataset {name!r}")
            continue
        if kind == RESERVE:
            rid = int(record.get("rid", -1))
            state.pending[rid] = CommittedSpend(
                float(record.get("epsilon", 0.0)), str(record.get("query", ""))
            )
        elif kind == COMMIT:
            rid = int(record.get("rid", -1))
            held = state.pending.pop(rid, None)
            epsilon = float(record.get("epsilon", held.epsilon if held else 0.0))
            state.committed.append(
                CommittedSpend(
                    epsilon,
                    str(record.get("query", held.query if held else "")),
                    str(record.get("detail", "")),
                )
            )
        elif kind == ROLLBACK:
            rid = int(record.get("rid", -1))
            if state.pending.pop(rid, None) is None:
                result.anomalies.append(
                    f"rollback of unknown reservation {rid} on {name!r}"
                )
        elif kind == RETIRE:
            state.retired = True
            # A retire is terminal for its holds too: the budget is
            # discarded with the dataset, nothing left to resurrect.
            state.pending.clear()
            result.retired.append(datasets.pop(name))
        elif kind == REPLAY:
            # Zero-ε answer-cache replay: audit trail only.  No budget
            # moved, so recovery has nothing to fold in.
            pass
    # End of journal: anything still pending was in flight at the crash.
    for state in datasets.values():
        state.resolve_pending_conservatively()
    return result


def recover(path: str, metrics: Optional[MetricsRegistry] = None) -> ReplayResult:
    """Scan, truncate a torn tail in place, and replay a journal.

    This is the startup path: after it returns, the file ends on a
    record boundary and the result carries the conservative recovered
    state.  Torn-tail truncation (and its fsync) and conservative
    resolutions are reported through the ``journal.*`` metrics.
    """
    registry = metrics or get_registry()
    scanned = scan(path)
    if scanned.torn:
        _truncate(path, scanned.valid_bytes)
        registry.counter("journal.torn_tail_truncations").inc()
        registry.counter("journal.fsyncs").inc()
    result = replay(scanned.records)
    result.torn = scanned.torn
    result.truncated_bytes = scanned.truncated_bytes
    conservative = result.conservative_resolutions
    if conservative:
        registry.counter("journal.conservative_resolutions").inc(conservative)
    return result


def _truncate(path: str, valid_bytes: int) -> None:
    try:
        with open(path, "r+b") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    except OSError as exc:
        raise JournalError(f"cannot truncate journal {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# fsck / compaction
# ----------------------------------------------------------------------
@dataclass
class FsckReport:
    """Offline verification outcome for one journal file."""

    path: str
    exists: bool
    records: int = 0
    valid_bytes: int = 0
    total_bytes: int = 0
    torn: bool = False
    torn_reason: str = ""
    repaired: bool = False
    compacted: bool = False
    anomalies: list[str] = field(default_factory=list)
    datasets: dict[str, dict] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.torn or self.repaired

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "exists": self.exists,
            "records": self.records,
            "valid_bytes": self.valid_bytes,
            "total_bytes": self.total_bytes,
            "torn": self.torn,
            "torn_reason": self.torn_reason,
            "truncated_bytes": self.total_bytes - self.valid_bytes,
            "repaired": self.repaired,
            "compacted": self.compacted,
            "anomalies": list(self.anomalies),
            "datasets": self.datasets,
        }


def fsck(path: str, repair: bool = False, compact_file: bool = False) -> FsckReport:
    """Verify a journal; optionally truncate its torn tail and compact.

    ``repair`` truncates a torn tail to the last intact record —
    exactly what recovery would do, with no data loss before the tear.
    ``compact_file`` additionally rewrites the journal as a minimal
    snapshot (one ``register`` plus one ``commit`` per recovered spend,
    conservative resolutions materialized), atomically via a temp file.
    Offline tool: never run against a journal a live service holds open.
    """
    report = FsckReport(path=path, exists=os.path.exists(path))
    if not report.exists:
        return report
    scanned = scan(path)
    report.records = len(scanned.records)
    report.valid_bytes = scanned.valid_bytes
    report.total_bytes = scanned.total_bytes
    report.torn = scanned.torn
    report.torn_reason = scanned.reason
    if scanned.torn and (repair or compact_file):
        _truncate(path, scanned.valid_bytes)
        report.repaired = True
    result = replay(scanned.records)
    report.anomalies = result.anomalies
    for state in list(result.datasets.values()) + result.retired:
        report.datasets[state.name] = {
            "total": state.total,
            "spent": state.spent,
            "remaining": state.remaining,
            "committed": len(state.committed),
            "conservative": state.conservative,
            "retired": state.retired,
        }
    if compact_file:
        compact(path, result)
        report.compacted = True
    return report


def compact(path: str, result: Optional[ReplayResult] = None) -> int:
    """Atomically rewrite a journal as its resolved snapshot.

    Returns the number of records written.  The snapshot preserves the
    recovered spend bit-for-bit (every committed epsilon is re-emitted
    individually so ``math.fsum`` parity survives the rewrite); retired
    datasets are dropped entirely.
    """
    if result is None:
        scanned = scan(path)
        if scanned.torn:
            _truncate(path, scanned.valid_bytes)
        result = replay(scanned.records)
    directory = os.path.dirname(path) or "."
    temp_path = path + ".compact"
    written = 0
    buffer = io.BytesIO()
    buffer.write(MAGIC)

    def emit(record: dict) -> None:
        nonlocal written
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        buffer.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        written += 1

    for state in result.datasets.values():
        emit({"kind": REGISTER, "dataset": state.name, "epsilon": state.total})
        for spend in state.committed:
            record: dict[str, object] = {
                "kind": COMMIT,
                "dataset": state.name,
                "epsilon": spend.epsilon,
            }
            if spend.query:
                record["query"] = spend.query
            if spend.detail:
                record["detail"] = spend.detail
            emit(record)
    try:
        with open(temp_path, "wb") as handle:
            handle.write(buffer.getvalue())
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
        BudgetJournal._fsync_directory(directory)
    except OSError as exc:
        raise JournalError(f"cannot compact journal {path!r}: {exc}") from exc
    return written


__all__ = [
    "MAGIC",
    "JOURNAL_NAME",
    "REGISTER",
    "RESERVE",
    "COMMIT",
    "ROLLBACK",
    "RETIRE",
    "RECOVERY",
    "REPLAY",
    "CONSERVATIVE_DETAIL",
    "BudgetJournal",
    "CommittedSpend",
    "FsckReport",
    "RecoveredDataset",
    "ReplayResult",
    "ScanResult",
    "compact",
    "fsck",
    "journal_path",
    "recover",
    "replay",
    "scan",
]
