"""Shared machinery of the GUPT benchmark: load, checks, metrics, output.

Each workload module (``front_door``, ``analytics``, ``shard_plane``)
defines a ``Workload`` class; :func:`run_workload` runs it, using the
helpers here for the parts all three share:

* the closed-loop driver (each analyst thread waits for one reply before
  sending its next query);
* the calibration kernel that gauges the host's speed, so timing
  metrics can be scaled to a reference CPU (see :func:`speed`), and
  the rounds left out for hypervisor steal (:meth:`Phase.steady_rounds`);
* process CPU and peak RSS read from ``/proc`` (``psutil`` is not
  installed);
* the output check that replays a fixed sample of a run's seeded
  requests through an in-process ``serial`` service and requires
  bit-identical releases;
* the end-to-end metric set and the one-line JSON result.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

#: Clock ticks per second for the utime/stime fields of /proc/<pid>/stat.
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: How many times each run sets its system up; ``setup_s`` is the fastest.
SETUP_REPEATS = 9

#: Seconds the calibration kernel takes on the reference CPU.  Timing
#: metrics are scaled to that CPU: a value is what the run would have
#: measured had the kernel taken exactly this long.
REFERENCE_SECONDS = 0.005

_CALIBRATION_DATA = np.random.default_rng(0).random(131_072)

#: Largest share of the host's CPU time the hypervisor may steal in a
#: round that still counts for the timing metrics.
STEAL_LIMIT = 0.05


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``q`` in [0, 1]); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def query_count(seconds: float, nominal_qps: float, round_queries: int) -> int:
    """The fixed number of queries one timed phase issues.

    A run issues a query count, not a time window: a fixed count keeps the
    exact metrics (epsilon per answer, cache hit shares, error medians)
    identical for a given seed.  The count is ``seconds`` times the
    workload's nominal rate on a 2-core host, rounded to whole rounds of
    ``round_queries``, so a phase lasts about ``--seconds`` there; a
    faster program simply finishes sooner.
    """
    rounds = max(1, round(seconds * nominal_qps / round_queries))
    return rounds * round_queries


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """User plus system CPU of every thread of process ``pid``."""
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    # The command name may contain spaces; fields resume after its ')'.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over our CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / _CLOCK_TICKS


def peak_rss_mib(pid: int) -> float:
    """High-water resident set size (VmHWM) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
def calibration_kernel() -> None:
    """A fixed mix of the work the workloads do, used as a speed gauge.

    Interpreter work (a loop of dict updates), many numpy calls on tiny
    arrays (call overhead) and a few passes over a 1 MiB array (memory),
    about 5 ms in all on a 2-core virtual machine.
    """
    tally: dict[int, int] = {}
    for i in range(9_000):
        tally[i & 63] = tally.get(i & 63, 0) + i
    for start in range(0, 3_072, 16):
        chunk = _CALIBRATION_DATA[start : start + 16]
        chunk.mean()
        chunk.argmax()
    for _ in range(5):
        np.sort(_CALIBRATION_DATA[:32_768])
        (_CALIBRATION_DATA * 1.5 + 2.0).sum()


@dataclass
class Clocks:
    """``perf_counter``, the summed CPU of the measured processes and the
    host's steal time, read at one moment."""

    wall: float
    cpu: float
    steal: float


def read_clocks(pids: Sequence[int]) -> Clocks:
    return Clocks(
        time.perf_counter(), sum(cpu_seconds(pid) for pid in pids), steal_seconds()
    )


@dataclass
class Calibration:
    """One run of :func:`calibration_kernel` while the load is paused.

    ``paused`` and ``resumed`` are the clocks just before and after it,
    so the kernel's own time and CPU fall outside every round;
    ``seconds`` is the kernel's thread CPU time.
    """

    paused: Clocks
    resumed: Clocks
    seconds: float


def calibrate(pids: Sequence[int] = ()) -> Calibration:
    """Run the calibration kernel once and read the clocks around it."""
    paused = read_clocks(pids)
    started = time.thread_time()
    calibration_kernel()
    seconds = time.thread_time() - started
    return Calibration(paused, read_clocks(pids), seconds)


def speed(calibrations: Sequence[Calibration]) -> float:
    """How fast the host ran during one run, against the reference CPU.

    On a shared virtual machine the CPU's speed wanders: from one second
    to the next by up to 1.5x, and over minutes by as much again, so two
    runs of the same code minutes apart can differ by that much.  The
    calibration kernel slows down with the program.  Each run times it
    around every set-up and between the rounds of its timed phases, 40
    to 100 times in all, and scales every timing metric to the reference
    CPU by ``REFERENCE_SECONDS`` over the median kernel time.  The
    kernel's thread CPU time is used, not its wall time, and the median,
    not the mean: a 5 ms kernel that the hypervisor pauses for 20 ms
    reads 25 ms of wall time, while the program, far longer, loses a few
    percent.
    """
    return REFERENCE_SECONDS / statistics.median(c.seconds for c in calibrations)


# ----------------------------------------------------------------------
# Closed-loop load
# ----------------------------------------------------------------------
@dataclass
class Query:
    """One request of a timed phase and what came back."""

    name: str
    spec: Any
    reference_key: Any
    repeat_of: str | None = None
    latency: float = 0.0
    ok: bool = False
    value: tuple[float, ...] = ()
    epsilon_charged: float = 0.0
    cached: bool = False
    code: str = ""


@dataclass
class Round:
    """The queries of one round, with the round's wall time, the CPU of
    the measured processes and the share of the host's CPU time the
    hypervisor stole, calibrations left out."""

    queries: list[Query]
    seconds: float
    cpu_seconds: float
    steal_share: float


@dataclass
class Phase:
    """Outcome of one timed phase: its rounds, and the calibrations run
    before, between and after them."""

    queries: list[Query]
    rounds: list[Round]
    calibrations: list[Calibration]

    def steady_rounds(self) -> list[Round]:
        """The rounds the timing metrics use.

        On a shared virtual machine the hypervisor sometimes runs other
        guests on our CPUs for a while; a round where it stole more than
        ``STEAL_LIMIT`` of the CPU time is left out, but never more than
        half the rounds (then the least stolen half is kept).  Every
        query still counts for the output check and the exact metrics.
        """
        kept = [r for r in self.rounds if r.steal_share <= STEAL_LIMIT]
        if 2 * len(kept) < len(self.rounds):
            kept = sorted(self.rounds, key=lambda r: r.steal_share)
            kept = kept[: (len(self.rounds) + 1) // 2]
        return kept


def run_closed_loop(
    schedules: list[list[Query]],
    issue: Callable[[int, Query], None],
    pids: Sequence[int],
    rounds: int,
) -> Phase:
    """Drive one closed-loop phase: one thread per schedule.

    ``issue(client, query)`` sends one query, waits for its reply and
    fills in ``ok``/``value``/``epsilon_charged``/``cached``/``code``;
    the latency is measured here around it.

    Each schedule is cut into ``rounds`` equal slices.  Between rounds
    every thread waits while :func:`calibrate` runs the calibration
    kernel, so the kernel never competes with the load.
    """
    calibrations: list[Calibration] = []
    barrier = threading.Barrier(
        len(schedules), action=lambda: calibrations.append(calibrate(pids))
    )
    errors: list[BaseException] = []

    def slice_of(schedule: list[Query], index: int) -> list[Query]:
        size = len(schedule) // rounds
        return schedule[index * size : (index + 1) * size]

    def drive(client: int, schedule: list[Query]) -> None:
        try:
            for index in range(rounds):
                barrier.wait()
                for query in slice_of(schedule, index):
                    started = time.perf_counter()
                    try:
                        issue(client, query)
                    except OSError as exc:
                        query.ok = False
                        query.code = f"transport:{type(exc).__name__}"
                    query.latency = time.perf_counter() - started
            barrier.wait()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=drive, args=(client, schedule), daemon=True)
        for client, schedule in enumerate(schedules)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    cpus = os.cpu_count() or 1
    rounds_run = []
    for index, (before, after) in enumerate(zip(calibrations, calibrations[1:])):
        start, end = before.resumed, after.paused
        queries = [q for schedule in schedules for q in slice_of(schedule, index)]
        seconds = end.wall - start.wall
        rounds_run.append(Round(
            queries,
            seconds=seconds,
            cpu_seconds=end.cpu - start.cpu,
            steal_share=(end.steal - start.steal) / (seconds * cpus),
        ))
    return Phase(
        queries=[query for schedule in schedules for query in schedule],
        rounds=rounds_run,
        calibrations=calibrations,
    )


def timed_setup(build: Callable[[], Any], teardown: Callable[[Any], None]):
    """Set the system up ``SETUP_REPEATS`` times; keep the last one.

    Returns ``(system, set-up seconds, calibrations)``, with a
    calibration before each set-up and after the last.  A set-up lasts
    well under the host's second-to-second speed swings, so a single one
    is noisy; the fastest one varied least from run to run (see
    ``perfbench/README.md``).  ``set-up seconds`` lists every set-up's
    time.  Earlier systems are torn down before the next is built, so
    only one is ever live.
    """
    durations = []
    calibrations = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            teardown(system)
        calibrations.append(calibrate())
        started = time.perf_counter()
        system = build()
        durations.append(time.perf_counter() - started)
    calibrations.append(calibrate())
    return system, durations, calibrations


# ----------------------------------------------------------------------
# Output check and end-to-end metrics
# ----------------------------------------------------------------------
def check_sample(queries: Sequence[Query], size: int) -> list[Query]:
    """The fixed, evenly spaced sample of a phase the check replays."""
    step = max(1, len(queries) // size)
    return list(queries[::step][:size])


def verify(
    queries: Sequence[Query],
    replay: Callable[[Query], tuple[float, ...]],
    size: int,
) -> set[str]:
    """Names of the queries whose outputs fail the check.

    * every sampled answer must equal, bit for bit, what ``replay`` (an
      in-process ``serial`` service at the same shard count) releases for
      the same seeded request;
    * every repeat must be a zero-epsilon answer-cache replay carrying the
      original's exact bits.
    """
    by_name = {query.name: query for query in queries}
    failed = {query.name for query in queries if not query.ok}
    for query in check_sample(queries, size):
        if query.ok and tuple(replay(query)) != tuple(query.value):
            failed.add(query.name)
    for query in queries:
        if query.repeat_of is None or not query.ok:
            continue
        original = by_name[query.repeat_of]
        if (
            not query.cached
            or query.epsilon_charged != 0.0
            or tuple(query.value) != tuple(original.value)
        ):
            failed.add(query.name)
    return failed


def relative_error(value: Sequence[float], reference: Sequence[float]) -> float:
    """``||value - reference|| / ||reference||`` (Euclidean norms)."""
    diff = math.sqrt(sum((a - b) ** 2 for a, b in zip(value, reference)))
    scale = math.sqrt(sum(b * b for b in reference))
    return diff / scale


def end_to_end(
    phase: Phase,
    scale: float,
    failed: set[str],
    references: dict,
    setup_seconds: float,
    peak_rss: float,
) -> dict:
    """The nine end-to-end metrics of one untraced phase.

    Rates, latencies and CPU come from the phase's steady rounds; they
    and the set-up time are scaled by ``scale`` (see :func:`speed`) to
    the reference CPU.
    The exact metrics (epsilon, error, ok share) come from every query.
    """
    queries = phase.queries
    answered = [q for q in queries if q.ok and q.name not in failed]
    errors = [
        relative_error(q.value, references[q.reference_key]) for q in answered
    ]
    steady = phase.steady_rounds()
    timed = [q for r in steady for q in r.queries]
    timed_answered = sum(1 for q in timed if q.ok and q.name not in failed)
    latencies_ms = [q.latency * 1000.0 * scale for q in timed]
    seconds = sum(r.seconds for r in steady)
    cpu_seconds = sum(r.cpu_seconds for r in steady)
    return {
        "qps": (timed_answered / (seconds * scale), "1/s"),
        "latency_p50_ms": (percentile(latencies_ms, 0.50), "ms"),
        "latency_p90_ms": (percentile(latencies_ms, 0.90), "ms"),
        "cpu_ms_per_query": (
            cpu_seconds * 1000.0 * scale / max(1, timed_answered), "ms"
        ),
        "peak_rss_mib": (peak_rss, "MiB"),
        "setup_s": (setup_seconds * scale, "s"),
        "epsilon_per_answer": (
            sum(q.epsilon_charged for q in answered) / max(1, len(answered)),
            "eps",
        ),
        "rel_error_p50": (percentile(errors, 0.50), "1"),
        "ok_share": (len(answered) / len(queries), "1"),
    }


def result_line(queries: Sequence[Query], failed: set[str], metrics: dict) -> dict:
    """The benchmark's final JSON object."""
    return {
        "correct": not failed,
        "attempted": len(queries),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(args, workload) -> dict:
    """Set up, run the timed phase(s), check outputs; the result object.

    ``workload`` supplies ``setup()`` (returning a live system),
    ``schedules(phase, count)``, ``reference`` (a :class:`ReferenceReplay`),
    ``references`` (the non-private answers), ``NOMINAL_QPS``, ``ROUND``
    (queries per round over all threads: a whole number of the workload's
    query pattern, well under a second of load) and ``CHECK_SAMPLE``
    (requests per phase the output check replays).  A system offers
    ``issue``, ``pids`` (the service and node processes), ``nodes``,
    ``snapshot()``, ``trace_on()``, ``trace_log()`` and ``close()``.

    The untraced phase always runs first.  With ``--trace 1`` each phase
    gets half the queries: the layer wrappers are installed after the
    untraced phase and a second phase of the same size (fresh query
    seeds) runs traced; its qps against the untraced phase's gives the
    tracing overhead.  Per-layer metrics are not scaled by the host's
    speed.
    """
    import layers

    # A traced run splits its time between its two phases.
    seconds = args.seconds / 2 if args.trace else args.seconds
    count = query_count(seconds, workload.NOMINAL_QPS, workload.ROUND)
    rounds = count // workload.ROUND
    system, setups, calibrations = timed_setup(
        workload.setup, lambda s: s.close()
    )
    try:
        phase = run_closed_loop(
            workload.schedules(0, count), system.issue, system.pids, rounds
        )
        peak_rss = sum(peak_rss_mib(pid) for pid in system.pids)
        traced = None
        if args.trace:
            system.trace_on()
            before = system.snapshot()
            traced = run_closed_loop(
                workload.schedules(1, count), system.issue, system.pids, rounds
            )
            after = system.snapshot()
            log = system.trace_log()
    finally:
        system.close()

    scale = speed(calibrations + phase.calibrations)
    print(
        f"calibration kernel ran at {scale:.3f}x the reference speed; "
        f"{len(phase.rounds) - len(phase.steady_rounds())} of "
        f"{len(phase.rounds)} rounds left out for hypervisor steal; "
        f"set-ups took {', '.join(f'{s:.4f}' for s in setups)} s",
        file=sys.stderr,
    )
    replay = workload.reference.replay
    failed = verify(phase.queries, replay, workload.CHECK_SAMPLE)
    queries = list(phase.queries)
    if traced is None:
        metrics = end_to_end(
            phase, scale, failed, workload.references, min(setups), peak_rss
        )
    else:
        failed |= verify(traced.queries, replay, workload.CHECK_SAMPLE)
        queries += traced.queries

        def answered_per_second(timed: Phase) -> float:
            steady = timed.steady_rounds()
            answered = sum(
                1 for r in steady for q in r.queries
                if q.ok and q.name not in failed
            )
            return answered / sum(r.seconds for r in steady)

        metrics = layers.per_layer(
            log, traced.queries, before, after,
            traced_qps=answered_per_second(traced),
            untraced_qps=answered_per_second(phase),
            nodes=system.nodes,
        )
    return result_line(queries, failed, metrics)


def query_seed(seed: int, phase: int, index: int) -> int:
    """The noise seed of query ``index`` of ``phase`` in a run at ``seed``.

    Distinct for every query of a run, so every query misses the plan
    and answer caches unless it is a deliberate repeat.
    """
    return (seed % 1_000_000) * 1_000_003 + phase * 100_003 + index


class ReferenceReplay:
    """Replays requests through an in-process ``serial`` ``GuptService``.

    The output check's reference: ``tables`` (name -> ``DataTable``) are
    registered at ``shards`` shards on first use, and ``replay(query)``
    returns the released value for ``parse(query.spec)``, or ``()`` when
    the request is refused.
    """

    def __init__(self, tables: dict, shards: int | None = None, parse=None):
        self._tables = tables
        self._shards = shards
        self._parse = parse or (lambda spec: spec)
        self._service = None
        self._token = None

    def replay(self, query: Query) -> tuple[float, ...]:
        if self._service is None:
            from repro.observability import MetricsRegistry
            from repro.runtime.service import GuptService

            self._service = GuptService(
                rng=0, backend="serial", shards=self._shards,
                metrics=MetricsRegistry(),
            )
            owner = self._service.enroll("owner", "owner")
            for name, table in self._tables.items():
                self._service.register_dataset(
                    owner.token, name, table, total_budget=1e9
                )
            self._token = self._service.enroll("analyst").token
        response = self._service.execute(self._token, self._parse(query.spec))
        return tuple(response.value) if response.ok else ()

    def close(self) -> None:
        if self._service is not None:
            self._service.close()


def record_response(query: Query, response) -> None:
    """Copy a ``QueryResponse`` (in-process or decoded) onto ``query``."""
    query.ok = bool(response.ok)
    query.value = tuple(response.value)
    query.epsilon_charged = float(response.epsilon_charged)
    query.cached = bool(response.cached)
    query.code = response.code


class InProcessSystem:
    """A ``GuptService`` driven in this process through ``submit``/``result``.

    ``cluster`` is the shard-node cluster of a remote-backend service and
    ``manager`` its ``ComputationManager``; the node processes' CPU and
    RSS count with this process's.
    """

    def __init__(self, service, registry, token: str, cluster=None, manager=None):
        self.service = service
        self.registry = registry
        self.token = token
        self.cluster = cluster
        self.manager = manager
        # LocalNodeCluster keeps its node processes private; their pids
        # are needed to read CPU and RSS from /proc.
        node_pids = [p.pid for p in cluster._processes] if cluster else []
        self.pids = [os.getpid(), *node_pids]
        self.nodes = len(node_pids)
        self.log = None

    def issue(self, client: int, query: Query) -> None:
        handle = self.service.submit(self.token, query.spec)
        record_response(query, self.service.result(handle))

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def trace_on(self) -> None:
        import layers

        self.log = layers.SpanLog()
        layers.install(self.log)
        if self.manager is not None:
            backend = self.manager.sharded_backend
            # The remote backend's observer hooks are constructor
            # arguments; the traced phase switches them on in place.
            backend._message_observer = self.log.message_observer(
                backend.shards, backend.nodes
            )
            backend._frame_observer = self.log.observe_frames

    def trace_log(self):
        return self.log

    def close(self) -> None:
        if self.log is not None:
            self.log.uninstall()
        self.service.close()
        if self.cluster is not None:
            self.cluster.stop()
