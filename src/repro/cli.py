"""Command-line interface: private queries over CSV files.

Gives data owners and analysts a no-code path through the platform::

    python -m repro inspect  --data ages.csv
    python -m repro query    --data ages.csv --program mean \\
        --range 0 150 --epsilon 1.0 --budget 5.0
    python -m repro query    --data ages.csv --program median \\
        --range 0 150 --accuracy 0.9 0.1 --aged-fraction 0.1 --budget 5.0
    python -m repro stats    --data ages.csv --program mean \\
        --range 0 150 --epsilon 1.0 --budget 5.0
    python -m repro serve    --data ages.csv --program mean \\
        --range 0 150 --epsilon 0.5 --budget 5.0 \\
        --analysts 4 --queries 8 --max-inflight 4 --queue-depth 16

The ``query`` command registers the file as a dataset with the given
total budget, runs one program under GUPT-tight, and prints the private
answer plus the release metadata.  ``stats`` takes the same arguments,
runs the same query against its own metrics registry, and prints the
full observability snapshot (phase timings, block success/fallback/kill
counts, budget burn-down) as JSON — every value release-safe by
construction (see :mod:`repro.observability`).

``serve`` stands up the full hosted service (Figure 2) in-process and
drives it with concurrent analyst threads submitting through the query
scheduler, then prints the traffic outcome and the scheduler telemetry:
a one-command demonstration that transactional budget accounting plus
admission control hold up under contention.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro.exceptions import GuptError
from repro.observability import MetricsRegistry

# The coordinator tier (accounting, datasets, engine, computation
# manager) is imported inside the commands that use it: ``shard-node``
# is handed to the node tier before any of it loads (see main()).

#: ``--program`` name -> estimator class in repro.estimators.statistics.
PROGRAMS = {
    "mean": "Mean",
    "median": "Median",
    "variance": "Variance",
    "std": "StandardDeviation",
}


class _UsageError(Exception):
    """A flag combination the CLI refuses; :func:`main` exits 2."""


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``query`` and ``stats`` commands."""
    from repro.runtime.computation_manager import BACKENDS

    parser.add_argument("--data", required=True, help="path to a CSV file")
    parser.add_argument(
        "--program", choices=sorted(PROGRAMS) + ["count-above"],
        help="statistic to compute (required unless 'serve --http', "
             "where analysts name programs over the wire)",
    )
    parser.add_argument("--column", default=0, help="column name or index (default 0)")
    parser.add_argument(
        "--range", nargs=2, type=float, metavar=("LO", "HI"),
        help="non-sensitive output range (required unless 'serve --http')",
    )
    parser.add_argument("--epsilon", type=float, help="privacy budget for this query")
    parser.add_argument(
        "--accuracy", nargs=2, type=float, metavar=("RHO", "DELTA"),
        help="accuracy goal instead of epsilon (needs --aged-fraction)",
    )
    parser.add_argument("--budget", type=float, default=10.0, help="dataset total budget")
    parser.add_argument(
        "--aged-fraction", type=float, default=0.0,
        help="fraction of records treated as privacy-expired (aging model)",
    )
    parser.add_argument("--block-size", default=None, help="int, or 'auto'")
    parser.add_argument("--threshold", type=float, help="threshold for count-above")
    parser.add_argument("--seed", type=int, default=None, help="rng seed")
    parser.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=None,
        help="execution backend (default: serial, which runs a "
             "built-in estimator in one fused call over the stacked "
             "blocks and any other program block by block; vectorized "
             "= serial; remote = shard nodes with shard-local block plans and a "
             "partials-only combine, bit-identical to serial for the "
             "same --shards — see --nodes and the shard-node command)",
    )
    parser.add_argument(
        "--nodes", default=None, metavar="N|HOST:PORT,...",
        help="with --backend remote (a usage error otherwise): a "
             "comma-separated list of running shard-node addresses "
             "(start 'repro shard-node' processes for multi-process "
             "sharding on one box), or an integer to spawn that many "
             "node threads in this process (default: one)",
    )
    parser.add_argument(
        "--node-secret", default=None, metavar="SECRET",
        help="with --backend remote (a usage error otherwise): shared "
             "secret for the mutual handshake authentication shard "
             "nodes may require",
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="S",
        help="logical shard count of the sharded plan protocol — a "
             "public plan parameter the released bits depend on (like "
             "--block-size), honored by every backend; default 1, or "
             "one shard per node under --backend remote with an "
             "integer --nodes",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable budget journal directory: spent epsilon survives "
             "restarts and crashes (the dataset re-registers against its "
             "recovered budget; totals must match across invocations)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="GUPT reproduction: private queries over CSV data"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    inspect = commands.add_parser("inspect", help="describe a CSV dataset")
    inspect.add_argument("--data", required=True, help="path to a CSV file")

    query = commands.add_parser(
        "query", aliases=["run"], help="run one private query"
    )
    _add_query_arguments(query)

    stats = commands.add_parser(
        "stats",
        help="run one private query and print the observability snapshot",
    )
    _add_query_arguments(stats)
    stats.add_argument(
        "--indent", type=int, default=2, help="JSON indentation (default 2)"
    )

    serve = commands.add_parser(
        "serve",
        help="run the hosted service: --http exposes it over the network "
             "front door; without --http it is driven by simulated "
             "concurrent analyst threads in-process",
    )
    _add_query_arguments(serve)
    serve.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="serve the HTTP front door on this address (port 0 picks "
             "an ephemeral port) instead of simulating traffic",
    )
    serve.add_argument(
        "--http-seconds", type=float, default=None, metavar="SECONDS",
        help="with --http: serve for this long then exit cleanly "
             "(default: until interrupted)",
    )
    serve.add_argument(
        "--admin-token", default=None, metavar="TOKEN",
        help="with --http: bearer token guarding /v1/enroll "
             "(default: freshly generated and printed)",
    )
    serve.add_argument(
        "--analysts", type=int, default=4,
        help="concurrent analyst threads (default 4)",
    )
    serve.add_argument(
        "--queries", type=int, default=4, metavar="N",
        help="queries each analyst submits (default 4)",
    )
    serve.add_argument(
        "--scheduler-workers", type=int, default=4,
        help="scheduler dispatcher threads (default 4)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8,
        help="per-analyst in-flight query limit (default 8)",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=64,
        help="global scheduler queue capacity (default 64)",
    )
    serve.add_argument(
        "--query-timeout", type=float, default=None, metavar="SECONDS",
        help="per-query timeout; omit for none",
    )
    serve.add_argument(
        "--answer-cache", type=int, default=None, metavar="ENTRIES",
        help="noisy-answer cache capacity: identical seeded queries "
             "replay the already-published release at zero marginal "
             "epsilon (default: disabled)",
    )

    # Listed for --help only: main() hands ``shard-node`` and its
    # arguments to repro.runtime.remote.node.main before parsing.
    commands.add_parser(
        "shard-node",
        help="run one shard-node worker process: binds HOST:PORT (port 0 "
             "picks an ephemeral port, announced on stdout as "
             "'LISTENING HOST PORT') and serves shard executions to a "
             "'--backend remote' coordinator until shut down; see "
             "'repro shard-node --help'",
    )

    fsck = commands.add_parser(
        "fsck",
        help="verify a budget journal; optionally repair a torn tail "
             "and compact it (offline only — stop the service first)",
    )
    fsck.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="state directory holding the journal",
    )
    fsck.add_argument(
        "--journal", default=None, metavar="NAME",
        help="journal file name inside the state directory "
             "(default budget.wal; streams use stream.wal)",
    )
    fsck.add_argument(
        "--repair", action="store_true",
        help="truncate a torn tail to the last intact record",
    )
    fsck.add_argument(
        "--compact", action="store_true",
        help="rewrite the journal as its resolved snapshot "
             "(implies --repair; atomic)",
    )
    fsck.add_argument(
        "--indent", type=int, default=2, help="JSON indentation (default 2)"
    )
    return parser


def _resolve_column(argument) -> str | int:
    try:
        return int(argument)
    except (TypeError, ValueError):
        return str(argument)


def _resolve_block_size(argument):
    if argument is None or argument == "auto":
        return argument
    return int(argument)


def _resolve_nodes(argument):
    """``--nodes``: an int spawns local nodes, addresses join a cluster."""
    if argument is None:
        return None
    text = str(argument).strip()
    if text.isdigit():
        return int(text)
    return [part.strip() for part in text.split(",") if part.strip()]


def _computation_manager(args, metrics: MetricsRegistry | None = None):
    """``--backend/--shards/--nodes/--node-secret`` as one manager.

    The manager checks its own options; one it refuses (say ``--nodes``
    without ``--backend remote``) is a usage error.
    """
    from repro.runtime.computation_manager import ComputationManager

    try:
        return ComputationManager(
            backend=args.backend, shards=args.shards,
            nodes=_resolve_nodes(args.nodes), node_secret=args.node_secret,
            metrics=metrics,
        )
    except ValueError as exc:
        raise _UsageError(exc) from None


def run_inspect(args) -> int:
    from repro.datasets.loaders import load_csv

    table = load_csv(args.data)
    print(f"records   : {table.num_records}")
    print(f"dimensions: {table.num_dimensions}")
    print(f"columns   : {', '.join(table.column_names)}")
    return 0


def _build_program(args, column_index: int):
    from repro.estimators import statistics

    if args.program == "count-above":
        if args.threshold is None:
            raise GuptError("count-above needs --threshold")
        return statistics.Count(threshold=args.threshold, column=column_index)
    return getattr(statistics, PROGRAMS[args.program])(column=column_index)


def _execute_query(args, computation, metrics: MetricsRegistry | None = None):
    """Shared query path: returns ``(result, manager)`` or raises."""
    from repro.accounting.manager import DatasetManager
    from repro.core.budget_estimation import AccuracyGoal
    from repro.core.gupt import GuptRuntime
    from repro.core.range_estimation import TightRange
    from repro.datasets.loaders import load_csv

    table = load_csv(args.data)
    column = _resolve_column(args.column)
    column_index = table._column_index(column)
    program = _build_program(args, column_index)

    manager = DatasetManager(metrics=metrics, state_dir=args.state_dir)
    manager.register(
        "cli", table, total_budget=args.budget,
        aged_fraction=args.aged_fraction, rng=args.seed,
    )
    runtime = GuptRuntime(manager, computation, rng=args.seed, metrics=metrics)

    kwargs = {}
    if args.epsilon is not None:
        kwargs["epsilon"] = args.epsilon
    else:
        rho, delta = args.accuracy
        kwargs["accuracy"] = AccuracyGoal(rho=rho, delta=delta)

    try:
        result = runtime.run(
            "cli",
            program,
            TightRange((args.range[0], args.range[1])),
            block_size=_resolve_block_size(args.block_size),
            query_name=args.program,
            **kwargs,
        )
    finally:
        runtime.close()
        manager.close()
    return result, manager


def _query_usage_error(args) -> bool:
    """Print the first usage error of a query-running command, if any.

    ``query``, ``stats`` and ``serve`` share these checks: --program and
    --range present, exactly one of --epsilon / --accuracy, and a
    --threshold for count-above.
    """
    missing = [
        flag for flag, value in (("--program", args.program), ("--range", args.range))
        if value is None
    ]
    if missing:
        error = f"{' and '.join(missing)} required here"
    elif (args.epsilon is None) == (args.accuracy is None):
        error = "pass exactly one of --epsilon / --accuracy"
    elif args.program == "count-above" and args.threshold is None:
        error = "count-above needs --threshold"
    else:
        return False
    print(f"error: {error}", file=sys.stderr)
    return True


def run_query(args) -> int:
    if _query_usage_error(args):
        return 2

    with _computation_manager(args) as computation:
        result, manager = _execute_query(args, computation)
    print(f"private {args.program}: {result.scalar():.6g}")
    print(f"epsilon spent : {result.epsilon_total:.6g}"
          + (" (derived from accuracy goal)" if result.epsilon_was_estimated else ""))
    print(f"blocks        : {result.num_blocks} x {result.block_size} records")
    print(f"noise scale   : {result.noise_scales[0]:.6g}")
    print(f"budget left   : {manager.remaining_budget('cli'):.6g}")
    return 0


def run_stats(args) -> int:
    if _query_usage_error(args):
        return 2

    # A fresh registry per invocation: the snapshot describes exactly
    # this query, not whatever else the process may have run.
    registry = MetricsRegistry()
    with _computation_manager(args, registry) as computation:
        _execute_query(args, computation, metrics=registry)
    print(registry.to_json(indent=args.indent))
    return 0


def run_serve_http(args) -> int:
    """Stand up the real network front door over one CSV dataset."""
    import time

    from repro.datasets.loaders import load_csv
    from repro.runtime.service import ANALYST, OWNER, GuptService
    from repro.server.http import GuptHttpServer

    host, _, port_text = args.http.rpartition(":")
    if not host or not port_text:
        print("error: --http needs HOST:PORT", file=sys.stderr)
        return 2
    try:
        port = int(port_text)
    except ValueError:
        print(f"error: bad port {port_text!r}", file=sys.stderr)
        return 2

    table = load_csv(args.data)
    registry = MetricsRegistry()
    service = GuptService(
        _computation_manager(args, registry),
        metrics=registry,
        rng=args.seed,
        scheduler_workers=args.scheduler_workers,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        query_timeout=args.query_timeout,
        state_dir=args.state_dir,
        answer_cache_size=args.answer_cache,
    )
    server = GuptHttpServer(
        service, host=host, port=port,
        admin_token=args.admin_token, metrics=registry,
        state_dir=args.state_dir,
    )
    try:
        owner = service.enroll(OWNER, "cli-owner")
        analyst = service.enroll(ANALYST, "cli-analyst")
        service.register_dataset(
            owner.token, "cli", table,
            total_budget=args.budget, aged_fraction=args.aged_fraction,
        )
        bound_host, bound_port = server.start()
        print(f"front door    : http://{bound_host}:{bound_port}")
        print(f"admin token   : {server.admin_token}")
        print(f"owner token   : {owner.token}")
        print(f"analyst token : {analyst.token}")
        print(f"dataset       : cli ({table.num_records} records, "
              f"budget {args.budget:g})")
        sys.stdout.flush()
        try:
            if args.http_seconds is not None:
                time.sleep(args.http_seconds)
            else:  # pragma: no cover - interactive mode
                while True:
                    time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive mode
            pass
    finally:
        server.stop()
        service.close()
    return 0


def run_serve(args) -> int:
    if args.http is not None:
        return run_serve_http(args)
    if _query_usage_error(args):
        return 2
    if args.analysts < 1 or args.queries < 1:
        print("error: --analysts and --queries must be >= 1", file=sys.stderr)
        return 2

    from repro.core.budget_estimation import AccuracyGoal
    from repro.core.range_estimation import TightRange
    from repro.datasets.loaders import load_csv
    from repro.runtime.service import ANALYST, OWNER, GuptService, QueryRequest

    table = load_csv(args.data)
    column_index = table._column_index(_resolve_column(args.column))
    program = _build_program(args, column_index)
    accuracy = AccuracyGoal(rho=args.accuracy[0], delta=args.accuracy[1]) if args.accuracy else None

    registry = MetricsRegistry()
    service = GuptService(
        _computation_manager(args, registry),
        metrics=registry,
        rng=args.seed,
        scheduler_workers=args.scheduler_workers,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        query_timeout=args.query_timeout,
        state_dir=args.state_dir,
        answer_cache_size=args.answer_cache,
    )
    try:
        owner = service.enroll(OWNER, "owner")
        service.register_dataset(
            owner.token, "cli", table,
            total_budget=args.budget, aged_fraction=args.aged_fraction,
        )
        analysts = [
            service.enroll(ANALYST, f"analyst-{i}") for i in range(args.analysts)
        ]

        outcomes: dict[str, list] = {p.name: [] for p in analysts}

        def drive(index: int, principal) -> None:
            """One analyst: submit every query up front, then collect."""
            handles = []
            for i in range(args.queries):
                seed = (
                    args.seed * 100_003 + index * 1_009 + i
                    if args.seed is not None
                    else None
                )
                handles.append(service.submit(principal.token, QueryRequest(
                    dataset="cli",
                    program=program,
                    range_strategy=TightRange((args.range[0], args.range[1])),
                    epsilon=args.epsilon,
                    accuracy=accuracy,
                    block_size=_resolve_block_size(args.block_size),
                    query_name=f"{principal.name}/{args.program}-{i}",
                    seed=seed,
                )))
            outcomes[principal.name] = [service.result(h) for h in handles]

        threads = [
            threading.Thread(target=drive, args=(i, p), name=p.name)
            for i, p in enumerate(analysts)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        responses = [r for rs in outcomes.values() for r in rs]
        succeeded = [r for r in responses if r.ok]
        remaining = service.describe_dataset(owner.token, "cli").remaining_budget
        audit = service.ledger_entries(owner.token, "cli")
    finally:
        service.close()

    snapshot = registry.snapshot()
    counters = snapshot.get("counters", {})

    def counter(name: str) -> int:
        return int(sum(v for k, v in counters.items() if k.split("{")[0] == name))

    print(f"traffic       : {args.analysts} analysts x {args.queries} queries")
    print(f"completed     : {len(succeeded)} ok, {len(responses) - len(succeeded)} refused")
    print(f"epsilon spent : {args.budget - remaining:.6g} of {args.budget:.6g}"
          f" ({len(audit)} ledger entries)")
    print(f"scheduler     : rejections={counter('scheduler.admission_rejections')}"
          f" timeouts={counter('scheduler.timeout_kills')}"
          f" rollbacks={counter('scheduler.reservation_rollbacks')}")
    print(f"queue depth   : {int(snapshot['gauges']['scheduler.queue_depth'])} after drain")
    return 0


def run_fsck(args) -> int:
    import json
    import os

    from repro.accounting.journal import fsck, journal_path

    path = (
        os.path.join(args.state_dir, args.journal)
        if args.journal
        else journal_path(args.state_dir)
    )
    report = fsck(path, repair=args.repair, compact_file=args.compact)
    print(json.dumps(report.to_dict(), indent=args.indent, sort_keys=True))
    if not report.exists:
        print(f"error: no journal at {path}", file=sys.stderr)
        return 1
    return 0 if report.clean and not report.anomalies else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["shard-node"]:
        from repro.runtime.remote.node import main as shard_node_main

        return shard_node_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return run_inspect(args)
        if args.command == "stats":
            return run_stats(args)
        if args.command == "serve":
            return run_serve(args)
        if args.command == "fsck":
            return run_fsck(args)
        return run_query(args)
    except GuptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
