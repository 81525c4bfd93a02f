"""``front_door``: the HTTP tier, journal fsyncs and answer-cache replays.

The service runs behind ``GuptHttpServer`` in its own process
(``front_door_server.py``) with the vectorized backend, a durable journal
under the checkout and the answer cache.  This process is the load
generator: 2 analyst threads, each with its own keep-alive
``GuptClient``, run a closed loop against one 50k-row dataset.  Queries
are tight-range ``mean`` / ``quantile`` / ``count_above``; every 4th
query of a client repeats that client's query 3 back, so exactly a
quarter of the answers are zero-epsilon answer-cache replays.

Block execution is small here, so the HTTP parse and poll loop,
scheduler wait, reserve/commit fsyncs and answer-cache replays dominate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from harness import Query, ReferenceReplay, query_seed, record_response
from layers import SpanLog

from repro.datasets.table import DataTable
from repro.estimators.statistics import Count, Mean, Quantile
from repro.server import protocol
from repro.server.client import GuptClient, ServerError

HERE = Path(__file__).resolve().parent
STATE_ROOT = HERE.parent / ".perfbench_state"
RECORDS = 50_000
CLIENTS = 2
EPSILON = 1.0
DATASET = "front"

#: (name, wire program, tight range, non-private program).
PROGRAMS = (
    ("mean", {"name": "mean"}, (45.0, 55.0), Mean()),
    ("quantile", {"name": "quantile", "q": 0.9}, (55.0, 70.0), Quantile(0.9)),
    (
        "count_above",
        {"name": "count_above", "threshold": 60.0},
        (0.05, 0.30),
        Count(60.0),
    ),
)


class HttpSystem:
    """One service + HTTP server in the server process, and its clients."""

    def __init__(self, workload: "Workload"):
        self._workload = workload
        reply = workload.command({"cmd": "up", "state_dir": workload.state_dir()})
        port = reply["port"]
        bootstrap = GuptClient("127.0.0.1", port)
        try:
            owner = bootstrap.enroll("owner", "owner", reply["admin"])
            analysts = [
                bootstrap.enroll("analyst", f"analyst-{i}", reply["admin"])
                for i in range(CLIENTS)
            ]
        finally:
            bootstrap.close()
        self.owner = GuptClient("127.0.0.1", port, token=owner)
        self.clients = [GuptClient("127.0.0.1", port, token=t) for t in analysts]
        self.owner.register_dataset(
            DATASET, workload.values, total_budget=1e9,
            column_names=["x"], input_ranges=[[0.0, 100.0]],
        )
        self.pids = [workload.server.pid]
        self.nodes = 0
        for client in range(CLIENTS):
            for kind in range(len(PROGRAMS)):
                name = f"warm-{client}-{kind}"
                seed = workload.seed_for(9, client, kind)
                self.issue(client, Query(name, workload.body(kind, seed, name), None))

    def issue(self, client: int, query: Query) -> None:
        connection = self.clients[client]
        try:
            query_id = connection.submit(query.spec)
            response = connection.result(query_id)
        except ServerError as refusal:
            query.ok, query.code = False, refusal.code
            return
        record_response(query, response)

    def snapshot(self) -> dict:
        return self.owner.metrics()

    def trace_on(self) -> None:
        self._workload.command({"cmd": "trace_on"})

    def trace_log(self) -> SpanLog:
        return SpanLog.restore(self._workload.command({"cmd": "trace_log"})["log"])

    def close(self) -> None:
        for client in (self.owner, *self.clients):
            client.close()
        self._workload.command({"cmd": "down"})


class Workload:
    NOMINAL_QPS = 185.0
    CHECK_SAMPLE = 24
    ROUND = CLIENTS * 24

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        data = np.clip(rng.normal(50.0, 10.0, RECORDS), 0.0, 100.0)
        self.values = data.tolist()
        self.references = {
            name: (float(program(data)),) for name, _, _, program in PROGRAMS
        }
        self._setups = 0
        self.reference = ReferenceReplay(
            {DATASET: DataTable(
                self.values, column_names=["x"], input_ranges=[(0.0, 100.0)]
            )},
            parse=protocol.parse_query_request,
        )
        # Started before any timing: interpreter start is not set-up cost.
        self.server = subprocess.Popen(
            [sys.executable, str(HERE / "front_door_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                [str(HERE), os.environ.get("PYTHONPATH", "")])},
        )
        self._read()

    # -- server process --------------------------------------------------
    def _read(self) -> dict:
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("front_door server process exited")
        return json.loads(line)

    def command(self, command: dict) -> dict:
        self.server.stdin.write(json.dumps(command) + "\n")
        self.server.stdin.flush()
        return self._read()

    def state_dir(self) -> str:
        self._setups += 1
        return str(STATE_ROOT / f"{os.getpid()}-{self._setups}")

    def close(self) -> None:
        self.reference.close()
        if self.server.poll() is None:
            try:
                self.server.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.server.stdin.close()
                self.server.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass

    # -- queries ---------------------------------------------------------
    def seed_for(self, phase: int, client: int, index: int) -> int:
        return query_seed(self.seed, phase, client * 10_007 + index)

    def body(self, kind: int, seed: int, name: str) -> dict:
        _, program, bounds, _ = PROGRAMS[kind]
        return protocol.query_request_to_wire(
            DATASET, program, [bounds], epsilon=EPSILON, seed=seed,
            query_name=name,
        )

    def setup(self) -> HttpSystem:
        return HttpSystem(self)

    def schedules(self, phase: int, count: int) -> list[list[Query]]:
        schedules = []
        for client in range(CLIENTS):
            queries: list[Query] = []
            for index in range(count // CLIENTS):
                name = f"fd-{phase}-{client}-{index}"
                if index % 4 == 3:
                    original = queries[index - 3]
                    queries.append(Query(
                        name, {**original.spec, "query_name": name},
                        original.reference_key, repeat_of=original.name,
                    ))
                    continue
                kind = index % len(PROGRAMS)
                seed = self.seed_for(phase, client, index)
                queries.append(
                    Query(name, self.body(kind, seed, name), PROGRAMS[kind][0])
                )
            schedules.append(queries)
        return schedules
