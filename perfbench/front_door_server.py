"""Server process of the ``front_door`` workload.

Hosts a ``GuptService`` (vectorized backend, durable journal, answer
cache) behind ``GuptHttpServer`` in a process of its own, so the load
generator's threads never contend with it for the interpreter lock.
It is started by ``perfbench/front_door.py`` and driven by one JSON
command per line on stdin, answering one JSON line on stdout:

``{"cmd": "up", "state_dir": D}``  build a service and server -> ``{"port", "admin"}``
``{"cmd": "down"}``                stop them and delete ``D``
``{"cmd": "trace_on"}``            install the layer wrappers
``{"cmd": "trace_log"}``           -> ``{"log": <SpanLog.export()>}``
``{"cmd": "exit"}``                stop everything and exit
"""

from __future__ import annotations

import json
import shutil
import sys

import layers

from repro.observability import MetricsRegistry
from repro.runtime.service import GuptService
from repro.server.http import GuptHttpServer

ANSWER_CACHE_ENTRIES = 1024


class Host:
    def __init__(self):
        self.service = None
        self.server = None
        self.state_dir = None
        self.log = None

    def up(self, state_dir: str) -> dict:
        self.state_dir = state_dir
        registry = MetricsRegistry()
        self.service = GuptService(
            rng=0,
            metrics=registry,
            backend="vectorized",
            state_dir=state_dir,
            answer_cache_size=ANSWER_CACHE_ENTRIES,
            scheduler_workers=2,
        )
        self.server = GuptHttpServer(self.service, metrics=registry)
        _, port = self.server.start()
        return {"port": port, "admin": self.server.admin_token}

    def down(self) -> dict:
        if self.log is not None:
            self.log.uninstall()
            self.log = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.service is not None:
            self.service.close()
            self.service = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None
        return {"ok": True}

    def trace_on(self) -> dict:
        self.log = layers.SpanLog()
        layers.install(self.log)
        return {"ok": True}

    def trace_log(self) -> dict:
        return {"log": self.log.export()}


def main() -> int:
    host = Host()
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "exit":
                break
            if name == "up":
                reply = host.up(command["state_dir"])
            else:
                reply = {
                    "down": host.down,
                    "trace_on": host.trace_on,
                    "trace_log": host.trace_log,
                }[name]()
            print(json.dumps(reply), flush=True)
    finally:
        host.down()
    return 0


if __name__ == "__main__":
    sys.exit(main())
