"""Unit tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets.loaders import save_csv
from repro.datasets.table import DataTable


@pytest.fixture
def ages_csv(tmp_path, rng):
    path = tmp_path / "ages.csv"
    ages = rng.normal(40, 10, size=3000).clip(0, 150)
    save_csv(DataTable(ages, column_names=["age"]), path)
    return path


class TestInspect:
    def test_prints_shape(self, ages_csv, capsys):
        assert main(["inspect", "--data", str(ages_csv)]) == 0
        out = capsys.readouterr().out
        assert "records   : 3000" in out
        assert "age" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["inspect", "--data", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_mean_query(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "5.0", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("private mean:")[1].split()[0])
        assert 20.0 < value < 60.0
        assert "budget left   : 5" in out

    def test_median_by_column_name(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "median",
            "--column", "age", "--range", "0", "150",
            "--epsilon", "5.0", "--seed", "1",
        ])
        assert code == 0
        assert "private median:" in capsys.readouterr().out

    def test_count_above(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "count-above",
            "--threshold", "40", "--range", "0", "1",
            "--epsilon", "5.0", "--seed", "1",
        ])
        assert code == 0
        value = float(capsys.readouterr().out.split("count-above:")[1].split()[0])
        assert 0.0 <= value <= 1.0

    def test_accuracy_goal_path(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--accuracy", "0.9", "0.1",
            "--aged-fraction", "0.1", "--block-size", "30", "--seed", "1",
        ])
        assert code == 0
        assert "derived from accuracy goal" in capsys.readouterr().out

    def test_budget_exhaustion_reported(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "3.0", "--budget", "2.0",
        ])
        assert code == 1
        assert "budget exhausted" in capsys.readouterr().err

    def test_auto_block_size(self, ages_csv, capsys):
        code = main([
            "query", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "2.0",
            "--aged-fraction", "0.1", "--block-size", "auto", "--seed", "2",
        ])
        assert code == 0
        assert "x 1 records" in capsys.readouterr().out  # optimizer picks beta=1


    @pytest.mark.parametrize("command", ["query", "stats", "serve"])
    @pytest.mark.parametrize(
        "flags", [["--backend", "pool"], ["--workers", "2"]], ids=["pool", "workers"]
    )
    def test_retired_execution_flags_are_usage_errors(
        self, ages_csv, capsys, command, flags
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([
                command, "--data", str(ages_csv), "--program", "mean",
                "--range", "0", "150", "--epsilon", "1.0", *flags,
            ])
        assert exit_info.value.code == 2

    def test_integer_nodes_sets_the_default_shard_count(self, ages_csv, capsys):
        """``--nodes N`` alone plans N logical shards, like ``--shards N``."""

        def released(*flags):
            assert main([
                "query", "--data", str(ages_csv), "--program", "mean",
                "--range", "0", "150", "--epsilon", "1.0", "--seed", "4",
                *flags,
            ]) == 0
            return capsys.readouterr().out.split("private mean:")[1].split()[0]

        at_two = released("--backend", "remote", "--nodes", "2")
        assert at_two == released("--backend", "serial", "--shards", "2")
        assert at_two != released("--backend", "serial")


class TestUsage:
    """``query``, ``stats`` and ``serve`` share one usage check: exit 2."""

    @pytest.mark.parametrize("command", ["query", "stats", "serve"])
    def test_count_above_requires_threshold(self, ages_csv, capsys, command):
        code = main([
            command, "--data", str(ages_csv), "--program", "count-above",
            "--range", "0", "1", "--epsilon", "1.0",
        ])
        assert code == 2
        assert "error: count-above needs --threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["query", "stats", "serve"])
    def test_epsilon_and_accuracy_both_rejected(self, ages_csv, capsys, command):
        code = main([
            command, "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "1.0",
            "--accuracy", "0.9", "0.1",
        ])
        assert code == 2
        assert (
            "error: pass exactly one of --epsilon / --accuracy"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["query", "stats", "serve"])
    def test_epsilon_or_accuracy_required(self, ages_csv, capsys, command):
        code = main([
            command, "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150",
        ])
        assert code == 2
        assert (
            "error: pass exactly one of --epsilon / --accuracy"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["query", "stats", "serve"])
    def test_program_and_range_required(self, ages_csv, capsys, command):
        code = main([command, "--data", str(ages_csv), "--epsilon", "1.0"])
        assert code == 2
        assert (
            "error: --program and --range required here"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", ["query", "stats", "serve", "serve-http"])
    @pytest.mark.parametrize("flags", [
        ["--nodes", "2"],
        ["--backend", "vectorized", "--nodes", "127.0.0.1:1"],
        ["--backend", "serial", "--node-secret", "s3cret"],
        ["--shards", "0"],
    ])
    def test_execution_flags_the_manager_refuses(
        self, ages_csv, capsys, command, flags
    ):
        """Node flags off ``--backend remote`` are refused, not ignored."""
        http = ["--http", "127.0.0.1:0", "--http-seconds", "0"]
        code = main([
            command.split("-")[0], "--data", str(ages_csv), "--program",
            "mean", "--range", "0", "150", "--epsilon", "1.0",
            *(http if command == "serve-http" else []), *flags,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestStats:
    def test_stats_prints_observability_snapshot(self, ages_csv, capsys):
        code = main([
            "stats", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "1.5", "--budget", "5.0",
            "--seed", "1",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)

        # Phase timings for the whole request path.
        for phase in ("runtime.run", "runtime.resolve", "runtime.sample",
                      "runtime.aggregate", "runtime.range_estimation"):
            assert snapshot["histograms"][f'{phase}.seconds{{dataset="cli"}}']["count"] >= 1

        # Block success/fallback/kill counts.
        counters = snapshot["counters"]
        assert counters["blocks.executed"] >= 1
        assert counters["blocks.success"] + counters["blocks.fallback"] == (
            counters["blocks.executed"]
        )
        assert counters["blocks.killed"] == 0

        # Per-dataset budget burn-down.
        gauges = snapshot["gauges"]
        assert gauges['budget.epsilon_spent{dataset="cli"}'] == pytest.approx(1.5)
        assert gauges['budget.epsilon_remaining{dataset="cli"}'] == pytest.approx(3.5)

        # And the trace itself.
        assert any(s["name"] == "runtime.run" for s in snapshot["spans"])

    def test_stats_registry_is_per_invocation(self, ages_csv, capsys):
        snapshots = []
        for _ in range(2):
            assert main([
                "stats", "--data", str(ages_csv), "--program", "mean",
                "--range", "0", "150", "--epsilon", "1.0", "--seed", "1",
            ]) == 0
            snapshots.append(json.loads(capsys.readouterr().out))
        # Each snapshot describes only its own query — nothing accumulates
        # across invocations or leaks into the process default.
        for snapshot in snapshots:
            assert snapshot["counters"]['runtime.queries{dataset="cli"}'] == 1


class TestServe:
    def test_serve_exact_fit_budget(self, ages_csv, capsys):
        # 4 analysts x 4 queries at epsilon 0.5 against a budget of 4.0:
        # exactly 8 commits, the rest refused, queue drained.
        code = main([
            "serve", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "0.5", "--budget", "4.0",
            "--analysts", "4", "--queries", "4",
            "--max-inflight", "16", "--queue-depth", "32", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "traffic       : 4 analysts x 4 queries" in out
        assert "completed     : 8 ok, 8 refused" in out
        assert "epsilon spent : 4 of 4 (8 ledger entries)" in out
        assert "queue depth   : 0 after drain" in out

    def test_serve_admission_control_rejects_overflow(self, ages_csv, capsys):
        # A queue one deep with one analyst hammering it: some queries
        # must be refused at admission, yet every one resolves and the
        # books still balance.
        code = main([
            "serve", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "0.25", "--budget", "50.0",
            "--analysts", "2", "--queries", "8",
            "--max-inflight", "2", "--queue-depth", "1", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed     : " in out
        assert "queue depth   : 0 after drain" in out

    def test_serve_validates_traffic_shape(self, ages_csv, capsys):
        code = main([
            "serve", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "0.5", "--analysts", "0",
        ])
        assert code == 2

    def test_serve_simulated_traffic_on_sharded_backend(self, ages_csv, capsys):
        """The in-process load harness runs its queries through the
        remote shard backend when asked to."""
        code = main([
            "serve", "--data", str(ages_csv), "--program", "mean",
            "--range", "0", "150", "--epsilon", "0.5", "--budget", "4.0",
            "--backend", "remote", "--shards", "2", "--nodes", "2",
            "--analysts", "2", "--queries", "2",
            "--max-inflight", "8", "--queue-depth", "16", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed     : 4 ok, 0 refused" in out
        assert "queue depth   : 0 after drain" in out


class TestServeHttp:
    """``serve --http`` must honor the execution flags end-to-end.

    Each matrix entry stands up the real front door via ``main``, runs
    one seeded query over the wire, and the released value must be
    bit-identical across backends: the execution flags reach
    ``GuptService`` (a dropped ``--shards`` would change the plan and
    the bits; a dropped ``--backend`` would be invisible — so the matrix
    also includes a shard-count variant that MUST differ).
    """

    MATRIX = [
        ["--backend", "serial", "--shards", "2"],
        ["--backend", "vectorized", "--shards", "2"],
        ["--backend", "remote", "--nodes", "2"],
    ]

    def _serve_and_query(self, ages_csv, extra):
        """Serve over HTTP in a subprocess on an *ephemeral* port.

        Anti-flake convention (see DESIGN.md): the server binds port 0
        and announces the kernel-chosen port on stdout after the listener
        is up; the test blocks on that line instead of probing a
        pre-picked port (a TOCTOU race) or polling ``healthz`` in a
        sleep loop.
        """
        import os
        import subprocess
        import sys

        from repro.server import protocol
        from repro.server.client import GuptClient

        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p
            ),
        }
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro",
                "serve", "--data", str(ages_csv),
                "--http", "127.0.0.1:0",
                "--http-seconds", "4", "--admin-token", "matrix-admin",
                "--budget", "10.0", "--seed", "1", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            # Blocks until the server prints its bound address — which
            # happens strictly after the listener accepts connections.
            line = process.stdout.readline().strip()
            assert line.startswith("front door"), f"unexpected announce: {line!r}"
            port = int(line.rsplit(":", 1)[1])
            client = GuptClient("127.0.0.1", port)
            try:
                token = client.enroll("analyst", "matrix", "matrix-admin")
                analyst = GuptClient("127.0.0.1", port, token=token)
                try:
                    body = protocol.query_request_to_wire(
                        "cli", {"name": "mean"}, [(0.0, 150.0)],
                        epsilon=0.5, seed=7,
                    )
                    response = analyst.result(analyst.submit(body), timeout=15)
                finally:
                    analyst.close()
            finally:
                client.close()
            code = process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=5.0)
        assert code == 0, f"serve --http exited {code} for {extra}"
        assert response is not None and response.ok, response
        return tuple(response.value)

    def test_http_flag_matrix_is_bit_identical(self, ages_csv, capsys):
        released = {
            " ".join(extra): self._serve_and_query(ages_csv, extra)
            for extra in self.MATRIX
        }
        assert len(set(released.values())) == 1, released

    def test_http_shard_count_reaches_the_plan(self, ages_csv, capsys):
        """--shards is forwarded, not decorative: changing it alone
        changes the released bits."""
        at_two = self._serve_and_query(
            ages_csv, ["--backend", "remote", "--shards", "2"]
        )
        at_four = self._serve_and_query(
            ages_csv, ["--backend", "remote", "--shards", "4"]
        )
        assert at_two != at_four
