"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root (tier-1 ``pytest`` only collects ``tests/``)::

    python3 -m pytest -q perfbench

* a tiny run of each workload, untraced and traced, passes its output
  check with every query answered;
* two runs at the same seed print identical exact metrics;
* every printed metric is declared in ``BENCHMARK.json`` with its unit;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, the command fails without printing a result.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Metrics that depend only on the seed, never on timing.
EXACT = {
    0: ("epsilon_per_answer", "rel_error_p50", "ok_share"),
    1: (
        "answer_cache.hit_share",
        "journal.fsyncs_per_query",
        "blocks.per_query",
        "remote.segment_pushes_per_query",
        "remote.fallback_shards",
    ),
}


def run(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@functools.lru_cache(maxsize=None)
def result(workload: str, trace: int, attempt: int) -> dict:
    completed = run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_output_check(workload, trace):
    outcome = result(workload, trace, 0)
    assert outcome["correct"] is True
    assert outcome["failed"] == 0
    assert outcome["attempted"] >= 1
    if trace == 0:
        assert outcome["metrics"]["ok_share"]["value"] == 1.0
    else:
        assert outcome["metrics"]["remote.fallback_shards"]["value"] == 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_exact_metrics(workload, trace):
    first = result(workload, trace, 0)["metrics"]
    second = result(workload, trace, 1)["metrics"]
    for name in EXACT[trace]:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_are_declared_with_their_units(workload, trace):
    declared = {
        m["name"]: m["unit"]
        for m in SPEC["end_to_end" if trace == 0 else "per_layer"]
    }
    printed = {
        name: metric["unit"]
        for name, metric in result(workload, trace, 0)["metrics"].items()
    }
    assert printed == declared


def test_fails_without_the_program_sources(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
