"""Shared result schema for the ``BENCH_*.json`` artifacts.

Two benchmarks here publish a JSON report at the repo root — Figure 6's
backend sweep (``BENCH_scalability.json``) and the observability
overhead bench (``BENCH_observability.json``) — and CI uploads them as
artifacts; comparing runs across commits only works if each report
says *what* ran and *where*.  Both go through :func:`write_bench`,
which stamps a common envelope:

``schema_version``
    Version of this envelope (bump when a shared key changes meaning).
``bench``
    Stable benchmark identifier (CI dispatches on it).
``mode``
    ``"smoke"`` (CI-sized) or ``"full"`` — chosen by a bench's scale
    variable where it has one (``SCALABILITY_SCALE=smoke`` for Figure 6).
``git_rev`` / ``git_dirty``
    Commit under test, and whether the tree had local modifications.
``generated_at``
    UTC timestamp (ISO 8601) of the run.
``host``
    Machine facts that bound any speedup claim — ``cpu_count``,
    platform, Python and NumPy versions.
``params``
    The benchmark's own knobs (sizes, seeds, epsilon, ...).

Benchmark-specific payload keys stay at the *top level*, merged after
the envelope, so CI validation snippets read them directly
(``report["results"]``, ``report["identical_released_values"]``, ...).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

SCHEMA_VERSION = 1

#: Repo root — the directory the BENCH_*.json artifacts land in.
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_path(name: str) -> Path:
    """Canonical artifact path for one benchmark: ``BENCH_<name>.json``."""
    return REPO_ROOT / f"BENCH_{name}.json"


def _git_revision() -> tuple[str, bool]:
    """The checked-out commit and whether the tree is dirty.

    Benchmarks must stay runnable from a tarball (no ``.git``) and in
    sandboxes without a ``git`` binary, so any failure degrades to
    ``("unknown", False)`` rather than failing the run.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return "unknown", False
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return rev.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown", False


def bench_envelope(
    name: str, mode: str, params: dict | None = None, bench: str | None = None
) -> dict:
    """The shared metadata envelope every report starts from."""
    rev, dirty = _git_revision()
    return {
        "schema_version": SCHEMA_VERSION,
        # ``bench`` ids predate the shared schema and CI dispatches on
        # them, so they may differ from the artifact file name.
        "bench": bench or name,
        "mode": mode,
        "git_rev": rev,
        "git_dirty": dirty,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "params": dict(params or {}),
    }


def write_bench(
    name: str,
    mode: str,
    payload: dict,
    params: dict | None = None,
    bench: str | None = None,
) -> Path:
    """Write ``BENCH_<name>.json``: shared envelope + bench payload.

    ``payload`` keys merge at the top level (after the envelope, so a
    benchmark cannot silently clobber ``schema_version`` readers rely
    on — colliding keys are a bug, flagged loudly here).  ``bench``
    overrides the envelope's benchmark id when it predates the file
    naming convention.
    """
    envelope = bench_envelope(name, mode, params, bench=bench)
    collisions = set(envelope) & set(payload)
    if collisions:
        raise ValueError(
            f"bench payload must not override envelope keys: {sorted(collisions)}"
        )
    path = bench_path(name)
    path.write_text(json.dumps({**envelope, **payload}, indent=2) + "\n")
    return path
