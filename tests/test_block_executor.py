"""The one block executor, seen from the coordinator and from a shard node.

``repro.runtime.vectorized.run_blocks`` runs the blocks of both
``ComputationManager.run_blocks_collected`` and the shard kernel
``execute_shard_rows``.  These tests hold the two layers to the same
answers block for block, pin what the node kernel must keep (a fresh
program instance per block, and a failed block rather than an exception
when no fresh instance can be made), and pin the chamber-path telemetry
and the manager's refusal of options it would otherwise ignore.
"""

import pickle

import numpy as np
import pytest

from repro.core.blocks import draw_sharded_plan
from repro.estimators.statistics import Mean
from repro.observability import MetricsRegistry
from repro.runtime.computation_manager import ComputationManager
from repro.runtime.remote import RemoteShardBackend
from repro.runtime.sandbox import InProcessChamber
from repro.runtime.shard import ShardQuerySpec, execute_shard_rows
from repro.runtime.timing import TimingDefense

FALLBACK = (-1.0,)
VALUES = np.random.default_rng(8).uniform(0.0, 10.0, size=(120, 2))
GEOMETRY = dict(block_size=10, resampling_factor=2, plan_seed=77)


def block_mean(block):
    """A per-block-only program: no batch form at all."""
    return float(np.mean(block[:, 0]))


class RaisingBatch:
    def __call__(self, block):
        return float(np.mean(block[:, 0]))

    def run_batch(self, stacked):
        raise RuntimeError("broken batch form")


class NonFiniteRow:
    def __call__(self, block):
        return float(np.mean(block[:, 0]))

    def run_batch(self, stacked):
        out = np.mean(stacked[:, :, 0], axis=1)
        out[3] = np.inf
        return out


class HostileLookup:
    def __call__(self, block):
        return float(np.mean(block[:, 0]))

    @property
    def run_batch(self):
        raise RuntimeError("hostile run_batch lookup")


class CountsCalls:
    """Returns how many blocks this instance has seen."""

    def __init__(self):
        self.calls = 0

    def __call__(self, block):
        self.calls += 1
        return float(self.calls)


class ShipsOnce:
    """Pickles once; the copy it unpickles to refuses pickle and deepcopy."""

    def __init__(self, shipped=False):
        self.shipped = shipped

    def __reduce__(self):
        if self.shipped:
            raise TypeError("this instance refuses to be copied")
        return (ShipsOnce, (True,))

    def __call__(self, block):
        return float(np.mean(block[:, 0]))


def _on_node(program) -> tuple[np.ndarray, np.ndarray]:
    spec = ShardQuerySpec(
        dataset="d", version=1, num_records=VALUES.shape[0], shards=1,
        output_dimension=1, fallback=FALLBACK, **GEOMETRY,
    )
    outputs, succeeded, _ = execute_shard_rows(
        VALUES, spec, 0, pickle.dumps(program)
    )
    return outputs, succeeded


@pytest.mark.parametrize(
    "program, path",
    [
        (Mean(), "batch"),
        (block_mean, "untrusted_program"),
        (RaisingBatch(), "untrusted_program"),
        (NonFiniteRow(), "untrusted_program"),
        (HostileLookup(), "untrusted_program"),
    ],
    ids=["batch", "per-block-only", "raising-batch", "non-finite-row",
         "raising-lookup"],
)
def test_coordinator_and_node_run_the_same_blocks_identically(program, path):
    stacked = draw_sharded_plan(VALUES.shape[0], shards=1, **GEOMETRY).stack(VALUES)
    metrics = MetricsRegistry()
    manager = ComputationManager(metrics=metrics)
    local = manager.run_blocks_collected(program, 1, np.array(FALLBACK), stacked)
    outputs, succeeded = _on_node(program)
    assert np.array_equal(local.outputs, outputs)  # bit-identical
    assert np.array_equal(local.succeeded, succeeded)
    if path == "batch":
        assert metrics.counter("vectorized.batches").value == 1
    else:
        assert metrics.counter("vectorized.fallbacks", reason=path).value == 1
        # An analyst's own batch form is never called: every block is
        # its per-block answer, on the coordinator and on the node.
        expected = [block_mean(block) for block in stacked]
        assert succeeded.all() and outputs[:, 0].tolist() == expected


def test_node_kernel_gives_every_block_a_fresh_instance():
    outputs, succeeded = _on_node(CountsCalls())
    assert succeeded.all()
    assert outputs[:, 0].tolist() == [1.0] * outputs.shape[0]


def test_uncopyable_program_fails_its_blocks_instead_of_raising():
    # Without a fresh instance a block cannot run under the chamber
    # rule; on a node the alternative would be an exception that ends
    # the coordinator's session.
    block = np.ones((4, 1))
    result = InProcessChamber().run_block(
        ShipsOnce(shipped=True), block, 1, np.array(FALLBACK)
    )
    assert not result.succeeded and result.output.tolist() == [-1.0]
    outputs, succeeded = _on_node(ShipsOnce())
    assert not succeeded.any()
    assert (outputs == -1.0).all()


def test_chamber_latency_is_one_padded_wall_clock_per_call():
    metrics = MetricsRegistry()
    manager = ComputationManager(
        chamber=InProcessChamber(timing=TimingDefense(cycle_budget=0.01)),
        metrics=metrics,
    )
    stacked = np.stack([np.full((4, 1), float(i)) for i in range(4)])
    manager.run_blocks_collected(block_mean, 1, np.array(FALLBACK), stacked)
    summary = metrics.histogram("blocks.latency_seconds").summary()
    assert summary["count"] == 4
    assert summary["min"] >= 0.01


def test_prebuilt_sharded_backend_refuses_ignored_options():
    # A pre-built shard backend carries its own nodes and secret, and
    # only the remote backend uses it: anything else is refused rather
    # than silently dropped.
    remote = RemoteShardBackend(
        shards=2, nodes=["127.0.0.1:1"], heartbeat_interval=None
    )
    try:
        for kwargs in (
            {"backend": "remote", "nodes": 2},
            {"backend": "remote", "nodes": ["127.0.0.1:1"]},
            {"backend": "remote", "node_secret": "s3cret"},
            {"backend": "serial"},
            {"backend": "vectorized"},
            {},
        ):
            with pytest.raises(ValueError):
                ComputationManager(sharded=remote, **kwargs)
        with ComputationManager(backend="remote", sharded=remote) as manager:
            assert manager.sharded_backend is remote
    finally:
        remote.close()
