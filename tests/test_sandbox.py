"""Unit tests for the isolation chambers."""

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.runtime.policy import MACPolicy
from repro.runtime.sandbox import InProcessChamber, SubprocessChamber
from repro.runtime.timing import TimingDefense


class AlwaysExceededTiming(TimingDefense):
    """A budget that every elapsed time exceeds — deterministic post-hoc
    kill trigger without racing real clocks."""

    def exceeded(self, elapsed: float) -> bool:  # noqa: ARG002
        return True

BLOCK = np.linspace(0.0, 10.0, 20).reshape(-1, 1)
FALLBACK = np.array([5.0])


def mean_program(block):
    return float(np.mean(block))


def crashing_program(block):
    raise RuntimeError("boom")


def wrong_shape_program(block):
    return [1.0, 2.0]


def nan_program(block):
    return float("nan")


def slow_program(block):
    time.sleep(0.3)
    return float(np.mean(block))


@dataclass
class StatefulProgram:
    output_dimension: int = 1
    calls: list = field(default_factory=list)

    def __call__(self, block):
        self.calls.append(len(block))
        return float(np.mean(block))


class TestInProcessChamber:
    def test_successful_run(self):
        chamber = InProcessChamber()
        result = chamber.run_block(mean_program, BLOCK, 1, FALLBACK)
        assert result.succeeded
        assert result.output[0] == pytest.approx(BLOCK.mean())

    def test_crash_falls_back(self):
        chamber = InProcessChamber()
        result = chamber.run_block(crashing_program, BLOCK, 1, FALLBACK)
        assert not result.succeeded
        assert result.output[0] == 5.0

    def test_wrong_shape_falls_back(self):
        chamber = InProcessChamber()
        result = chamber.run_block(wrong_shape_program, BLOCK, 1, FALLBACK)
        assert not result.succeeded

    def test_nan_output_falls_back(self):
        chamber = InProcessChamber()
        result = chamber.run_block(nan_program, BLOCK, 1, FALLBACK)
        assert not result.succeeded

    def test_non_numeric_output_falls_back(self):
        chamber = InProcessChamber()
        result = chamber.run_block(lambda b: "text", BLOCK, 1, FALLBACK)
        assert not result.succeeded

    def test_output_whose_conversion_raises_falls_back(self):
        class Exploding:
            def __float__(self):
                raise RuntimeError("hostile output")

        chamber = InProcessChamber()
        result = chamber.run_block(lambda b: Exploding(), BLOCK, 1, FALLBACK)
        assert not result.succeeded
        assert result.output[0] == FALLBACK[0]

    def test_timeout_kills_and_falls_back(self):
        chamber = InProcessChamber(timing=TimingDefense(cycle_budget=0.05, pad=False))
        result = chamber.run_block(slow_program, BLOCK, 1, FALLBACK)
        assert result.killed
        assert result.output[0] == 5.0

    def test_padding_fixes_observable_runtime(self):
        chamber = InProcessChamber(timing=TimingDefense(cycle_budget=0.1, pad=True))
        started = time.perf_counter()
        chamber.run_block(mean_program, BLOCK, 1, FALLBACK)
        elapsed = time.perf_counter() - started
        assert elapsed >= 0.095

    def test_fresh_instance_prevents_state_carryover(self):
        chamber = InProcessChamber()
        program = StatefulProgram()
        chamber.run_block(program, BLOCK, 1, FALLBACK)
        chamber.run_block(program, BLOCK, 1, FALLBACK)
        # The attacker-held original saw nothing.
        assert program.calls == []

    def test_pickled_bytes_cached_across_blocks(self):
        # The program serializes once; later blocks reuse the bytes.
        chamber = InProcessChamber()
        program = StatefulProgram()
        chamber.run_block(program, BLOCK, 1, FALLBACK)
        first_cache = chamber._pickle_cache
        assert first_cache[0] is program and first_cache[1] is not None
        chamber.run_block(program, BLOCK, 1, FALLBACK)
        assert chamber._pickle_cache is first_cache
        assert program.calls == []  # isolation intact on the cached path

    def test_unpicklable_program_falls_back_to_deepcopy(self):
        # A program holding a lambda cannot pickle; deepcopy still gives
        # every block a fresh instance.
        @dataclass
        class Unpicklable:
            hook: object = field(default_factory=lambda: (lambda x: x))
            calls: list = field(default_factory=list)

            def __call__(self, block):
                self.calls.append(len(block))
                return float(np.mean(block))

        chamber = InProcessChamber()
        program = Unpicklable()
        result = chamber.run_block(program, BLOCK, 1, FALLBACK)
        assert result.succeeded
        assert chamber._pickle_cache == (program, None)
        assert program.calls == []  # still isolated via deepcopy

    def test_policy_blocks_forbidden_write(self, tmp_path):
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        chamber = InProcessChamber(policy=MACPolicy(scratch_dir=scratch))
        leak_path = tmp_path / "leak.txt"

        def leaky(block):
            with open(leak_path, "w") as fh:
                fh.write("secret")
            return 0.0

        result = chamber.run_block(leaky, BLOCK, 1, FALLBACK)
        assert not result.succeeded  # SandboxViolation -> fallback
        assert not leak_path.exists()

    def test_multidimensional_output(self):
        chamber = InProcessChamber()
        result = chamber.run_block(
            lambda b: [b.mean(), b.std()], BLOCK, 2, np.array([0.0, 0.0])
        )
        assert result.succeeded
        assert result.output.shape == (2,)


class TestSubprocessChamber:
    def test_successful_run(self):
        chamber = SubprocessChamber()
        result = chamber.run_block(mean_program, BLOCK, 1, FALLBACK)
        assert result.succeeded
        assert result.output[0] == pytest.approx(BLOCK.mean())

    def test_crash_falls_back(self):
        chamber = SubprocessChamber()
        result = chamber.run_block(crashing_program, BLOCK, 1, FALLBACK)
        assert not result.succeeded
        assert result.output[0] == 5.0

    def test_timeout_kills_child(self):
        chamber = SubprocessChamber(timing=TimingDefense(cycle_budget=0.1, pad=False))
        started = time.perf_counter()
        result = chamber.run_block(slow_program, BLOCK, 1, FALLBACK)
        elapsed = time.perf_counter() - started
        assert result.killed
        assert elapsed < 0.29  # killed before the 0.3s sleep finished

    def test_process_isolation_blocks_global_state(self):
        # Module-global writes die with the forked child — the variant
        # of the state attack that in-process copying cannot stop.
        from repro.attacks.state_attack import (
            GlobalChannelProgram,
            read_global_channel,
            reset_global_channel,
        )

        reset_global_channel()
        chamber = SubprocessChamber()
        target = float(BLOCK[3, 0])
        chamber.run_block(GlobalChannelProgram(target=target), BLOCK, 1, FALLBACK)
        assert read_global_channel() is False
        reset_global_channel()

    def test_wrong_shape_falls_back(self):
        chamber = SubprocessChamber()
        result = chamber.run_block(wrong_shape_program, BLOCK, 1, FALLBACK)
        assert not result.succeeded

    def test_scratch_wiped_between_blocks(self, tmp_path):
        policy = MACPolicy(scratch_dir=tmp_path)
        chamber = SubprocessChamber(policy=policy)
        scratch_file = tmp_path / "state.txt"

        def writes_scratch(block):
            scratch_file.write_text("block state")
            return 0.0

        chamber.run_block(writes_scratch, BLOCK, 1, FALLBACK)
        assert not scratch_file.exists()


class TestTimingParityAcrossChambers:
    """Satellite: kill semantics must be backend-independent.

    ``InProcessChamber`` always applied a post-hoc ``exceeded()`` check;
    ``SubprocessChamber`` used to kill only a still-alive child, so a
    block whose result arrived *after* the budget was killed by one
    backend and released by the other.  Both must now agree.
    """

    @pytest.mark.parametrize("chamber_cls", [InProcessChamber, SubprocessChamber])
    def test_post_hoc_budget_overrun_is_killed(self, chamber_cls):
        timing = AlwaysExceededTiming(cycle_budget=30.0, pad=False)
        chamber = chamber_cls(timing=timing)
        # The program completes well inside the 30s join window, so only
        # the post-hoc check can mark it killed.
        result = chamber.run_block(mean_program, BLOCK, 1, FALLBACK)
        assert result.killed
        assert not result.succeeded
        assert result.output[0] == FALLBACK[0]


class TestSpawnFailureCleanup:
    """Satellite: ``process.start()`` raising must not leak pipe fds."""

    def test_crash_at_spawn_yields_fallback(self):
        chamber = SubprocessChamber(start_method="spawn")
        # Lambdas cannot cross a spawn boundary: start() raises while
        # pickling the process object.
        result = chamber.run_block(lambda b: 0.0, BLOCK, 1, FALLBACK)
        assert not result.succeeded
        assert not result.killed
        assert result.output[0] == FALLBACK[0]

    def test_no_fd_leak_when_spawn_raises(self):
        chamber = SubprocessChamber(start_method="spawn")
        # Warm-up: a successful spawn starts multiprocessing's helper
        # processes (resource tracker) whose fds would otherwise skew
        # the count below.
        chamber.run_block(mean_program, BLOCK, 1, FALLBACK)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            chamber.run_block(lambda b: 0.0, BLOCK, 1, FALLBACK)
        after = len(os.listdir("/proc/self/fd"))
        assert after <= before
