"""Tests for the side-channel attack harness (the Table 1 evidence)."""

import numpy as np
import pytest

from repro.attacks.budget_attack import (
    budget_attack_against_gupt,
    budget_attack_against_pinq,
)
from repro.attacks.batch_attack import BatchFormProgram
from repro.attacks.harness import (
    BATCH_FORM_BACKENDS,
    SVT_FLAG_FACTOR,
    batch_form_probe_epsilon,
    budget_attack_outcomes,
    run_all_attacks,
    run_batch_form_attacks,
    state_attack_on_airavat,
    state_attack_on_gupt,
    state_attack_on_pinq,
    timing_attack_on,
)
from repro.attacks.state_attack import (
    GlobalChannelProgram,
    InstanceStateProgram,
    read_global_channel,
    reset_global_channel,
)
from repro.attacks.timing_attack import StallOnTargetProgram, timing_attack_observable


@pytest.fixture
def neighbor_pair(rng):
    base = rng.uniform(0.0, 50.0, size=64)
    with_target = base.copy()
    with_target[0] = 77.25
    return with_target, base


class TestStateAttack:
    def test_gupt_blocks_instance_state(self):
        assert state_attack_on_gupt().leaked is False

    def test_pinq_leaks_instance_state(self):
        assert state_attack_on_pinq().leaked is True

    def test_airavat_leaks_global_state(self):
        assert state_attack_on_airavat().leaked is True

    def test_instance_program_flags_target_on_direct_call(self):
        program = InstanceStateProgram(target=5.0)
        program(np.array([[1.0], [5.0]]))
        assert program.saw_target

    def test_instance_program_ignores_absent_target(self):
        program = InstanceStateProgram(target=5.0)
        program(np.array([[1.0], [2.0]]))
        assert not program.saw_target

    def test_global_channel_roundtrip(self):
        reset_global_channel()
        GlobalChannelProgram(target=3.0)(np.array([[3.0]]))
        assert read_global_channel() is True
        reset_global_channel()
        assert read_global_channel() is False


class TestBudgetAttack:
    def test_pinq_meter_leaks(self, neighbor_pair):
        with_target, without_target = neighbor_pair
        assert budget_attack_against_pinq(with_target, without_target, 77.25)

    def test_gupt_meter_is_data_independent(self, neighbor_pair):
        with_target, without_target = neighbor_pair
        assert not budget_attack_against_gupt(with_target, without_target, 77.25)

    def test_outcome_rows_cover_three_systems(self):
        outcomes = budget_attack_outcomes()
        assert {o.system for o in outcomes} == {"gupt", "pinq", "airavat"}


class TestTimingAttack:
    def test_stall_program_sleeps_only_on_target(self):
        import time

        program = StallOnTargetProgram(target=9.0, delay=0.15)
        started = time.perf_counter()
        program(np.array([[1.0]]))
        fast = time.perf_counter() - started
        started = time.perf_counter()
        program(np.array([[9.0]]))
        slow = time.perf_counter() - started
        assert slow - fast > 0.1

    def test_observable_threshold(self):
        assert timing_attack_observable(1.0, 0.5, resolution=0.05)
        assert not timing_attack_observable(1.0, 1.01, resolution=0.05)

    def test_gupt_defense_hides_the_stall(self):
        assert timing_attack_on("gupt").leaked is False

    def test_undefended_system_leaks(self):
        assert timing_attack_on("pinq").leaked is True


class TestFullMatrix:
    def test_matches_papers_table1(self):
        outcomes = run_all_attacks()
        expected_leaks = {
            ("gupt", "state"): False,
            ("pinq", "state"): True,
            ("airavat", "state"): True,
            ("gupt", "budget"): False,
            ("pinq", "budget"): True,
            ("airavat", "budget"): False,
            ("gupt", "timing"): False,
            ("pinq", "timing"): True,
            ("airavat", "timing"): True,
        }
        measured = {(o.system, o.attack): o.leaked for o in outcomes}
        assert measured == expected_leaks


class TestBatchFormBattery:
    """A hostile ``run_batch`` moves no backend's release (ROADMAP dir. 1)."""

    def test_every_backend_stays_within_the_claimed_epsilon(self):
        outcomes = run_batch_form_attacks(trials=400)
        assert [o.backend for o in outcomes] == [b for b, _ in BATCH_FORM_BACKENDS]
        for outcome in outcomes:
            assert outcome.attack == "batch_form"
            assert not outcome.flagged, outcome
            assert outcome.observed_epsilon <= SVT_FLAG_FACTOR * outcome.claimed_epsilon

    def test_the_probe_flags_an_executor_that_honours_it(self, monkeypatch):
        # The battery has teeth: let the executor trust every batch form
        # and the same probe reads many times the claimed epsilon.
        monkeypatch.setattr(
            "repro.runtime.vectorized.platform_owned", lambda program: True
        )
        observed = batch_form_probe_epsilon("serial", trials=200)
        assert observed > 10 * SVT_FLAG_FACTOR * 0.1

    def test_hostile_program_is_honest_per_block(self):
        program = BatchFormProgram(target=77.25)
        stacked = np.stack([np.full((4, 1), 2.0), np.full((4, 1), 77.25)])
        assert [program(block) for block in stacked] == [2.0, 77.25]
        assert program.run_batch(stacked).tolist() == [100.0, 100.0]
