"""Unit tests for the PCC control state machine (no network involved)."""

import random

import pytest

from repro.core import controller as controller_module
from repro.core.controller import ControllerState, MIPurpose, PCCController
from repro.core.metrics import MonitorIntervalStats


def completed_mi(rate_bps, utility, purpose, packets=20):
    mi = MonitorIntervalStats(0, rate_bps, 0.0, 0.1, purpose=purpose)
    for _ in range(packets):
        mi.record_send(1500)
        mi.record_ack(1500, 0.03)
    mi.send_phase_over = True
    mi.completed = True
    mi.utility = utility
    return mi


def drive_starting_exit(controller, peak_utility=100.0):
    """Walk the controller out of the starting state via a utility drop."""
    rate1, purpose1 = controller.next_rate(0.0)
    rate2, purpose2 = controller.next_rate(0.1)
    controller.on_mi_complete(completed_mi(rate1, peak_utility * 0.5, purpose1))
    controller.on_mi_complete(completed_mi(rate2, peak_utility, purpose2))
    rate3, purpose3 = controller.next_rate(0.2)
    controller.on_mi_complete(completed_mi(rate3, peak_utility * 0.1, purpose3))
    return rate2


class TestStartingState:
    def test_rate_doubles_each_interval(self):
        controller = PCCController(initial_rate_bps=1e6)
        rates = [controller.next_rate(i * 0.1)[0] for i in range(4)]
        assert rates == pytest.approx([1e6, 2e6, 4e6, 8e6])

    def test_pcc_controller_reset_initial_rate(self):
        controller = PCCController(initial_rate_bps=1e6)
        controller.reset_initial_rate(250_000.0)
        assert controller.rate_bps == 250_000.0
        # The next MI starts at the reset rate, then doubling resumes.
        assert controller.next_rate(0.0)[0] == 250_000.0
        assert controller.next_rate(0.1)[0] == 500_000.0

    def test_reset_initial_rate_clamps_to_bounds(self, monkeypatch):
        monkeypatch.setattr(controller_module, "MIN_RATE_BPS", 100_000.0)
        monkeypatch.setattr(controller_module, "MAX_RATE_BPS", 1e9)
        controller = PCCController()
        controller.reset_initial_rate(1.0)
        assert controller.rate_bps == 100_000.0
        controller.reset_initial_rate(1e12)
        assert controller.rate_bps == 1e9

    def test_stays_in_starting_while_utility_rises(self):
        controller = PCCController(initial_rate_bps=1e6)
        for i in range(5):
            rate, purpose = controller.next_rate(i * 0.1)
            controller.on_mi_complete(completed_mi(rate, float(i + 1), purpose))
        assert controller.state is ControllerState.STARTING

    def test_utility_drop_exits_to_decision_at_previous_rate(self):
        controller = PCCController(initial_rate_bps=1e6)
        best_rate = drive_starting_exit(controller)
        assert controller.state is ControllerState.DECISION
        assert controller.rate_bps == pytest.approx(best_rate)

    def test_single_mild_drop_keeps_better_rate_as_fallback(self):
        """One mild utility dip keeps doubling, but the fallback point must
        remain the better (previous) rate so a later exit reverts there."""
        controller = PCCController(initial_rate_bps=1e6)
        rate1, purpose1 = controller.next_rate(0.0)
        controller.on_mi_complete(completed_mi(rate1, 100.0, purpose1))
        rate2, purpose2 = controller.next_rate(0.1)
        controller.on_mi_complete(completed_mi(rate2, 90.0, purpose2))  # mild dip
        assert controller.state is ControllerState.STARTING
        assert controller._last_start == (rate1, 100.0)
        # A second consecutive mild decrease exits to the better rate.
        rate3, purpose3 = controller.next_rate(0.2)
        controller.on_mi_complete(completed_mi(rate3, 95.0, purpose3))
        assert controller.state is ControllerState.DECISION
        assert controller.rate_bps == pytest.approx(rate1)

    def test_loss_alone_does_not_exit_starting(self):
        """Unlike TCP slow start, only a utility decrease ends the phase."""
        controller = PCCController(initial_rate_bps=1e6)
        rate, purpose = controller.next_rate(0.0)
        mi = completed_mi(rate, 1.0, purpose)
        mi.packets_lost = 5  # loss present but utility still improved
        controller.on_mi_complete(mi)
        assert controller.state is ControllerState.STARTING


class TestDecisionState:
    def make_decision_controller(self, use_rct=True):
        controller = PCCController(initial_rate_bps=8e6, use_rct=use_rct)
        controller.attach_rng(random.Random(0))
        drive_starting_exit(controller)
        return controller

    def test_rct_plans_four_trials(self):
        controller = self.make_decision_controller()
        purposes = [controller.next_rate(i * 0.1)[1] for i in range(4)]
        assert all(p.kind == "trial" for p in purposes)
        signs = [p.sign for p in purposes]
        assert sorted(signs[:2]) == [-1, 1]
        assert sorted(signs[2:]) == [-1, 1]

    def test_without_rct_plans_two_trials(self):
        controller = self.make_decision_controller(use_rct=False)
        purposes = [controller.next_rate(i * 0.1)[1] for i in range(3)]
        assert [p.kind for p in purposes] == ["trial", "trial", "wait"]

    def test_wait_rate_is_base_rate_after_trials(self):
        controller = self.make_decision_controller()
        base = controller.rate_bps
        for i in range(4):
            controller.next_rate(i * 0.1)
        rate, purpose = controller.next_rate(0.5)
        assert purpose.kind == "wait"
        assert rate == pytest.approx(base)

    def test_consistent_higher_utility_moves_up(self):
        controller = self.make_decision_controller()
        base = controller.rate_bps
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            utility = 10.0 if purpose.sign > 0 else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.ADJUSTING
        assert controller.rate_bps > base

    def test_consistent_lower_utility_moves_down(self):
        controller = self.make_decision_controller()
        base = controller.rate_bps
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            utility = 10.0 if purpose.sign < 0 else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.ADJUSTING
        assert controller.rate_bps < base

    def test_inconclusive_result_stays_and_raises_epsilon(self):
        controller = self.make_decision_controller()
        base = controller.rate_bps
        eps_before = controller.epsilon
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        # First pair prefers higher, second pair prefers lower: inconclusive.
        for rate, purpose in trials:
            if purpose.trial_index < 2:
                utility = 10.0 if purpose.sign > 0 else 5.0
            else:
                utility = 10.0 if purpose.sign < 0 else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.DECISION
        assert controller.rate_bps == pytest.approx(base)
        assert controller.epsilon == pytest.approx(eps_before + controller.epsilon_min)
        assert controller.inconclusive_decisions == 1

    def test_epsilon_capped_at_maximum(self):
        controller = self.make_decision_controller()
        controller.epsilon = controller.epsilon_max
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            if purpose.trial_index < 2:
                utility = 10.0 if purpose.sign > 0 else 5.0
            else:
                utility = 10.0 if purpose.sign < 0 else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.epsilon == pytest.approx(controller.epsilon_max)

    def test_stale_epoch_results_ignored(self):
        controller = self.make_decision_controller()
        rate, purpose = controller.next_rate(0.0)
        stale = MIPurpose(kind="trial", epoch=purpose.epoch - 1, trial_index=0, sign=1)
        controller.on_mi_complete(completed_mi(rate, 100.0, stale))
        assert controller.state is ControllerState.DECISION
        assert len(controller._trial_results) == 0

    def test_empty_trial_requeued(self):
        controller = self.make_decision_controller()
        rate, purpose = controller.next_rate(0.0)
        empty = MonitorIntervalStats(0, rate, 0.0, 0.1, purpose=purpose)
        empty.send_phase_over = True
        empty.completed = True
        empty.utility = 0.0
        plan_before = len(controller._trial_plan)
        controller.on_mi_complete(empty)
        assert len(controller._trial_plan) == plan_before + 1

    def test_requeued_empty_trial_still_concludes_decision(self):
        """A decision whose trial came back empty must conclude once the
        re-issued trial (same index/sign) finally reports a utility."""
        controller = self.make_decision_controller()
        rate, purpose = controller.next_rate(0.0)
        empty = MonitorIntervalStats(0, rate, 0.0, 0.1, purpose=purpose)
        empty.send_phase_over = True
        empty.completed = True
        empty.utility = 0.0
        controller.on_mi_complete(empty)
        # Drain the remaining three planned trials plus the re-queued one.
        trials = [controller.next_rate((i + 1) * 0.1) for i in range(4)]
        reissued = [p for _, p in trials if p.trial_index == purpose.trial_index]
        assert [p.sign for p in reissued] == [purpose.sign]
        for trial_rate, trial_purpose in trials:
            utility = 10.0 if trial_purpose.sign > 0 else 5.0
            controller.on_mi_complete(
                completed_mi(trial_rate, utility, trial_purpose))
        assert controller.state is ControllerState.ADJUSTING
        assert controller.decisions == 1

    def test_empty_wait_mi_is_a_noop(self):
        controller = self.make_decision_controller()
        for i in range(4):
            controller.next_rate(i * 0.1)  # consume the whole trial plan
        rate, purpose = controller.next_rate(0.5)
        assert purpose.kind == "wait"
        empty = MonitorIntervalStats(0, rate, 0.5, 0.6, purpose=purpose)
        empty.send_phase_over = True
        empty.completed = True
        empty.utility = 0.0
        controller.on_mi_complete(empty)
        assert controller.state is ControllerState.DECISION
        assert controller._trial_plan == []

    def test_stale_epoch_adjust_result_ignored_after_reversion(self):
        """An adjust MI that reports after its epoch was abandoned (the
        controller already reverted to the decision state) must not trigger a
        second reversion or touch the restored rate."""
        controller = self.make_decision_controller()
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            utility = 10.0 if purpose.sign > 0 else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.ADJUSTING
        r1, p1 = controller.next_rate(1.0)
        r2, p2 = controller.next_rate(1.1)
        controller.on_mi_complete(completed_mi(r1, 50.0, p1))
        controller.on_mi_complete(completed_mi(r2, 10.0, p2))  # reverts
        assert controller.state is ControllerState.DECISION
        restored_rate = controller.rate_bps
        reversions = controller.reversions
        # A third adjust MI was already in flight when the reversion happened.
        stale = MIPurpose(kind="adjust", epoch=p2.epoch, sign=1, step=3)
        controller.on_mi_complete(completed_mi(r2 * 1.03, 0.5, stale))
        assert controller.state is ControllerState.DECISION
        assert controller.rate_bps == pytest.approx(restored_rate)
        assert controller.reversions == reversions


class TestAdjustingState:
    def make_adjusting_controller(self, direction=1):
        controller = PCCController(initial_rate_bps=8e6)
        controller.attach_rng(random.Random(0))
        drive_starting_exit(controller)
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            utility = 10.0 if purpose.sign == direction else 5.0
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.ADJUSTING
        return controller

    def test_steps_accelerate(self):
        controller = self.make_adjusting_controller(direction=1)
        r0 = controller.rate_bps
        r1, p1 = controller.next_rate(1.0)
        r2, p2 = controller.next_rate(1.1)
        r3, p3 = controller.next_rate(1.2)
        eps = controller.epsilon_min
        assert r1 == pytest.approx(r0 * (1 + eps))
        assert r2 == pytest.approx(r1 * (1 + 2 * eps))
        assert r3 == pytest.approx(r2 * (1 + 3 * eps))
        assert [p1.step, p2.step, p3.step] == [1, 2, 3]

    def test_downward_direction_decreases(self):
        controller = self.make_adjusting_controller(direction=-1)
        r0 = controller.rate_bps
        r1, _ = controller.next_rate(1.0)
        assert r1 < r0

    def test_utility_drop_reverts_and_reenters_decision(self):
        controller = self.make_adjusting_controller(direction=1)
        r1, p1 = controller.next_rate(1.0)
        controller.on_mi_complete(completed_mi(r1, 50.0, p1))
        r2, p2 = controller.next_rate(1.1)
        controller.on_mi_complete(completed_mi(r2, 10.0, p2))  # utility fell
        assert controller.state is ControllerState.DECISION
        assert controller.rate_bps == pytest.approx(r1)
        assert controller.reversions == 1

    def test_rising_utility_keeps_adjusting(self):
        controller = self.make_adjusting_controller(direction=1)
        for step in range(1, 4):
            rate, purpose = controller.next_rate(1.0 + step * 0.1)
            controller.on_mi_complete(completed_mi(rate, 50.0 + step, purpose))
        assert controller.state is ControllerState.ADJUSTING

    def test_empty_adjust_mi_is_a_noop(self):
        """An adjusting MI in which nothing was sent carries no information:
        it must neither revert nor advance the baseline."""
        controller = self.make_adjusting_controller(direction=1)
        baseline = controller._last_adjust
        rate, purpose = controller.next_rate(1.0)
        empty = MonitorIntervalStats(0, rate, 1.0, 1.1, purpose=purpose)
        empty.send_phase_over = True
        empty.completed = True
        empty.utility = 0.0
        controller.on_mi_complete(empty)
        assert controller.state is ControllerState.ADJUSTING
        assert controller.reversions == 0
        assert controller._last_adjust == baseline

    def make_adjusting_controller_with_utilities(self, early, late, other=3.0):
        """Enter the adjusting state (direction +1) with the chosen-direction
        trials measuring ``early`` (first pair) and ``late`` (second pair)."""
        controller = PCCController(initial_rate_bps=8e6)
        controller.attach_rng(random.Random(0))
        drive_starting_exit(controller)
        trials = [controller.next_rate(i * 0.1) for i in range(4)]
        for rate, purpose in trials:
            if purpose.sign > 0:
                utility = early if purpose.trial_index < 2 else late
            else:
                utility = other
            controller.on_mi_complete(completed_mi(rate, utility, purpose))
        assert controller.state is ControllerState.ADJUSTING
        assert controller._direction == 1
        return controller

    def test_baseline_seeded_from_chosen_direction_trial(self):
        """The adjusting baseline is the most recent chosen-direction trial's
        own measurement, not an average over the trial pairs."""
        controller = self.make_adjusting_controller_with_utilities(10.0, 4.0)
        assert controller._last_adjust == (controller.rate_bps, 4.0)

    def test_no_spurious_reversion_from_averaged_trial_baseline(self):
        """Regression: with chosen-direction trials measuring 10.0 then 4.0,
        the old code seeded the baseline with their mean (7.0), so a first
        adjusting MI measuring 5.0 — an *improvement* over the direction's own
        latest measurement — triggered an immediate spurious reversion."""
        controller = self.make_adjusting_controller_with_utilities(10.0, 4.0)
        rate, purpose = controller.next_rate(1.0)
        controller.on_mi_complete(completed_mi(rate, 5.0, purpose))
        assert controller.state is ControllerState.ADJUSTING
        assert controller.reversions == 0

    def test_genuine_drop_still_reverts_on_first_adjust_mi(self):
        """A first adjusting MI below the chosen-direction trial's own
        measurement still reverts immediately."""
        controller = self.make_adjusting_controller_with_utilities(10.0, 4.0)
        revert_rate = controller.rate_bps
        rate, purpose = controller.next_rate(1.0)
        controller.on_mi_complete(completed_mi(rate, 3.0, purpose))
        assert controller.state is ControllerState.DECISION
        assert controller.reversions == 1
        assert controller.rate_bps == pytest.approx(revert_rate)


class TestGuards:
    def test_rate_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_RATE_BPS", 1e6)
        assert controller_module.MIN_RATE_BPS == 16_000
        controller = PCCController(initial_rate_bps=1e3)
        rate, _ = controller.next_rate(0.0)
        assert rate == 16_000
        for i in range(40):
            rate, _ = controller.next_rate(0.1 * (i + 1))
        assert rate == 1e6

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PCCController(epsilon_min=0.0)
        with pytest.raises(ValueError):
            PCCController(epsilon_min=0.05, epsilon_max=0.01)
