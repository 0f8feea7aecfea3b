"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.netsim.engine import SimulationError, Simulator


class TestScheduling:
    def test_schedule_runs_callback_at_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run(2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run(5.0)
        assert order == [1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for label in ["first", "second", "third"]:
            sim.schedule(1.0, order.append, label)
        sim.run(1.0)
        assert order == ["first", "second", "third"]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run(10.0)
        assert seen == [4.0]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(1.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_non_finite_time_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(math.inf, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        seen = []

        def chain(depth):
            seen.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, chain, depth - 1)

        sim.schedule(0.0, chain, 3)
        sim.run(10.0)
        assert seen == [0.0, 1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run(2.0)
        assert fired == []

    def test_cancel_does_not_affect_other_events(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(1.0, fired.append, "kept")
        event.cancel()
        sim.run(2.0)
        assert fired == ["kept"]

    def test_events_processed_excludes_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        event.cancel()
        sim.run(2.0)
        assert sim.events_processed == 1


class TestRunSemantics:
    def test_run_stops_at_until_and_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(2.0)
        assert fired == []
        assert sim.pending_events == 1
        sim.run(6.0)
        assert fired == ["late"]

    def test_run_backwards_raises(self):
        sim = Simulator()
        sim.run(5.0)
        with pytest.raises(SimulationError):
            sim.run(1.0)

    def test_clock_advances_to_until_even_without_events(self):
        sim = Simulator()
        sim.run(7.5)
        assert sim.now == 7.5

    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run(5.0)
        assert fired == [1]
        # The clock is left at the stop point, not advanced to `until`.
        assert sim.now == 1.0

    def test_run_until_idle_resumes_after_a_stopped_run(self):
        """stop() ends only the run it interrupted, whichever method follows."""
        sim = Simulator()
        hits = []
        sim.schedule(1, sim.stop)
        sim.schedule(2, hits.append, 2)
        sim.run(5)
        assert hits == [] and sim.now == 1.0
        sim.run_until_idle()
        assert hits == [2] and sim.now == 2.0

    def test_run_until_idle_drains_queue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run_until_idle()
        assert fired == [1, 2]
        assert sim.pending_events == 0


class TestDeterminism:
    def test_same_seed_same_random_stream(self):
        values_a = [Simulator(seed=42).rng.random() for _ in range(1)]
        values_b = [Simulator(seed=42).rng.random() for _ in range(1)]
        assert values_a == values_b

    def test_different_seeds_differ(self):
        assert Simulator(seed=1).rng.random() != Simulator(seed=2).rng.random()
