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

    def test_same_instant_entries_never_compare_payloads(self):
        """Heap entries order on (time, seq) alone: lambdas and dicts, which
        have no ordering, tie at one instant without a TypeError."""
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule_at(1.0, lambda payload: order.append(payload["i"]), {"i": i})
        sim.run(1.0)
        assert order == list(range(50))

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


class TestHeapCompaction:
    def test_compaction_mid_drain_keeps_survivors_in_order(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(2.0, fired.append, ("pre", i))
        in_callback = {}

        def churn():
            doomed = [sim.schedule(1.0 + i * 0.001, fired.append, ("dead", i))
                      for i in range(300)]
            for event in doomed:
                event.cancel()
            in_callback["before"] = sim.pending_events
            # This push finds 300 dead of 306 entries and compacts the heap
            # the drain loop is iterating.
            sim.schedule(1.0, fired.append, ("post", 0))
            in_callback["after"] = sim.pending_events
            sim.schedule(1.0, fired.append, ("post", 1))
            sim.schedule(0.5, fired.append, ("soon", 0))

        sim.schedule(1.0, churn)
        sim.run(5.0)
        assert in_callback == {"before": 305, "after": 6}
        assert fired == [("soon", 0)] + [("pre", i) for i in range(5)] \
            + [("post", 0), ("post", 1)]
        assert sim.events_processed == 1 + len(fired)
        assert sim.pending_events == 0

    def test_late_cancel_is_inert(self):
        sim = Simulator()
        fired = []
        early = [sim.schedule(1.0, fired.append, i) for i in range(300)]
        for i in range(3):
            sim.schedule(5.0, fired.append, 1000 + i)
        sim.run(2.0)
        for event in early:
            event.cancel()  # handles that already fired
        assert sim.pending_events == 3
        sim.schedule(2.0, fired.append, "dropped").cancel()
        # Had the 300 late cancels been counted, this push would compact the
        # heap and the cancelled entry above would be gone (4, not 5).
        sim.schedule(4.0, fired.append, "last")
        assert sim.pending_events == 5
        sim.run(10.0)
        assert fired == list(range(300)) + [1000, 1001, 1002, "last"]
        assert sim.events_processed == 304

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        fired = []
        for i in range(200):
            event = sim.schedule(1.0, fired.append, i)
            event.cancel()
            event.cancel()
        # 200 dead entries stay under the 256 floor; 400 would not.
        sim.schedule(1.0, fired.append, "live")
        assert sim.pending_events == 201
        sim.run(2.0)
        assert fired == ["live"]
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

    @pytest.mark.parametrize("until", [math.nan, math.inf])
    def test_run_to_non_finite_time_raises(self, until):
        """run(nan) used to fire everything and leave now = nan, after which
        no event could be scheduled; run_until_idle() is the unbounded call."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimulationError):
            sim.run(until)
        assert fired == [] and sim.now == 0.0
        sim.schedule(1.0, fired.append, 2)
        sim.run(3.0)
        assert fired == [1, 2]

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
