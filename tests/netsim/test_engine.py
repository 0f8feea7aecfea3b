"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.netsim.engine import Event, SimulationError, Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.route import Route


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

    @pytest.mark.parametrize("time, message", [
        (math.inf, "must be finite"), (math.nan, "must be finite"),
        (-math.inf, "before now"), (0.5, "before now"),
    ])
    def test_one_compare_keeps_both_messages(self, time, message):
        sim = Simulator()
        sim.run(1.0)
        with pytest.raises(SimulationError, match=message):
            sim.schedule_at(time, lambda: None)
        assert sim.pending_events == 0

    def test_an_event_is_its_own_heap_entry(self):
        sim = Simulator()
        sim.schedule(1.0, print)
        event = sim.schedule_at(2.0, print, "x")
        assert isinstance(event, Event) and isinstance(event, list)
        assert sim._queue[1] is event
        assert event == [2.0, 1, print, ("x",)]
        assert (event.time, event.cancelled) == (2.0, False)

    def test_link_and_scheduled_entries_at_one_instant_fire_in_push_order(self):
        """A link pushes its own entries with the simulator's counter, so at
        one instant they interleave with ``schedule_at``'s in push order."""
        sim = Simulator()
        order = []
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.0)   # 1 s per packet
        route = Route([link], lambda packet: order.append(packet.packet_id))
        sim.schedule_at(1.0, order.append, "before")
        sim.schedule_at(0.0, route.send, Packet(1, 0, 0, 1500, 0.0))
        sim.schedule_at(0.0, sim.schedule_at, 1.0, order.append, "after")
        sim.run(2.0)
        assert order == ["before", 0, "after"]

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

    def test_a_plain_entry_is_cancelled_as_an_event_is(self):
        """An entry pushed without a handle is cancelled by the same
        function, and cancelling twice is the same as once."""
        sim = Simulator()
        fired = []
        for i in range(300):
            entry = [1.0, next(sim.seq), fired.append, (i,)]
            sim.push(entry)
            Event.cancel(entry)
            Event.cancel(entry)
        sim.schedule(1.0, fired.append, "live")
        assert sim.pending_events == 301
        sim.run(2.0)
        assert fired == ["live"]
        assert sim.events_processed == 1
        assert sim.pending_events == 0

    def test_late_cancel_is_inert(self):
        """Cancelling handles that already fired moves nothing still queued."""
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
        sim.schedule(4.0, fired.append, "last")
        assert sim.pending_events == 5
        sim.run(10.0)
        assert fired == list(range(300)) + [1000, 1001, 1002, "last"]
        assert sim.events_processed == 304


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
