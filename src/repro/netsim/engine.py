"""Discrete-event simulation engine.

The engine is a classic binary-heap event-list simulator built on
:mod:`heapq`.  It is deliberately small and allocation-light because every
packet transmission, propagation, queue service and timer in the network
simulator turns into one or more events, and the PCC evaluation scenarios push
hundreds of thousands of packets through it.  A heap entry is a four-item
list ``[time, seq, callback, args]``, so ordering is C list comparison that
never looks past the unique ``seq``.  :meth:`Simulator.schedule_at` pushes an
:class:`Event`, the entry itself with a cancel handle; a
:class:`~repro.netsim.link.Link`, whose event times are always now plus a
finite, non-negative amount, pushes plain entries through :attr:`Simulator.push`
and :attr:`Simulator.seq` without a frame of its own.

Determinism matters: two runs with the same seed must produce identical
results so that experiments and tests are reproducible.  Ties in event time are
broken by a monotonically increasing sequence number (insertion order), and all
randomness flows through a single seeded :class:`random.Random` owned by the
simulator.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from functools import partial
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event(list):
    """A scheduled callback: the heap entry ``[time, seq, callback, args]``.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them later (for example, a retransmission timer that is no longer needed).
    Cancellation is lazy: the entry stays in the heap with its callback and
    arguments cleared and is skipped when it reaches the front.  Nothing
    sweeps dead entries out: measured traffic never lets them dominate (an
    8 s CUBIC ``web`` cell peaks at the same 2 518 entries with or without a
    sweep; ``tests/netsim/test_hot_path_budget.py`` holds that peak).
    Cancelling an event that already fired changes nothing the simulator
    reads.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Absolute simulated time the callback runs at."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on the event."""
        return self[3] is None

    def cancel(self) -> None:
        """Mark the event so it will not fire.

        This is the one way to cancel a heap entry: ``Event.cancel(entry)``
        cancels a plain ``[time, seq, callback, args]`` entry pushed without
        a handle (a rate sender's tick) the same way.
        """
        self[2] = self[3] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.cancelled:
            return f"Event(t={self[0]:.6f}, cancelled)"
        name = getattr(self[2], "__qualname__", repr(self[2]))
        return f"Event(t={self[0]:.6f}, {name})"


class Simulator:
    """The discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  All stochastic
        components (random loss, randomized monitor-interval lengths, jittered
        flow arrivals) must draw from :attr:`rng` so that a scenario is fully
        reproducible from its seed.
    """

    def __init__(self, seed: Optional[int] = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        #: Heap of ``[time, seq, callback, args]``; ``seq`` is unique, so
        #: comparison never reaches the callback.
        self._queue: list[list] = []
        #: ``next(seq)`` numbers entries in push order, the tie-break at one
        #: instant; ``push(entry)`` is ``heappush`` bound to the heap at C
        #: level.  A link pushes its own entries with the two.
        self.seq = itertools.count()
        self.push = partial(heapq.heappush, self._queue)
        self._events_processed = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not self.now <= time < math.inf:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule at t={time:.9f}, which is before now={self.now:.9f}"
                )
            raise SimulationError("event time must be finite")
        event = Event((time, next(self.seq), callback, args))
        self.push(event)
        return event

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, until: float) -> None:
        """Run events in time order until simulated time ``until``.

        The simulator clock is advanced to exactly ``until`` when the run
        completes, even if the event queue drains early, so that metrics based
        on elapsed time (throughput over a run) are well defined.
        """
        if not math.isfinite(until):
            raise SimulationError(
                f"run() needs a finite end time, got {until}; use run_until_idle()"
            )
        if until < self.now:
            raise SimulationError(f"cannot run backwards to t={until} from t={self.now}")
        self._drain(until)
        self.now = until

    def run_until_idle(self) -> None:
        """Run until there are no pending events."""
        self._drain(math.inf)

    def _drain(self, limit: float) -> None:
        """Fire events in time order up to ``limit``.

        Fired events are counted in a local and added to
        :attr:`events_processed` when the drain ends, also by an exception.
        """
        queue = self._queue
        heappop = heapq.heappop
        fired = 0
        try:
            while queue:
                if queue[0][0] > limit:
                    break
                time, _, callback, args = heappop(queue)
                if callback is None:
                    continue
                self.now = time
                callback(*args)
                fired += 1
        finally:
            self._events_processed += fired

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def events_processed(self) -> int:
        """Number of events executed by the runs that have returned
        (cancelled events excluded); a callback reads the count at its run's
        start."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including lazily-cancelled ones)."""
        return len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={self.pending_events}, "
            f"processed={self._events_processed})"
        )
