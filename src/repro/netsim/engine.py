"""Discrete-event simulation engine.

The engine is a classic binary-heap event-list simulator built on
:mod:`heapq`.  It is deliberately small and allocation-light because every
packet transmission, propagation, queue service and timer in the network
simulator turns into one or more events, and the PCC evaluation scenarios push
hundreds of thousands of packets through it.  Heap entries are
``(time, seq, event)`` tuples, so ordering is C tuple comparison that never
looks past the unique ``seq``, and :meth:`Simulator.schedule_at` is the one
place that pushes.

Determinism matters: two runs with the same seed must produce identical
results so that experiments and tests are reproducible.  Ties in event time are
broken by a monotonically increasing sequence number (insertion order), and all
randomness flows through a single seeded :class:`random.Random` owned by the
simulator.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulator is used incorrectly (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can cancel
    them later (for example, a retransmission timer that is no longer needed).
    Cancellation is lazy: the event stays in the heap but is skipped when it
    reaches the front.  The owning simulator counts its cancelled backlog and
    compacts the heap once dead events dominate, so heavy cancellation (e.g.
    per-MI completion timers) cannot inflate heap operations for a whole run.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "sim")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire."""
        if not self.cancelled:
            self.cancelled = True
            if self.sim is not None:
                self.sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"Event(t={self.time:.6f}, {name}, {state})"


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
        #: Heap of ``(time, seq, event)``; ``seq`` is unique, so comparison
        #: never reaches the event.
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._events_processed = 0
        self._cancelled_pending = 0
        self._stopped = False

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
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time:.9f}, which is before now={self.now:.9f}"
            )
        if not math.isfinite(time):
            raise SimulationError("event time must be finite")
        event = Event(time, callback, args, self)
        heapq.heappush(self._queue, (time, self._seq, event))
        self._seq += 1
        if self._cancelled_pending > 256 and self._cancelled_pending * 2 > len(self._queue):
            self._compact()
        return event

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` to account the lazily-dead backlog."""
        self._cancelled_pending += 1

    def _compact(self) -> None:
        """Drop cancelled events from the heap in place and re-heapify.

        In-place (slice assignment) so that a compaction triggered from inside
        an event callback is seen by the local heap reference held by
        :meth:`_drain`.
        """
        self._queue[:] = [entry for entry in self._queue if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled_pending = 0

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
        if not self._stopped:
            self.now = until

    def run_until_idle(self, max_time: float = math.inf) -> None:
        """Run until there are no pending events (or ``max_time`` is reached)."""
        self._drain(max_time)

    def _drain(self, limit: float) -> None:
        """Fire events in time order up to ``limit`` or until :meth:`stop`.

        A ``stop()`` ends only the run it interrupted: the flag is cleared on
        entry, so the next ``run`` / ``run_until_idle`` resumes normally.
        """
        self._stopped = False
        queue = self._queue
        heappop = heapq.heappop
        while queue and not self._stopped:
            if queue[0][0] > limit:
                break
            time, _, event = heappop(queue)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            # Detach fired events so a late cancel() (a handle cancelled
            # after firing) cannot inflate the heap-backlog counter.
            event.sim = None
            self.now = time
            event.callback(*event.args)
            self._events_processed += 1

    def stop(self) -> None:
        """Stop the current run after the in-flight event completes."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def events_processed(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
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
