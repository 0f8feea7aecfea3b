"""Closed-form oracle: one link fed Poisson arrivals is an M/D/1 queue.

Fixed-size packets into a link with an unbounded FIFO and no propagation
delay see a deterministic service time ``1 / mu``, so by Pollaczek-Khinchine
the mean time a packet waits before its serialization starts is

    W_q = rho / (2 mu (1 - rho)),    rho = lambda / mu.

The check is statistical: the simulated mean is compared with ``W_q`` within
``Z`` standard errors estimated from the run itself by batch means, so the
band widens or narrows with the run's own noise rather than with the seed.
"""

import math
import math
import random

import pytest

from repro.netsim import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.route import Route
from repro.units import BITS_PER_BYTE

PACKET_BYTES = 1500
BANDWIDTH_BPS = 10e6
ARRIVALS = 50_000
#: Consecutive arrivals are grouped into this many batches; batch means are
#: close to independent when a batch spans many busy periods.
BATCHES = 50
#: Half-width of the acceptance band, in batch-means standard errors.
Z = 3.0


def queueing_waits(rho, seed):
    """Simulate ``ARRIVALS`` Poisson arrivals at load ``rho``; return each
    packet's wait before service, in arrival order, and the service time."""
    sim = Simulator(seed=seed)
    link = Link(sim, BANDWIDTH_BPS, 0.0, queue=DropTailQueue(math.inf))
    service = PACKET_BYTES * BITS_PER_BYTE / BANDWIDTH_BPS
    waits = []
    # With no propagation delay a packet is delivered when its serialization
    # ends, so delivery - arrival - service is the time it spent queued.
    route = Route([link], lambda packet: waits.append(
        sim.now - packet.sent_time - service))
    interarrival = random.Random(seed)
    rate = rho / service

    def arrive(index):
        route.send(Packet(0, index, index, PACKET_BYTES, sim.now))
        if index + 1 < ARRIVALS:
            sim.schedule(interarrival.expovariate(rate), arrive, index + 1)

    sim.schedule(interarrival.expovariate(rate), arrive, 0)
    sim.run_until_idle()
    return waits, service


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_mean_queueing_wait_matches_md1(rho):
    waits, service = queueing_waits(rho, seed=1)
    assert len(waits) == ARRIVALS
    mu = 1.0 / service
    expected = rho / (2.0 * mu * (1.0 - rho))
    size = ARRIVALS // BATCHES
    means = [sum(waits[i * size:(i + 1) * size]) / size for i in range(BATCHES)]
    mean = sum(means) / BATCHES
    standard_error = math.sqrt(
        sum((m - mean) ** 2 for m in means) / (BATCHES - 1) / BATCHES)
    # The run is long enough for the band to mean something: the standard
    # error is under 5 % of the expected wait (1.7 % at rho 0.5, 2.9 % at 0.8).
    assert standard_error < 0.05 * expected
    assert abs(mean - expected) < Z * standard_error, (
        f"mean wait {mean * 1e3:.4f} ms vs M/D/1 {expected * 1e3:.4f} ms "
        f"(standard error {standard_error * 1e3:.4f} ms)")
