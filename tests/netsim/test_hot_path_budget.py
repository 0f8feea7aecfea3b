"""A budget on Python calls per simulated packet, on what a cell retains per
packet, and on what start-up imports.

Counts, not seconds: the same cell makes the same calls on any machine, so
this cannot flake, and a change that adds a frame to the per-packet path has
to raise a number here in the open.  The cells are the benchmark's shapes
(``tcp_aqm``'s droptail part and ``pcc_lossy``'s flow count, clean and at 1 %
loss both ways) cut to one simulated second.
"""

import cProfile
import gc
import os
import pstats
import subprocess
import sys

import pytest

import repro
from repro.cc import CubicController
from repro.core import PCCScheme
from repro.experiments.sweep import SweepCell, run_cell
from repro.netsim import (
    DEFAULT_MSS,
    FlowStats,
    Path,
    RateBasedSender,
    Receiver,
    Simulator,
    WindowedSender,
    connect,
    single_bottleneck,
)

HOT_PACKAGES = ("/repro/netsim/", "/repro/cc/", "/repro/core/")

#: Calls per delivered MSS packet.  Measured when set: cubic 40.9, pcc 67.1,
#: pcc_lossy (1 % loss on data and ACKs, so ``on_loss -> record_loss`` and the
#: retransmission queue run) 63.1; before the per-ACK rate series was deleted
#: and the usual ACK became one sender frame: cubic 51.7, pcc 74.1, pcc_lossy
#: 70.2; before the pacing rate became a published attribute and the monitor
#: hooks one frame each: cubic 51.7, pcc 109.5, pcc_lossy 102.6; before tuple
#: heap entries, single-frame delivery and the packet as its own sent-record:
#: cubic 99.9, pcc 181.7.
BUDGETS = {"cubic": 43, "pcc": 69, "pcc_lossy": 65}

#: Case -> (scheme, loss rate on the data and the ACK direction).
CELLS = {"cubic": ("cubic", 0.0), "pcc": ("pcc", 0.0), "pcc_lossy": ("pcc", 0.01)}


def calls_per_packet(case: str) -> float:
    scheme, loss_rate = CELLS[case]
    cell = SweepCell(index=0, scheme=scheme, bandwidth_bps=100e6, rtt=0.03,
                     loss_rate=loss_rate, reverse_loss=loss_rate > 0,
                     buffer_bytes=None, num_flows=4, duration=1.0,
                     seed=1, qdisc="droptail")
    profile = cProfile.Profile()
    try:
        record = profile.runcall(run_cell, cell)
    except ValueError:  # pragma: no cover - another profiler (coverage) is active
        pytest.skip("cProfile is unavailable while another profiler is active")
    calls = sum(
        ncalls
        for (filename, _, _), (_, ncalls, _, _, _) in pstats.Stats(profile).stats.items()
        if any(package in filename.replace("\\", "/") for package in HOT_PACKAGES)
    )
    packets = (sum(row["goodput_mbps"] for row in record["flows"])
               * 1e6 * cell.duration / 8 / DEFAULT_MSS)
    return calls / packets


@pytest.mark.parametrize("case", sorted(BUDGETS))
def test_python_calls_per_delivered_packet_stay_in_budget(case):
    budget = BUDGETS[case]
    measured = calls_per_packet(case)
    assert measured <= budget, (
        f"{case}: {measured:.1f} Python calls in repro/netsim|cc|core per "
        f"delivered packet, budget {budget}"
    )


@pytest.mark.parametrize("scheme", ["cubic", "pcc"])
def test_a_cell_retains_nothing_per_packet_sent(scheme):
    """Memory of a cell is O(packets in flight + flows), not O(packets sent):
    between simulated second 2 and 4 four flows deliver about 16 000 more
    packets and the interpreter must not hold more blocks for it.  Measured
    cubic -122, pcc -1 156; with the per-ACK ``(time, rate)`` list this
    replaced, cubic +49 882 (three blocks per ACK)."""
    sim = Simulator(seed=1)
    topo = single_bottleneck(sim, 100e6, 0.03, 375_000)
    for flow_id in range(1, 5):
        path = Path(topo.path.forward_links, topo.path.reverse_links)
        stats = FlowStats(flow_id)
        if scheme == "cubic":
            sender = WindowedSender(sim, flow_id, path, CubicController(), stats)
        else:
            sender = RateBasedSender(sim, flow_id, path, PCCScheme(), stats)
        connect(sender, Receiver(sim, flow_id, stats), path)
        sender.start()

    def blocks_at(until):
        sim.run(until)
        gc.collect()
        return sys.getallocatedblocks()

    before = blocks_at(2.0)
    grown = blocks_at(4.0) - before
    assert grown < 2_000, (
        f"{scheme}: {grown} more allocated blocks at simulated second 4 than "
        f"at second 2; something keeps an object per packet"
    )


def test_report_and_sweep_start_without_numpy():
    """Every CLI start, spawn worker and ``setup_s`` sample pays for what
    ``repro.report`` and ``repro.experiments.sweep`` import; numpy alone was
    0.19 s of 0.22 s, for scalar loops over at most six rates.  The process
    pool is imported where ``workers > 1`` opens one, not at start-up."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.report, repro.experiments.sweep; "
         "assert not {'numpy', 'multiprocessing', "
         "'concurrent.futures.process'} & set(sys.modules)"],
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
