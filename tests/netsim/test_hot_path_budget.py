"""A budget on Python calls per simulated packet, on what a cell retains per
packet and per finished flow, and on what start-up imports.

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
from repro.experiments import run_flows
from repro.experiments.sweep import SweepCell, run_cell
from repro.experiments.workload import build_workload
from repro.netsim import (
    DEFAULT_MSS,
    FlowStats,
    Path,
    RateBasedSender,
    Receiver,
    SenderBase,
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


@pytest.mark.parametrize("scheme", ["cubic", "pcc"])
def test_a_cell_keeps_endpoints_only_for_running_flows(scheme):
    """Memory of a cell is O(flows in flight) plus a small record per flow,
    not O(flows offered): ``flow_churn``'s ``web`` traffic (30 KB flows at
    load 0.7 of 100 Mbps / 30 ms, about 290 a second) for 4 and for 8
    simulated seconds, **collector off** — endpoints go by reference count
    at a flow's last ACK or not at all.  Measured at 8 s, 2 269 flows: 255
    (cubic) and 82 (pcc) senders alive at the end against 300 and 364 flows
    still running or just finished, 31.8 and 28.9 more blocks per extra flow;
    with every endpoint built before the run and kept to its end, 2 269
    senders and 60.2 / 92.8 blocks."""
    def churn(duration):
        cell = SweepCell(index=0, scheme=scheme, bandwidth_bps=100e6, rtt=0.03,
                         loss_rate=0.0, buffer_bytes=None, num_flows=1,
                         duration=duration, seed=1, workload="web",
                         workload_kwargs={"load": 0.7, "size_kb": 30.0})
        before = sys.getallocatedblocks()
        sim = Simulator(seed=cell.seed)
        topo = single_bottleneck(sim, cell.bandwidth_bps, cell.rtt, 375_000)
        result = run_flows(sim, [topo.path], build_workload(cell), duration)
        return result, sys.getallocatedblocks() - before

    def live_senders():
        return sum(isinstance(obj, SenderBase) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        short, short_blocks = churn(4.0)
        strays = live_senders()
        long, long_blocks = churn(8.0)
        alive = live_senders() - strays
    finally:
        gc.enable()
    offered = len(long.flows)
    # A finished sender lives until its cancelled retransmission timer leaves
    # the heap: at most the 1 s initial RTO of the TCP family after its first
    # packet (the heap compacts earlier when cancelled events dominate it).
    running = sum(flow.flow_completion_time is None
                  or flow.stats.completion_time > 8.0 - 1.0
                  for flow in long.flows)
    assert offered > 2_000 and running < 0.2 * offered
    assert alive <= running, (
        f"{scheme}: {alive} senders alive after {offered} flows of which "
        f"{running} are unfinished or finished in the last simulated second; "
        f"finished flows keep their endpoints"
    )
    per_flow = (long_blocks - short_blocks) / (offered - len(short.flows))
    assert per_flow < 40, (
        f"{scheme}: {per_flow:.1f} allocated blocks per extra flow offered; "
        f"a finished flow keeps more than its record"
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set from Linux's /proc")
def test_a_twenty_second_churn_cell_peaks_under_45_mb():
    """The end-to-end form of the test above: a fresh interpreter that runs
    20 simulated seconds of the same ``web`` traffic under PCC (5 711 flows)
    through ``run_cell`` peaks at 31.9 MB resident; with endpoints kept for
    every flow offered it peaked at 65.3 MB.  ``VmHWM`` and not ``ru_maxrss``:
    the latter starts from the resident set of the process that spawned it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    peak_kb = subprocess.run(
        [sys.executable, "-c",
         "from repro.experiments.sweep import SweepCell, run_cell\n"
         "record = run_cell(SweepCell(index=0, scheme='pcc', bandwidth_bps=100e6,"
         " rtt=0.03, loss_rate=0.0, buffer_bytes=None, num_flows=1, duration=20.0,"
         " seed=1, workload='web', workload_kwargs={'load': 0.7, 'size_kb': 30.0}))\n"
         "assert len(record['flows']) > 5_000\n"
         "for line in open('/proc/self/status'):\n"
         "    if line.startswith('VmHWM'):\n"
         "        print(line.split()[1])"],
        check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert int(peak_kb) / 1024 < 45, f"peak RSS {int(peak_kb) / 1024:.1f} MB"


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
