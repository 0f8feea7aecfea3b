"""A budget on Python calls per simulated packet, and on what start-up imports.

Counts, not seconds: the same cell makes the same calls on any machine, so
this cannot flake, and a change that adds a frame to the per-packet path has
to raise a number here in the open.  The cells are the benchmark's shapes
(``tcp_aqm``'s droptail part and ``pcc_lossy``'s flow count, clean and at 1 %
loss both ways) cut to one simulated second.
"""

import cProfile
import os
import pstats
import subprocess
import sys

import pytest

import repro
from repro.experiments.sweep import SweepCell, run_cell
from repro.netsim import DEFAULT_MSS

HOT_PACKAGES = ("/repro/netsim/", "/repro/cc/", "/repro/core/")

#: Calls per delivered MSS packet.  Measured when set: cubic 51.7, pcc 74.1,
#: pcc_lossy (1 % loss on data and ACKs, so ``on_loss -> record_loss`` and the
#: retransmission queue run) 70.2; before the pacing rate became a published
#: attribute and the monitor hooks one frame each: cubic 51.7, pcc 109.5,
#: pcc_lossy 102.6; before tuple heap entries, single-frame delivery and the
#: packet as its own sent-record: cubic 99.9, pcc 181.7.
BUDGETS = {"cubic": 57, "pcc": 77, "pcc_lossy": 77}

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
