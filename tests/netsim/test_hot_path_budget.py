"""A budget on Python calls per simulated packet.

Counts, not seconds: the same cell makes the same calls on any machine, so
this cannot flake, and a change that adds a frame to the per-packet path has
to raise a number here in the open.  The cells are the benchmark's shapes
(``tcp_aqm``'s droptail part and ``pcc_lossy``'s flow count) cut to one
simulated second.
"""

import cProfile
import pstats

import pytest

from repro.experiments.sweep import SweepCell, run_cell
from repro.netsim import DEFAULT_MSS

HOT_PACKAGES = ("/repro/netsim/", "/repro/cc/", "/repro/core/")

#: Calls per delivered MSS packet.  Measured when set: cubic 51.7, pcc 109.5;
#: before tuple heap entries, single-frame delivery and the packet as its own
#: sent-record: cubic 99.9, pcc 181.7.
BUDGETS = {"cubic": 57, "pcc": 120}


def calls_per_packet(scheme: str) -> float:
    cell = SweepCell(index=0, scheme=scheme, bandwidth_bps=100e6, rtt=0.03,
                     loss_rate=0.0, buffer_bytes=None, num_flows=4, duration=1.0,
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


@pytest.mark.parametrize("scheme", sorted(BUDGETS))
def test_python_calls_per_delivered_packet_stay_in_budget(scheme):
    budget = BUDGETS[scheme]
    measured = calls_per_packet(scheme)
    assert measured <= budget, (
        f"{scheme}: {measured:.1f} Python calls in repro/netsim|cc|core per "
        f"delivered packet, budget {budget}"
    )
