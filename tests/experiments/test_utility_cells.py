"""End-to-end pins of the §4.4 utility-flexibility claims via sweep cells.

These run the *same* PCC machinery through the sweep subsystem's ``utilities``
axis — the full path a figure regeneration takes — and assert the paper's two
headline flexibility results: loss resilience (§4.4.2) and low self-inflicted
latency (§4.4.1).
"""

from repro.experiments.sweep import SweepGrid, sweep

BANDWIDTH = 20e6


class TestLossResilientUtilityCell:
    def test_sustains_fair_share_at_30_percent_loss_where_safe_collapses(self):
        """§4.4.2: at 30% random loss the achievable goodput is
        ``0.7 * capacity``; the loss-resilient utility keeps >= 90% of that
        fair share while the safe utility's 5% loss cap collapses it."""
        grid = SweepGrid(
            schemes=("pcc",),
            bandwidths_bps=(BANDWIDTH,),
            rtts=(0.03,),
            loss_rates=(0.3,),
            utilities=(None, "loss_resilient"),
            duration=20.0,
        )
        result = sweep(grid, base_seed=0, workers=2)
        fair_share_mbps = BANDWIDTH / 1e6 * (1.0 - 0.3)
        (safe_cell,) = [c for c in result.cells if "utility" not in c["cell"]]
        safe = sum(flow["goodput_mbps"] for flow in safe_cell["flows"])
        resilient = result.goodput_mbps(utility="loss_resilient")
        assert resilient >= 0.9 * fair_share_mbps
        assert safe < 0.1 * fair_share_mbps  # the safe utility collapses
        # The identity JSON records which utility produced which cell.
        cell = result.one(utility="loss_resilient")
        assert cell["cell"]["scheme_kwargs"] == {"utility": "loss_resilient"}


class TestLatencyUtilityCell:
    def test_keeps_queue_delay_far_below_safe_in_a_deep_buffer(self):
        """§4.4.1: on a bufferbloated drop-tail link (2 MB buffer, ~800 ms
        when full) the latency utility keeps mean queueing delay a small
        fraction of what the throughput-oriented safe utility builds."""
        base_rtt = 0.02
        grid = SweepGrid(
            schemes=("pcc",),
            bandwidths_bps=(BANDWIDTH,),
            rtts=(base_rtt,),
            buffers_bytes=(2_000_000.0,),
            utilities=(None, "latency"),
            duration=20.0,
        )
        result = sweep(grid, base_seed=0, workers=2)
        (safe_cell,) = [c for c in result.cells if "utility" not in c["cell"]]
        latency_cell = result.one(utility="latency")
        safe_queue_ms = safe_cell["flows"][0]["mean_rtt_ms"] - base_rtt * 1e3
        latency_queue_ms = (latency_cell["flows"][0]["mean_rtt_ms"]
                            - base_rtt * 1e3)
        # The safe utility fills the deep buffer (hundreds of ms of queue);
        # the latency utility keeps well under a quarter of that.
        assert safe_queue_ms > 400.0
        assert latency_queue_ms < 0.25 * safe_queue_ms
        # ... without giving up meaningful throughput.
        latency_goodput = sum(f["goodput_mbps"] for f in latency_cell["flows"])
        safe_goodput = sum(f["goodput_mbps"] for f in safe_cell["flows"])
        assert latency_goodput > 0.8 * safe_goodput
