"""Expressing different objectives with pluggable utility functions (§2.4, §4.4).

PCC's architecture separates *what to optimise* (the utility function) from
*how to optimise it* (the learning control).  This example runs the same
network with different objectives:

1. the default "safe" utility (throughput with a ~5% loss cap) on a link with
   30% random loss — throughput collapses because the utility treats that
   loss as a hard ceiling;
2. the loss-resilient utility T * (1 - L) — the flow keeps sending at its
   fair share and recovers most of the achievable goodput;
3. the latency-sensitive utility keeping self-inflicted queueing low on a
   bufferbloated link.

Utilities are selected by registered name (`utility=...`), the same
JSON-serializable currency the sweep grids use; instances
(`utility_function=...`) work too for bespoke objects.

Run with:  python examples/custom_utility.py
"""

from repro.core import make_pcc_sender
from repro.netsim import FlowStats, Simulator, single_bottleneck


def run_once(loss_rate, buffer_bytes, duration=20.0, bandwidth=40e6, rtt=0.03,
             **scheme_kwargs):
    sim = Simulator(seed=7)
    topo = single_bottleneck(sim, bandwidth, rtt, buffer_bytes=buffer_bytes,
                             loss_rate=loss_rate)
    stats = FlowStats(1)
    sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats,
                                               **scheme_kwargs)
    sender.start()
    sim.run(duration)
    return stats, duration


def main() -> None:
    print("=== 40 Mbps link with 30% random loss ===")
    stats, duration = run_once(loss_rate=0.30, buffer_bytes=150_000)
    print(f"safe utility:            {stats.goodput_bps(duration) / 1e6:6.2f} Mbps")
    stats, duration = run_once(loss_rate=0.30, buffer_bytes=150_000,
                               utility="loss_resilient")
    print(f"loss-resilient utility:  {stats.goodput_bps(duration) / 1e6:6.2f} Mbps"
          f"   (achievable: {40 * 0.7:.1f} Mbps)")

    print("\n=== 20 Mbps bufferbloated link (2 MB of buffer, ~800 ms full) ===")
    stats, duration = run_once(loss_rate=0.0, buffer_bytes=2_000_000,
                               bandwidth=20e6, rtt=0.02)
    print(f"safe utility:            mean RTT {stats.mean_rtt * 1000:7.1f} ms, "
          f"{stats.goodput_bps(duration) / 1e6:5.1f} Mbps")
    stats, duration = run_once(loss_rate=0.0, buffer_bytes=2_000_000,
                               bandwidth=20e6, rtt=0.02, utility="latency")
    print(f"latency utility:         mean RTT {stats.mean_rtt * 1000:7.1f} ms, "
          f"{stats.goodput_bps(duration) / 1e6:5.1f} Mbps")


if __name__ == "__main__":
    main()
