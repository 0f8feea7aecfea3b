"""Satellite / lossy-link comparison (the §4.1.3 and §4.1.4 scenarios).

Runs PCC against the specially-engineered TCP variants on two of the paper's
headline environments and prints the comparison tables:

* an emulated satellite link (42 Mbps, 800 ms RTT, 0.74% random loss);
* a terrestrial link with increasing random loss (100 Mbps, 30 ms RTT).

Both are plain sweep grids with the axis values and base seeds of the
``fig6`` and ``fig7`` report specs, so the numbers match those sections of
REPORT.md (``python -m repro.report --only fig6,fig7 --report PATH`` adds the
graded claims).  PCC's start-up is seed-sensitive in runs this short; other
base seeds can leave one PCC cell stalled near its initial rate.

Run with:  python examples/lossy_satellite_link.py   (takes a couple of minutes)
"""

import os

from repro.experiments import SweepGrid
from repro.experiments.sweep import sweep

WORKERS = min(4, os.cpu_count() or 1)


def satellite_comparison() -> None:
    schemes = ("pcc", "hybla", "illinois", "cubic")
    buffers = (7_500.0, 1_000_000.0)
    result = sweep(SweepGrid(
        schemes=schemes, bandwidths_bps=(42e6,), rtts=(0.8,),
        loss_rates=(0.0074,), buffers_bytes=buffers, duration=60.0,
    ), base_seed=3, workers=WORKERS)
    print("=== Satellite link: 42 Mbps, 800 ms RTT, 0.74% loss ===")
    print(f"{'scheme':<10} {'7.5 KB buffer':>14} {'1 MB buffer':>12}   (Mbps)")
    for scheme in schemes:
        row = [result.goodput_mbps(scheme=scheme, buffer_bytes=buffer_bytes)
               for buffer_bytes in buffers]
        print(f"{scheme:<10} {row[0]:>14.2f} {row[1]:>12.2f}")


def random_loss_comparison() -> None:
    schemes = ("pcc", "illinois", "cubic")
    losses = (0.001, 0.01, 0.02, 0.04)
    # Loss hits the ACK direction too, as in the paper's Figure 7 set-up.
    result = sweep(SweepGrid(
        schemes=schemes, bandwidths_bps=(100e6,), rtts=(0.03,),
        loss_rates=losses, duration=15.0, reverse_loss=True,
    ), base_seed=4, workers=WORKERS)
    print("\n=== Random loss on a 100 Mbps / 30 ms link ===")
    print(f"{'loss rate':<10} {'pcc':>10} {'illinois':>10} {'cubic':>10}   (Mbps)")
    for loss in losses:
        row = [result.goodput_mbps(scheme=scheme, loss_rate=loss)
               for scheme in schemes]
        print(f"{loss:<10.3f} {row[0]:>10.1f} {row[1]:>10.1f} {row[2]:>10.1f}")


if __name__ == "__main__":
    satellite_comparison()
    random_loss_comparison()
