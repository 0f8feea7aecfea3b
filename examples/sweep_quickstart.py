"""Sweep quickstart: fan a scenario grid out across CPU cores.

Declares a small loss-rate sweep comparing PCC with CUBIC, runs it with
deterministic per-cell seeds (the results are bit-identical no matter how many
workers are used), puts each cell's record into a cell store as it completes,
prints each cell's goodput (``ResultSet.goodput_mbps``), and writes the
canonical JSON next to this script.  Because the run passes ``store``,
re-running this script after interrupting it simulates only the cells that
were not yet stored.

A cell store refuses cells computed by other code, so the store lives in a
directory named after the code's digest (``store.code_digest()``) under
``sweep_quickstart.store/``: after an edit under ``src/repro`` the script
starts a fresh store beside the old ones instead of failing, and an
unchanged tree keeps reusing its own.  Delete ``sweep_quickstart.store/`` to
drop them all.

Run with:  python examples/sweep_quickstart.py

The same sweep is available from the command line:

    python -m repro.experiments.sweep \
        --schemes pcc cubic --bandwidth-mbps 25 --loss 0.0 0.01 0.02 \
        --duration 10 --seed 1 --workers 4 \
        --store cells/ --output sweep.json
"""

import os

from repro.experiments import SweepGrid
from repro.experiments.store import code_digest
from repro.experiments.sweep import sweep


def main() -> None:
    grid = SweepGrid(
        schemes=("pcc", "cubic"),
        bandwidths_bps=(25e6,),
        rtts=(0.03,),
        loss_rates=(0.0, 0.01, 0.02),
        duration=10.0,
    )
    workers = min(4, os.cpu_count() or 1)
    here = os.path.dirname(__file__)
    store = os.path.join(here, "sweep_quickstart.store", code_digest()[:16])
    # Idempotent, crash-restartable: finished cells are put into the store as
    # they complete, and a re-run executes only what is not already there.
    result = sweep(grid, base_seed=1, workers=workers, store=store)

    print(f"=== loss sweep on a 25 Mbps / 30 ms link ({workers} workers) ===")
    print(f"{'scheme':<8} {'loss':>6} {'goodput_mbps':>13}")
    for scheme in grid.schemes:
        goodputs = [result.goodput_mbps(scheme=scheme, loss_rate=loss)
                    for loss in grid.loss_rates]
        for loss, goodput in zip(grid.loss_rates, goodputs, strict=True):
            print(f"{scheme:<8} {loss:>6.3f} {goodput:>13.2f}")
        print(f"mean over the loss axis: {scheme:<8} "
              f"{sum(goodputs) / len(goodputs):.2f} Mbps")
    print(f"\n{result.total_events:,} simulator events, "
          f"{result.events_per_second():,.0f} events/s across the sweep")

    output = os.path.join(here, "sweep_quickstart.json")
    result.write(output)
    print(f"per-cell records stored in {store}")
    print(f"canonical results written to {output}")


if __name__ == "__main__":
    main()
