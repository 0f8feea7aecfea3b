"""The four benchmark workloads, as lists of cell batches made from a seed.

A workload is a list of :class:`Part`\\ s.  One part is one call into the
program's public batch API (``sweep`` or ``run_report_spec``); it streams its
records to a JSONL file and a ``CellStore`` when asked, which is what lets
every workload be run *cold* (fresh store, every cell simulated) and *warm*
(same store, no cell simulated).  The program is reached only through
package-level public names, so module merges inside ``src/repro`` do not
break the benchmark.

All workloads are closed loop and single process (``workers=1``): one cell
after another.  The seed is handed to the program as ``base_seed``; per-cell
seeds derive from it, so the same seed gives the same cells.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, NamedTuple, Optional

from repro.experiments import SweepGrid, derive_seed
from repro.experiments.sweep import sweep
from repro.report import get_report_spec, render_report, run_report_spec

#: Simulated seconds per cell, sized so one cold pass of a workload is about
#: 4 s on the 2-core reference box and the 25 s run holds 5-6 of them.
PCC_LOSSY_SIM_S = 5.0
TCP_AQM_SIM_S = 7.0
FLOW_CHURN_SIM_S = 8.0
#: The report slice keeps the catalog's cells but caps each one's duration,
#: because the catalog's own durations make one cold pass take 15 s.
SLICE_MAX_SIM_S = 3.0
SLICE_SPECS = ("theorems", "fig10", "fct_load", "variable_bw", "parking_lot",
               "sec442")
#: ``--smoke`` shortens every simulated cell to this.
SMOKE_SIM_S = 1.0


class Part(NamedTuple):
    """One batch of cells: ``run(jsonl_path, store_dir)`` executes it."""

    part_id: str
    cells: int
    run: Callable[[Optional[str], str], Any]


class Workload(NamedTuple):
    """A named workload: ``parts(seed, smoke)`` generates its batches."""

    name: str
    why: str
    parts: Callable[[int, bool], List[Part]]


def result_of(out: Any) -> Any:
    """The ``ResultSet`` of a part's output (a ``SpecOutcome`` wraps one)."""
    return getattr(out, "result", out)


def render(outs: List[Any]) -> str:
    """What the user reads at the end: REPORT.md text or canonical JSON."""
    if all(hasattr(out, "claims") for out in outs):
        return render_report(outs)
    return "\n".join(result_of(out).to_json() for out in outs)


def _grid_part(part_id: str, grid: SweepGrid, seed: int) -> Part:
    def run(jsonl_path: Optional[str], store_dir: str) -> Any:
        return sweep(grid, base_seed=seed, workers=1, jsonl_path=jsonl_path,
                     store=store_dir, progress=False)
    return Part(part_id, len(grid.cells(seed)), run)


def _pcc_lossy(seed: int, smoke: bool) -> List[Part]:
    # Four flows, not one: a single PCC flow on a lossy link leaves its
    # starting phase early on some seeds and then sends 30 % fewer packets,
    # so the work would depend on the seed.  With four, whichever flows are
    # lucky fill the link and the work varies by 3 % across seeds.
    grid = SweepGrid(
        schemes=("pcc",), bandwidths_bps=(100e6,), rtts=(0.03,),
        loss_rates=(0.0, 0.001, 0.01), reverse_loss=True, flow_counts=(4,),
        duration=SMOKE_SIM_S if smoke else PCC_LOSSY_SIM_S)
    return [_grid_part("pcc_lossy", grid, seed)]


def _tcp_aqm(seed: int, smoke: bool) -> List[Part]:
    return [
        _grid_part(f"tcp_aqm_{qdisc}", SweepGrid(
            schemes=("cubic",), bandwidths_bps=(100e6,), rtts=(0.03,),
            flow_counts=(4,), qdisc=qdisc,
            duration=SMOKE_SIM_S if smoke else TCP_AQM_SIM_S), seed)
        for qdisc in ("droptail", "codel", "fq_codel")
    ]


def _flow_churn(seed: int, smoke: bool) -> List[Part]:
    duration = SMOKE_SIM_S if smoke else FLOW_CHURN_SIM_S
    web = SweepGrid(
        schemes=("pcc", "cubic"), bandwidths_bps=(100e6,), rtts=(0.03,),
        workload="web", workload_kwargs={"load": 0.7, "size_kb": 30.0},
        duration=duration)
    # 32 senders answering four times a second into a 1-BDP buffer: every
    # wave is 32 flow set-ups that overflow the queue and recover by timer.
    incast = SweepGrid(
        schemes=("cubic",), bandwidths_bps=(100e6,), rtts=(0.03,),
        flow_counts=(32,), workload="incast",
        workload_kwargs={"waves": int(duration * 4), "wave_interval": 0.25,
                         "size_kb": 30.0},
        duration=duration)
    return [_grid_part("churn_web", web, seed),
            _grid_part("churn_incast", incast, seed)]


def _reseeded_spec(spec_id: str, seed: int, max_sim_s: float) -> Any:
    """The catalog spec with its seeds taken from ``seed`` and every cell's
    simulated duration capped at ``max_sim_s``.

    Grid runs take ``seed`` as their base seed; scenario runs pin one seed
    per cell, which is re-derived from ``seed`` and the cell index.  The run
    objects are told apart by their fields, not their classes, so folding
    scenario runs into grids later does not break this.
    """
    spec = get_report_spec(spec_id)
    run = spec.run
    if hasattr(run, "grids"):
        grids = tuple(
            dataclasses.replace(grid, duration=min(grid.duration, max_sim_s))
            for grid in run.grids)
        run = dataclasses.replace(run, grids=grids, base_seed=seed)
    else:
        cells = []
        for cell in run.cells():
            kwargs = dict(cell.kwargs)
            if "duration" in kwargs:
                kwargs["duration"] = min(kwargs["duration"], max_sim_s)
            cells.append(dataclasses.replace(
                cell, seed=derive_seed(seed, cell.index), kwargs=kwargs))
        run = dataclasses.replace(run, cells_list=tuple(cells),
                                  base_seed=seed)
    return dataclasses.replace(spec, run=run)


def _report_slice(seed: int, smoke: bool) -> List[Part]:
    parts = []
    for spec_id in SLICE_SPECS:
        spec = _reseeded_spec(spec_id, seed,
                              SMOKE_SIM_S if smoke else SLICE_MAX_SIM_S)

        def run(jsonl_path: Optional[str], store_dir: str,
                spec: Any = spec) -> Any:
            return run_report_spec(spec, workers=1, jsonl_path=jsonl_path,
                                   store=store_dir, progress=False)
        parts.append(Part(spec_id, len(spec.run.cells()), run))
    return parts


WORKLOADS = (
    Workload(
        "pcc_lossy",
        "four PCC flows on a lossy, rarely queued link: core and the "
        "rate-paced half of endpoints work, qdisc and cc idle",
        _pcc_lossy),
    Workload(
        "tcp_aqm",
        "four CUBIC flows keep droptail, CoDel and FQ-CoDel backlogged: "
        "link chained service, qdisc, cc and windowed endpoints work, "
        "core idles",
        _tcp_aqm),
    Workload(
        "flow_churn",
        "about 5000 short web and incast flows: per-flow construction, "
        "slow-start-only transfers, timer arming and cancelling and large "
        "per-flow records instead of steady-state transfer",
        _flow_churn),
    Workload(
        "report_slice",
        "six report specs through run_report_spec into a cell store, then "
        "re-run warm and rendered: the path users run, store written then "
        "read",
        _report_slice),
)


def get_workload(name: str) -> Workload:
    """Look a workload up by name."""
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{[w.name for w in WORKLOADS]}")
