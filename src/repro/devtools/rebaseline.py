"""Regenerate every behaviour golden with one command and print what moved.

``python -m repro.devtools.rebaseline STORE_DIR`` writes each file in
:data:`GOLDENS` from its producer, then prints one table of every moved value
(file, key path, old, new, relative change) and a summary line.  STORE_DIR is
a cell store, so a second run simulates nothing; output is byte-identical for
any worker count, and the command uses every CPU.  The identity goldens
``golden_identities.json`` and ``golden_store_keys.json`` are not in the
table: a behaviour fix must not move a cell's identity.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..experiments.execute import execute_cells
from ..experiments.results import write_atomic
from ..experiments.sweep import SweepCell, SweepGrid, run_cell
from ..report import (Claim, GridRun, ReportSpec, get_report_spec, list_report_specs,
                      render_report, run_report_spec)

__all__ = ["ABSENT", "CAPPED", "CHEAP", "GOLDENS", "GOLDEN_GRIDS", "ROOT", "TINY_GRID", "Moved",
           "capped_rows", "diff", "format_moved", "main", "rows_file", "simulated_spec_ids"]

#: The checkout every path in :data:`GOLDENS` is relative to.
ROOT = Path(__file__).resolve().parents[3]
_DATA = "tests/experiments/data/"
#: The base seed of every fixed-seed sweep golden.
_SEED = 7
#: The bottleneck the fixed-seed sweep goldens share (but PCC's 5 Mbps cells).
_LINK_BPS = 20e6
#: The simulated seconds each cell of ``golden_capped_rows.json`` is cut to.
_ROWS_CAP_S = 1.0


def rows_file(rows_by_spec: Dict[str, List[Dict[str, Any]]]) -> str:
    """Lay out ``{spec: [rows]}`` one row per line, so a moved number is one diff line."""
    return "{\n" + ",\n".join(
        f" {json.dumps(spec_id)}: [\n" + ",\n".join(f"  {json.dumps(row)}" for row in rows)
        + "\n ]" for spec_id, rows in rows_by_spec.items()) + "\n}\n"


@functools.lru_cache(maxsize=1)
def _report_pass(store: Optional[str], workers: int) -> List[Any]:
    """Run every catalog spec once: ``REPORT.md`` and its rows share the pass."""
    return [run_report_spec(spec, workers=workers, store=store) for spec in list_report_specs()]


def _capped(spec_id: str, cell: SweepCell) -> SweepCell:
    if spec_id == "fig12":
        # Its rows read from 5 s after the last of four flows joins to 1 s
        # before the end.
        return dataclasses.replace(cell, duration=16.0, stagger=2.0)
    return dataclasses.replace(cell, duration=min(cell.duration, _ROWS_CAP_S))


def simulated_spec_ids() -> List[str]:
    """Return, in catalog order, the specs with cells: the keys of :data:`CAPPED`."""
    return [spec.spec_id for spec in list_report_specs() if spec.run.cells()]


def capped_rows(spec_id: str, store: Optional[str], workers: int) -> List[Dict[str, Any]]:
    """Return ``spec_id``'s rows over its own cells cut short."""
    spec = get_report_spec(spec_id)
    return spec.rows(execute_cells([_capped(spec_id, cell) for cell in spec.run.cells()],
                                   run_cell, spec.run.base_seed, workers=workers, store=store))


def _capped_rows(store: Optional[str], workers: int) -> str:
    return rows_file({spec_id: capped_rows(spec_id, store, workers)
                      for spec_id in simulated_spec_ids()})


_TINY_SCHEMES = ("pcc", "cubic")

#: A 2x2 one-second grid whose rendered report pins the renderer: summary
#: table, section and both claim statuses for four cells.
TINY_GRID = ReportSpec(
    spec_id="tiny_grid", title="Tiny test grid", paper_section="test",
    run=GridRun(grids=(SweepGrid(schemes=_TINY_SCHEMES, bandwidths_bps=(5e6,), rtts=(0.03,),
                                 loss_rates=(0.0, 0.01), duration=1.0),), base_seed=1),
    rows=lambda result: [{"loss": loss, **{scheme: result.goodput_mbps(
        scheme=scheme, loss_rate=loss) for scheme in _TINY_SCHEMES}} for loss in (0.0, 0.01)],
    columns=("loss", *_TINY_SCHEMES),
    claims=(
        Claim("goodput-positive", "Every cell moves traffic",
              lambda rows: {"lowest": min(row[s] for row in rows for s in _TINY_SCHEMES)},
              (("lowest", ">", 0),), "min cell goodput {lowest:.3f} Mbps"),
        Claim("weakened-claim", "A deliberately weakened claim reports DEVIATION",
              lambda rows: {}, (), "always holds", deviation="EXPERIMENTS.md (test pointer)"),
    ),
)

#: Two flows of each scheme behind each randomized or composed discipline;
#: the golden holds each cell's ``engine`` and ``flows``, not its identity.
AQM_GRIDS = tuple(
    SweepGrid(schemes=("cubic", "pcc"), bandwidths_bps=(_LINK_BPS,), rtts=(0.03,),
              flow_counts=(2,), duration=2.0, qdisc=qdisc, qdisc_kwargs=kwargs)
    for qdisc, kwargs in (("red", {}), ("pie", {}), ("fq_codel", {}),
                          ("fq", {"child": "infinite"})))


def _aqm_trajectories(store: Optional[str], workers: int) -> str:
    trajectories = []
    for grid in AQM_GRIDS:
        cells = grid.cells(_SEED)
        result = execute_cells(cells, run_cell, _SEED, workers=workers, store=store)
        trajectories += [{"scheme": cell.scheme, "qdisc": cell.qdisc,
                          "qdisc_kwargs": cell.qdisc_kwargs,
                          "engine": record["engine"], "flows": record["flows"]}
                         for cell, record in zip(cells, result.cells, strict=True)]
    return json.dumps({"base_seed": _SEED, "cells": trajectories},
                      indent=2, sort_keys=True) + "\n"


#: Fixed-seed grids whose canonical JSON is a golden: the default PCC grid
#: (rate-paced senders), four CUBIC flows over a lossy link behind droptail
#: and CoDel (windowed senders, ACK loss, AQM drops), and the churn path (a
#: Poisson storm of 30 KB ``web`` flows and two 8-sender ``incast`` waves:
#: flows that start mid-run, finish, and leave packets and timers behind).
GOLDEN_GRIDS: Dict[str, Tuple[SweepGrid, ...]] = {
    "golden_pcc_sweep_seed7.json": (
        SweepGrid(schemes=("pcc",), bandwidths_bps=(5e6, _LINK_BPS), rtts=(0.03,),
                  loss_rates=(0.0, 0.01), flow_counts=(1, 2), duration=3.0, stagger=0.5),),
    "golden_cubic_aqm_seed7.json": tuple(
        SweepGrid(schemes=("cubic",), bandwidths_bps=(_LINK_BPS,), rtts=(0.03,),
                  loss_rates=(0.005,), flow_counts=(4,), duration=2.0, reverse_loss=True,
                  qdisc=qdisc) for qdisc in ("droptail", "codel")),
    "golden_churn_seed7.json": (
        SweepGrid(schemes=("pcc", "cubic"), bandwidths_bps=(_LINK_BPS,), rtts=(0.03,),
                  duration=2.0, workload="web", workload_kwargs={"load": 0.7, "size_kb": 30.0}),
        SweepGrid(schemes=("cubic",), bandwidths_bps=(_LINK_BPS,), rtts=(0.03,),
                  flow_counts=(8,), duration=2.0, workload="incast",
                  workload_kwargs={"waves": 2, "wave_interval": 0.5, "size_kb": 30.0})),
}


def _sweep(grids: Tuple[SweepGrid, ...], store: Optional[str], workers: int) -> str:
    return execute_cells([cell for grid in grids for cell in grid.cells(_SEED)], run_cell,
                         _SEED, workers=workers, store=store).to_json() + "\n"


_FULL_PASS = ("REPORT.md", _DATA + "golden_report_rows.json")
#: Every simulated spec's rows over its own cells cut short, keyed by spec.
CAPPED = _DATA + "golden_capped_rows.json"

#: Every behaviour golden, by path from :data:`ROOT`, and the function that
#: produces its text from ``(store, workers)``.
GOLDENS: Dict[str, Callable[[Optional[str], int], str]] = {
    _FULL_PASS[0]: lambda store, workers: render_report(_report_pass(store, workers)),
    _FULL_PASS[1]: lambda store, workers: rows_file(
        {outcome.spec.spec_id: outcome.rows for outcome in _report_pass(store, workers)}),
    CAPPED: _capped_rows,
    _DATA + "golden_tiny_report.md": lambda store, workers: render_report(
        [run_report_spec(TINY_GRID, workers=workers, store=store)]),
    _DATA + "golden_aqm_seed7.json": _aqm_trajectories,
    **{_DATA + name: functools.partial(_sweep, grids) for name, grids in GOLDEN_GRIDS.items()},
}

#: What tier-1 regenerates: all but the full report pass (two minutes cold).
CHEAP = tuple(path for path in GOLDENS if path not in _FULL_PASS)


#: The old value of an added key, list item or line; the new one of a removed one.
ABSENT = "(absent)"


class Moved(NamedTuple):
    """One value that differs between a golden's old and new text."""

    file: str
    key: str
    old: Any
    new: Any


def _json_moved(key: str, old: Any, new: Any) -> Iterator[Tuple[str, Any, Any]]:
    if isinstance(old, dict) and isinstance(new, dict):
        for name in [*old, *(name for name in new if name not in old)]:
            yield from _json_moved(f"{key}.{name}" if key else name,
                                   old.get(name, ABSENT), new.get(name, ABSENT))
    elif isinstance(old, list) and isinstance(new, list):
        for i, pair in enumerate(itertools.zip_longest(old, new, fillvalue=ABSENT)):
            yield from _json_moved(f"{key}[{i}]", *pair)
    elif old != new or type(old) is not type(new):
        yield key, old, new


def _lines_moved(old: List[str], new: List[str]) -> Iterator[Tuple[str, Any, Any]]:
    # Aligned, so an inserted line is one value, not a shift of every line after it.
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, old, new, autojunk=False).get_opcodes():
        if tag != "equal":
            for k, (was, now) in enumerate(itertools.zip_longest(
                    old[i1:i2], new[j1:j2], fillvalue=ABSENT)):
                yield f"line {(j1 if now != ABSENT else i1) + k + 1}", was, now


def diff(path: str, old: str, new: str) -> List[Moved]:
    """Return every value that moved between two texts of the golden at ``path``.

    JSON compares leaf by leaf (key paths like ``fig7[2].pcc``; an added or
    removed key or list item is one value), anything else line by line.
    Equal texts yield no rows and unequal ones at least one.
    """
    if old == new:
        return []
    moved = (_json_moved("", json.loads(old), json.loads(new)) if path.endswith(".json")
             else _lines_moved(old.splitlines(), new.splitlines()))
    return [Moved(path, *row) for row in moved] or [Moved(path, "(layout)", ABSENT, ABSENT)]


def _show(value: Any) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def format_moved(moved: Sequence[Moved], files: int) -> str:
    """Format ``moved`` as one table and a summary line over ``files`` goldens."""
    lines = ["file\tkey\told\tnew\tchange"] if moved else []
    for row in moved:
        numbers = all(type(value) in (int, float) for value in (row.old, row.new))
        change = f"{(row.new - row.old) / abs(row.old):+.2%}" if numbers and row.old else ""
        lines.append("\t".join((os.path.basename(row.file), row.key, _show(row.old),
                                _show(row.new), change)))
    return "\n".join([*lines, f"rebaseline: {len(moved)} values moved in "
                      f"{len({row.file for row in moved})} of {files} behaviour goldens"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Regenerate every golden in :data:`GOLDENS`, then print what moved."""
    parser = argparse.ArgumentParser(prog="python -m repro.devtools.rebaseline",
                                     description="Regenerate every behaviour golden.")
    parser.add_argument("store", metavar="STORE_DIR", help="cell store to reuse and fill")
    store = parser.parse_args(argv).store
    texts = {path: produce(store, os.cpu_count() or 1) for path, produce in GOLDENS.items()}
    moved = []
    for path, text in texts.items():
        moved += diff(path, (ROOT / path).read_text(), text)
        write_atomic(str(ROOT / path), (text,))
    print(format_moved(moved, len(GOLDENS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
