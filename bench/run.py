"""The benchmark's one command.

Two ways to call it.

**One workload, one JSON line** (what the pipeline's driver runs)::

    python3 bench/run.py --workload tcp_aqm --seed 7 --seconds 25 --trace 0

measures the workload for ``--seconds`` and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}`` with every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``:
one pass under the benchmark's own tracing plus the isolated layer drivers).

**All four workloads, result files** (what a person runs)::

    python3 bench/run.py --seed 0 [--trace] [--layers] [--out DIR]

prints every end-to-end metric by name with its unit and writes
``BENCH_e2e.json``; with ``--trace`` and/or ``--layers`` it also writes
``BENCH_layers.json``.  ``--smoke`` shortens every cell to one simulated
second, runs one repeat and writes nothing.

Exit status is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_DIR, "src")
DEFAULT_OUT = os.path.join(BENCH_DIR, "results")


def _declared() -> Dict[str, Any]:
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _units(declared: Dict[str, Any], section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in declared[section]}


def _print_e2e(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['repeats']} repeats  "
          f"{'NOISY  ' if result['noisy'] else ''}"
          f"result_digest {result['result_digest'][:16]}")
    for name, m in result["metrics"].items():
        spread = "" if m["q1"] is None else \
            f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]"
        print(f"  {name:<18}{m['value']:>14.6g} {m['unit']:<4}"
              f"{spread}  n={m['n']}")
    print(f"  {'fail_share':<18}{result['fail_share']:>14.6g}       "
          f"{result['failed']} of {result['attempted']} cells")
    for line in result["failed_cells"]:
        print(f"    FAILED {line}")


def _print_layers(name: str, metrics: Dict[str, Any],
                  units: Dict[str, str]) -> None:
    print(f"== {name}: per-layer metrics")
    for metric, value in metrics.items():
        print(f"  {metric:<40}{value:>14.6g} {units.get(metric, '')}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="measure only this workload and "
                        "print the one-line JSON result last")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="run the traced pass")
    parser.add_argument("--layers", action="store_true",
                        help="run the isolated layer drivers")
    parser.add_argument("--smoke", action="store_true",
                        help="1 simulated s per cell, 1 repeat, no files")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="directory for BENCH_e2e.json / "
                             "BENCH_layers.json")
    parser.add_argument("--enumerate", action="store_true",
                        help=argparse.SUPPRESS)  # the child setup_s times
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: no program to measure: {SRC_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    from workloads import get_workload

    if args.enumerate:
        parts = get_workload(args.workload).parts(args.seed, args.smoke)
        print(sum(part.cells for part in parts))
        return 0

    from measure import WORK_DIR

    declared = _declared()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    try:
        if args.workload is not None:
            return _one_workload(args, declared)
        return _all_workloads(args, declared)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def _one_workload(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    from drivers import run_all as run_drivers
    from layers import trace_workload
    from measure import measure_workload
    from workloads import get_workload

    workload = get_workload(args.workload)
    if args.trace:
        result = trace_workload(workload, args.seed, args.smoke)
        values = {**result["metrics"], **run_drivers(args.smoke)}
        units = _units(declared, "per_layer")
        _print_layers(workload.name, values, units)
        for line in result["failed_cells"]:
            print(f"    FAILED {line}")
        metrics = {name: {"value": value, "unit": units.get(name, "")}
                   for name, value in values.items()}
    else:
        result = measure_workload(workload, args.seed, args.seconds,
                                  smoke=args.smoke)
        _print_e2e(result)
        # warm_wall_s is measured and printed but not declared end to end
        # (see bench/README.md), so it stays out of the result line.
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in result["metrics"].items()
                   if name in _units(declared, "end_to_end")}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if result["failed"] else 0


def _in_fresh_process(function: Any, *args: Any) -> Any:
    """Call ``function`` in an interpreter of its own: peak RSS is a
    per-process high-water mark, so workloads must not share a process."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=context) as pool:
        return pool.submit(function, *args).result()


def _all_workloads(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    from drivers import run_all as run_drivers
    from layers import trace_workload
    from measure import measure_workload, provenance
    from workloads import WORKLOADS

    header = provenance(args.seed)
    header["seconds_per_workload"] = args.seconds
    failed = 0
    e2e = []
    for workload in WORKLOADS:
        result = _in_fresh_process(measure_workload, workload, args.seed,
                                   args.seconds, args.smoke)
        _print_e2e(result)
        failed += result["failed"]
        e2e.append(result)
    layer_doc: Dict[str, Any] = {"provenance": header}
    units = _units(declared, "per_layer")
    if args.trace:
        layer_doc["traced"] = []
        for workload in WORKLOADS:
            traced = trace_workload(workload, args.seed, args.smoke)
            _print_layers(workload.name, traced["metrics"], units)
            failed += traced["failed"]
            layer_doc["traced"].append(traced)
    if args.layers:
        layer_doc["drivers"] = run_drivers(args.smoke)
        _print_layers("isolated drivers", layer_doc["drivers"], units)
    if not args.smoke:
        os.makedirs(args.out, exist_ok=True)
        _write(os.path.join(args.out, "BENCH_e2e.json"),
               {"provenance": header, "workloads": e2e})
        if args.trace or args.layers:
            _write(os.path.join(args.out, "BENCH_layers.json"), layer_doc)
    return 1 if failed else 0


def _write(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    sys.exit(main())
