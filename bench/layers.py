"""The traced run: fold a cProfile of one pass into the program's layers.

Nothing in the program is edited: the benchmark profiles the same cells from
outside and sorts each function's *self* time (``tottime``) and call count
into a layer by the file that defines it.  Time spent in C built-ins and in
the standard library (``random``, ``json``, ``collections``...) is charged
to the layer that called it, following the profile's caller edges; only
``heapq`` keeps a layer of its own, because the event heap is the engine's
central cost.  cProfile charges a fixed cost per call, so call-heavy layers
look bigger here than they are; ``trace.overhead_ratio`` says by how much
the whole run is stretched.
"""

from __future__ import annotations

import fnmatch
import pstats
import statistics
from typing import Any, Dict, Optional, Tuple

from measure import WARM_SECONDS, PassResult, describe_failures, run_pass
from workloads import SLICE_SPECS, Workload

LAYERS = ("engine", "heapq", "link", "qdisc", "endpoints", "core", "cc",
          "experiments", "report", "other")

#: Layer of each file, as globs over the path below ``repro/``.
LAYER_GLOBS = (
    ("engine", ("netsim/engine.py", "netsim/backends.py")),
    ("link", ("netsim/link.py", "netsim/route.py", "netsim/packet.py",
              "netsim/topology.py", "netsim/dynamics.py",
              "netsim/__init__.py")),
    ("qdisc", ("netsim/queues.py", "netsim/qdisc.py")),
    ("endpoints", ("netsim/endpoints.py", "netsim/stats.py")),
    ("core", ("core/*", "units.py")),
    ("cc", ("cc/*", "schemes.py")),
    ("experiments", ("experiments/*", "netsim/flows.py", "registry.py")),
    ("report", ("report/*", "analysis/*")),
)

#: Boundary counts read from the profile: calls of a public method, found by
#: layer and function name so that merging two files of a layer keeps them.
CALL_COUNTS = {
    "engine.schedules": ("engine", "schedule_at"),
    "engine.cancels": ("engine", "cancel"),
    "link.enqueues": ("link", "enqueue"),
    "qdisc.enqueues": ("qdisc", "enqueue"),
    "qdisc.dequeues": ("qdisc", "dequeue"),
    "endpoints.acks": ("endpoints", "receive_ack"),
    "endpoints.data_rx": ("endpoints", "receive"),
    "core.acks": ("core", "record_ack"),
    "core.mis": ("core", "on_mi_complete"),
}

FuncKey = Tuple[str, int, str]


def layer_of_file(path: str) -> Optional[str]:
    """The layer of a source file, or ``None`` if it is not the program's
    (standard library, built-in, benchmark) or is not in the map."""
    marker = "/repro/"
    at = path.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    relative = path.replace("\\", "/")[at + len(marker):]
    for layer, globs in LAYER_GLOBS:
        if any(fnmatch.fnmatchcase(relative, glob) for glob in globs):
            return layer
    return None


def _own_layer(func: FuncKey) -> Optional[str]:
    filename, _, name = func
    if "heapq" in filename or "_heapq" in name:
        return "heapq"
    return layer_of_file(filename)


def fold(profile: Any) -> Dict[str, Any]:
    """Self seconds and calls per layer, the per-function call counts the
    boundary metrics need, and the program files no glob matched."""
    stats = pstats.Stats(profile).stats
    shares_memo: Dict[FuncKey, Dict[str, float]] = {}

    def shares(func: FuncKey, visiting: frozenset) -> Dict[str, float]:
        """Which layers pay for ``func``'s self time, as fractions."""
        own = _own_layer(func)
        if own is not None:
            return {own: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller not in visiting and edge[2] > 0}
        total = sum(weights.values())
        if "/repro/" in func[0] or total <= 0:
            out = {"other": 1.0}
        else:
            out = {}
            for caller, weight in weights.items():
                for layer, part in shares(caller,
                                          visiting | {func}).items():
                    out[layer] = out.get(layer, 0.0) + part * weight / total
        shares_memo[func] = out
        return out

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    named_calls: Dict[Tuple[str, str], int] = {}
    unmapped = set()
    for func, (_, ncalls, tottime, _, _) in stats.items():
        own = _own_layer(func)
        if own is not None:
            calls[own] += ncalls
            named_calls[(own, func[2])] = \
                named_calls.get((own, func[2]), 0) + ncalls
        elif "/repro/" in func[0]:
            calls["other"] += ncalls
            unmapped.add(func[0][func[0].rfind("/repro/") + 1:])
        for layer, part in shares(func, frozenset()).items():
            self_s[layer] += tottime * part
    return {"self_s": self_s, "calls": calls, "named_calls": named_calls,
            "unmapped_files": sorted(unmapped)}


def trace_workload(workload: Workload, seed: int,
                   smoke: bool = False) -> Dict[str, Any]:
    """Per-layer metrics of one workload: one untraced pass for the real
    wall time and the record counts, then the same pass under cProfile."""
    parts = workload.parts(seed, smoke)
    cells = sum(part.cells for part in parts)
    plain: PassResult = run_pass(parts, WARM_SECONDS)
    traced: PassResult = run_pass(parts, profile=True)
    cold = fold(traced.cold_profile)
    warm = fold(traced.warm_profile)
    total = sum(cold["self_s"].values())
    warm_total = sum(warm["self_s"].values())

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = cold["self_s"][layer]
        metrics[f"{layer}.self_share"] = cold["self_s"][layer] / total
        metrics[f"{layer}.calls"] = cold["calls"][layer]
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    metrics["trace.warm_exp_report_share"] = (
        warm["self_s"]["experiments"] + warm["self_s"]["report"]
    ) / warm_total

    # A method the profile never saw (not called on this workload, or no
    # longer in the program) counts 0 calls; it is not a crash.
    for name, key in CALL_COUNTS.items():
        metrics[name] = cold["named_calls"].get(key, 0)
    metrics["engine.cancel_share"] = (
        metrics["engine.cancels"] / max(metrics["engine.schedules"], 1))
    metrics["engine.events"] = plain.events
    metrics["engine.events_per_pkt"] = plain.events / plain.packets
    metrics["engine.events_per_s"] = plain.events / plain.flow_cell_wall_s
    metrics["experiments.cells"] = cells
    metrics["warm_wall_s"] = statistics.median(plain.warm_wall_s)
    metrics["store.hits"] = plain.warm_hits
    metrics["store.misses"] = plain.warm_misses
    for spec_id in SLICE_SPECS:
        metrics[f"report.spec_wall_s.{spec_id}"] = \
            plain.part_wall_s.get(spec_id, 0.0)
    failed = {**plain.failed, **traced.failed}
    if traced.digests != plain.digests:
        failed[("traced", 0)] = "traced records differ from untraced"
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": cells,
        "failed": len(failed),
        "failed_cells": describe_failures(failed),
        "unmapped_files": cold["unmapped_files"],
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": plain.wall_s,
        "metrics": metrics,
    }

