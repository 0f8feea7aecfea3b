"""Isolated layer drivers: each layer fed directly, untraced, no network
around it unless the layer is the network.

Every driver returns ``{metric name: value}`` for one run; :func:`run_all`
reports the median of three.  These are the figures to quote for a layer's
absolute speed: the traced run distorts proportions, these do not.  The
drivers reach the program through package-level public names only.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List

from repro.core import PCCController, PerformanceMonitor
from repro.experiments import (
    CellStore,
    ResultSet,
    SweepGrid,
    run_flows,
)
from repro.experiments.execute import execute_cells
from repro.netsim import (
    DEFAULT_MSS as MSS,
    FlowSpec,
    Link,
    Packet,
    Route,
    Simulator,
    make_qdisc,
    single_bottleneck,
)
from repro.report import render_report, run_report_spec

from measure import WORK_DIR

REPEATS = 3
BANDWIDTH_BPS = 100e6
RTT_S = 0.03
BDP_BYTES = BANDWIDTH_BPS * RTT_S / 8
LINK_QDISCS = ("droptail", "codel", "fq_codel")
BARE_QDISCS = ("droptail", "codel", "red", "pie", "fq_codel")


def _noop() -> None:
    pass


# --------------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------------- #
def engine_bare(scale: float) -> Dict[str, float]:
    """No-op callbacks that reschedule themselves, 1024 of them pending."""
    sim = Simulator(seed=0)
    depth = 1024

    def tick() -> None:
        sim.schedule(1.0, tick)

    for i in range(depth):
        sim.schedule(i / depth, tick)
    start = time.perf_counter()
    sim.run(until=int(60 * scale))
    wall = time.perf_counter() - start
    return {"engine.bare_events_per_s": sim.events_processed / wall}


def engine_timer_cancel(scale: float) -> Dict[str, float]:
    """Arm a timer and cancel it, over and over; the dead events pile up past
    the compaction threshold, so compaction is part of the cost."""
    sim = Simulator(seed=0)
    pairs = int(60_000 * scale)
    start = time.perf_counter()
    for _ in range(pairs):
        sim.schedule(1.0, _noop).cancel()
    wall = time.perf_counter() - start
    return {"engine.timer_cancel_per_s": pairs / wall}


# --------------------------------------------------------------------------- #
# link + qdisc
# --------------------------------------------------------------------------- #
def _drive_link(qdisc: str, load: float, sim_seconds: float) -> Dict[str, float]:
    """One link fed at ``load`` times its capacity by a source that only
    builds packets; the destination only counts them."""
    sim = Simulator(seed=0)
    link = Link(sim, BANDWIDTH_BPS, RTT_S / 2,
                queue=make_qdisc(qdisc, BDP_BYTES))
    delivered = [0]

    def count(packet: Packet) -> None:
        delivered[0] += 1

    route = Route([link], count)
    gap = MSS * 8 / (BANDWIDTH_BPS * load)
    sent = [0]

    def source() -> None:
        n = sent[0]
        sent[0] = n + 1
        route.send(Packet(n % 4, n, n, MSS, sim.now))
        sim.schedule(gap, source)

    sim.schedule(0.0, source)
    start = time.perf_counter()
    sim.run(until=sim_seconds)
    wall = time.perf_counter() - start
    return {"pkts_per_s": delivered[0] / wall,
            "events_per_pkt": (sim.events_processed - sent[0]) / delivered[0]}


def link_drivers(scale: float) -> Dict[str, float]:
    out = {}
    for qdisc in LINK_QDISCS:
        run = _drive_link(qdisc, 1.2, 1.5 * scale)
        out[f"link.pkts_per_s.{qdisc}"] = run["pkts_per_s"]
        if qdisc == "droptail":
            out["link.events_per_pkt.backlogged"] = run["events_per_pkt"]
    out["link.events_per_pkt.idle"] = \
        _drive_link("droptail", 0.5, 1.5 * scale)["events_per_pkt"]
    return out


def qdisc_drivers(scale: float) -> Dict[str, float]:
    """Enqueue/dequeue pairs on the bare discipline over a standing backlog,
    so that the AQMs see a sojourn time and have decisions to make."""
    pairs = int(20_000 * scale)
    packets = [Packet(n % 4, n, n, MSS, 0.0) for n in range(64)]
    out = {}
    for qdisc in BARE_QDISCS:
        queue = make_qdisc(qdisc, BDP_BYTES)
        queue.attach_rng(random.Random(0))
        service = MSS * 8 / BANDWIDTH_BPS
        for n in range(32):
            queue.enqueue(packets[n], 0.0)
        start = time.perf_counter()
        for n in range(pairs):
            now = n * service
            queue.enqueue(packets[n % 64], now)
            queue.dequeue(now)
        wall = time.perf_counter() - start
        out[f"qdisc.ops_per_s.{qdisc}"] = pairs / wall
    return out


# --------------------------------------------------------------------------- #
# core
# --------------------------------------------------------------------------- #
def core_driver(scale: float) -> Dict[str, float]:
    """Monitor + controller fed synthetic sends and their ACKs one RTT of
    packets later; the simulator only serves as their clock."""
    sim = Simulator(seed=0)
    controller = PCCController(initial_rate_bps=10e6)
    controller.attach_rng(sim.rng)
    monitor = PerformanceMonitor(
        sim, rate_provider=controller.next_rate,
        on_mi_complete=controller.on_mi_complete)
    acks = int(150_000 * scale)
    in_flight: List[int] = []
    lag = 50
    now = 0.0
    start = time.perf_counter()
    for n in range(acks + lag):
        now += MSS * 8 / 50e6
        sim.run(until=now)
        mi_id = monitor.current_mi_id(now, RTT_S)
        monitor.record_send(mi_id, MSS)
        in_flight.append(mi_id)
        if n >= lag:
            monitor.record_ack(in_flight[n - lag], MSS, RTT_S)
    wall = time.perf_counter() - start
    return {"core.acks_per_s": acks / wall,
            "core.mis_per_s": len(monitor.completed_intervals) / wall}


# --------------------------------------------------------------------------- #
# endpoints
# --------------------------------------------------------------------------- #
def endpoints_drivers(scale: float) -> Dict[str, float]:
    """One flow over a link whose queue never drops: sender, receiver and
    statistics do the work, with one windowed and one rate-paced scheme."""
    out = {}
    for kind, scheme in (("windowed", "newreno"), ("rate", "pcc")):
        sim = Simulator(seed=0)
        topo = single_bottleneck(
            sim, BANDWIDTH_BPS, RTT_S, BDP_BYTES,
            queue_factory=lambda: make_qdisc("infinite", BDP_BYTES))
        duration = 1.5 * scale
        start = time.perf_counter()
        result = run_flows(sim, [topo.path], [FlowSpec(scheme=scheme)],
                           duration=duration)
        wall = time.perf_counter() - start
        packets = result.total_goodput_bps() * duration / 8 / MSS
        out[f"endpoints.loopback_pkts_per_s.{kind}"] = packets / wall
    return out


# --------------------------------------------------------------------------- #
# experiments, store, results, report
# --------------------------------------------------------------------------- #
class _ConstantCell:
    """A cell whose record is a constant: all that remains is orchestration."""

    def __init__(self, index: int) -> None:
        self.index = index

    def params(self) -> Dict[str, Any]:
        return {"index": self.index, "scenario": "constant"}


def _constant_record(cell: _ConstantCell) -> Dict[str, Any]:
    return {"cell": cell.params(), "metrics": {"value": 1.0},
            "wall_time_s": 0.0}


def experiments_drivers(scale: float) -> Dict[str, float]:
    out = {}
    cells = [_ConstantCell(i) for i in range(int(2000 * scale))]
    for workers in (1, 2):
        start = time.perf_counter()
        execute_cells(cells, _constant_record, 0, workers=workers,
                      progress=False)
        out[f"experiments.noop_cells_per_s.w{workers}"] = \
            len(cells) / (time.perf_counter() - start)
    grid = SweepGrid(
        schemes=("pcc", "cubic", "newreno", "vegas"),
        bandwidths_bps=(10e6, 50e6, 100e6), rtts=(0.01, 0.03, 0.1),
        loss_rates=(0.0, 0.001, 0.01), flow_counts=(1, 2, 4))
    start = time.perf_counter()
    enumerated = [cell.params() for cell in grid.cells(0)]
    out["experiments.enum_cells_per_s"] = \
        len(enumerated) / (time.perf_counter() - start)
    return out


def store_and_results_drivers(scale: float) -> Dict[str, float]:
    count = int(5000 * scale)
    records = [{"cell": {"index": i, "scenario": "constant"},
                "metrics": {"goodput_mbps": 90.0 + i * 1e-3}}
               for i in range(count)]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    out = {}
    try:
        with CellStore(os.path.join(workdir, "store")) as store:
            start = time.perf_counter()
            for record in records:
                store.put(record)
            out["store.put_per_s"] = count / (time.perf_counter() - start)
        start = time.perf_counter()
        store = CellStore(os.path.join(workdir, "store"))
        out["store.open_ms"] = (time.perf_counter() - start) * 1e3
        with store:
            start = time.perf_counter()
            for record in records:
                store.get(record["cell"])
            out["store.get_per_s"] = count / (time.perf_counter() - start)

        path = os.path.join(workdir, "results.jsonl")
        ResultSet(0, records).write_jsonl(path)
        start = time.perf_counter()
        loaded = ResultSet.load(path)
        out["results.load_records_per_s"] = \
            len(loaded) / (time.perf_counter() - start)
        start = time.perf_counter()
        loaded.to_json()
        out["results.to_json_records_per_s"] = \
            len(loaded) / (time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def report_driver(scale: float) -> Dict[str, float]:
    """Render the analytic (theorems) spec's section: rendering only, the
    cells are computed before the clock starts."""
    outcome = run_report_spec("theorems", progress=False)
    renders = max(1, int(200 * scale))
    start = time.perf_counter()
    for _ in range(renders):
        render_report([outcome])
    return {"report.render_ms":
            (time.perf_counter() - start) * 1e3 / renders}


DRIVERS: List[Callable[[float], Dict[str, float]]] = [
    engine_bare, engine_timer_cancel, link_drivers, qdisc_drivers,
    core_driver, endpoints_drivers, experiments_drivers,
    store_and_results_drivers, report_driver,
]


def run_all(smoke: bool = False) -> Dict[str, float]:
    """Median of ``REPEATS`` runs of every driver (one tenth-size run with
    ``smoke``)."""
    scale, repeats = (0.1, 1) if smoke else (1.0, REPEATS)
    out = {}
    for driver in DRIVERS:
        runs = [driver(scale) for _ in range(repeats)]
        for name in runs[0]:
            out[name] = statistics.median(run[name] for run in runs)
    return out
