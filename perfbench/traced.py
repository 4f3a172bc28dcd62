"""Traced mode: the per-layer metrics of one workload.

The traced run is serial and in-process (``workers=1``) so that every span
lands in this process.  It covers the workload's first
``traced_streams`` streams.  Its parts:

1. an untraced run of the workload as the timed mode runs it, for the
   engine's own accounting (``RunStats``, parallel efficiency from the
   ``cell-finished`` events) and as the cells the traced run must match;
   a workload whose timed run uses a pool gets one more untraced serial
   run, the base of ``trace.overhead_frac``;
2. two traced runs (cold, then warm against the cache the cold run
   wrote).  The first gives every per-layer metric and is written to
   ``.perfbench/traces/``; the second must repeat its deterministic
   counters exactly.

Each traced run passes every simulated schedule through
``Schedule.validate`` and requires its cells to equal the untraced ones.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import checks
import timed
from tracing import Summary, Tracer, instrument
from workloads import Workload

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "profile.allocate_calls": "count",
    "profile.allocate_s": "s",
    "profile.earliest_start_calls": "count",
    "profile.reserve_calls": "count",
    "profile.release_calls": "count",
    "profile.clone_calls": "count",
    "profile.ops_s": "s",
    "state.snapshot_calls": "count",
    "state.snapshot_s": "s",
    "discipline.conservative_s": "s",
    "discipline.easy_s": "s",
    "discipline.list_s": "s",
    "discipline.anyfit_s": "s",
    "order.recompute_calls": "count",
    "order.recompute_s": "s",
    "schedulers.decisions": "count",
    "schedulers.decide_s": "s",
    "schedulers.callback_calls": "count",
    "schedulers.callback_s": "s",
    "schedulers.self_s": "s",
    "simulator.run_s": "s",
    "simulator.self_s": "s",
    "simulator.decision_points": "count",
    "simulator.coalesced_events": "count",
    "simulator.failure_kills": "count",
    "simulator.cancelled": "count",
    "metrics.objective_s": "s",
    "workloads.generate_s": "s",
    "scenarios.compile_calls": "count",
    "scenarios.compile_s": "s",
    "engine.fingerprint_s": "s",
    "cache.get_calls": "count",
    "cache.get_s": "s",
    "cache.hit_ratio": "ratio",
    "cache.put_calls": "count",
    "cache.put_s": "s",
    "journal.records": "count",
    "journal.append_s": "s",
    "engine.self_s": "s",
    "engine.parallel_efficiency": "ratio",
    "engine.retries": "count",
    "engine.degraded_cells": "count",
    "trace.grid_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Reported times that partition the traced grid wall (``trace.grid_s``):
#: self times of the spans that have children, inclusive times of the
#: leaf spans, and the profile and state ops charged to any span.
SUMS_TO_GRID = (
    "engine.self_s",
    "engine.fingerprint_s",
    "cache.get_s",
    "cache.put_s",
    "journal.append_s",
    "scenarios.compile_s",
    "simulator.self_s",
    "schedulers.self_s",
    "order.recompute_s",
    "discipline.conservative_s",
    "discipline.easy_s",
    "discipline.list_s",
    "discipline.anyfit_s",
    "metrics.objective_s",
    "profile.ops_s",
)

#: Counters that must repeat exactly between two traced runs at one seed.
DETERMINISTIC = [name for name, unit in UNITS.items() if unit == "count"] + [
    "cache.hit_ratio"
]

#: Fast-path counters of ``SimulationResult.coalesced`` that count events.
COALESCED_EVENTS = ("blocked_arrival_jobs", "idle_start_jobs", "drained_completions")


class CellSink:
    """Collects simulator results during a traced run; checks them per grid."""

    def __init__(self) -> None:
        self.pending: list = []
        self.problems: list[str] = []
        self.failed: set = set()
        self.cache_gets = 0
        self.cache_hits = 0
        self.decision_points = 0
        self.coalesced_events = 0
        self.failure_kills = 0
        self.cancelled = 0

    def on_cell(self, args: tuple, kwargs: dict, result: object) -> None:
        simulator = args[0]
        scenario = kwargs.get("scenario")
        failures = getattr(scenario, "failures", None)
        total = simulator.machine.total_nodes
        capacity = failures.capacity_steps(total) if failures else None
        self.pending.append((result.schedule, total, capacity))
        self.decision_points += result.decision_points
        self.coalesced_events += sum(result.coalesced.get(k, 0) for k in COALESCED_EVENTS)
        self.failure_kills += len(result.failure_killed)
        self.cancelled += len(result.cancelled_queued) + len(result.killed_running)

    def on_cache_get(self, args: tuple, kwargs: dict, result: object) -> None:
        self.cache_gets += 1
        self.cache_hits += result is not None

    def on_grid(self, args: tuple, kwargs: dict, grid: object) -> None:
        """Validate the schedules of the grid that just finished."""
        from repro.core.schedule import ValidityError

        keys = list(grid.cells)
        pending, self.pending = self.pending, []
        if pending and len(pending) != len(keys):
            self.problems.append(
                f"{grid.workload_name}: {len(pending)} simulations for {len(keys)} cells"
            )
        for index, (schedule, total, capacity) in enumerate(pending):
            key = keys[index] if index < len(keys) else f"#{index}"
            try:
                schedule.validate(total, capacity=capacity)
            except ValidityError as exc:
                self.failed.add((grid.workload_name, key))
                self.problems.append(f"{grid.workload_name} {key}: invalid schedule: {exc}")


def run_streams(workload: Workload, engine: object, streams: list) -> dict:
    """Every stream's engine call(s): ``{grid name: GridResult}``."""
    grids: dict = {}
    for index, jobs in enumerate(streams):
        grids.update(workload.run(engine, jobs, stream=index))
    return grids


def traced_pass(workload: Workload, seed: int, tmp_root: Path) -> dict:
    """One traced cold run plus one traced warm re-run, serial."""
    tracer = Tracer()
    sink = CellSink()
    patches = instrument(tracer, sink)
    work = timed.scratch_dir(tmp_root)
    try:
        streams = tracer.span("workloads.generate", workload.generate)(
            seed, workload.traced_streams
        )
        recorder = timed.Recorder()
        engine = timed.make_engine(workload, work / "cache", recorder, workers=1)
        t0 = time.perf_counter()
        cold = run_streams(workload, engine, streams)
        cold_s = time.perf_counter() - t0
        warm = run_streams(workload, engine, streams)
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)
    for name, grid in warm.items():
        for key, cell in grid.cells.items():
            if timed.cell_outputs(cell) != timed.cell_outputs(cold[name].cells[key]):
                sink.failed.add((name, key))
                sink.problems.append(f"{name} {key}: traced warm re-run differs from cold run")
    return {
        "tracer": tracer,
        "sink": sink,
        "cold": {name: dict(grid.cells) for name, grid in cold.items()},
        "cold_s": cold_s,
        "cells": sum(len(g.cells) for g in cold.values()) + sum(len(g.cells) for g in warm.values()),
    }


def layer_metrics(tracer: Tracer, summary: Summary, sink: CellSink) -> dict[str, float]:
    """Per-layer metrics of one traced pass (no untraced-run inputs)."""

    def calls(op: str) -> int:
        return tracer.ops.get(op, [0, 0.0])[0]

    def op_s(op: str) -> float:
        return tracer.ops.get(op, [0, 0.0])[1]

    out = {
        "profile.allocate_calls": calls("profile.allocate"),
        "profile.allocate_s": op_s("profile.allocate"),
        "profile.earliest_start_calls": calls("profile.earliest_start"),
        "profile.reserve_calls": calls("profile.reserve"),
        "profile.release_calls": calls("profile.release"),
        "profile.clone_calls": calls("profile.clone"),
        "profile.ops_s": summary.ops_s,
        "state.snapshot_calls": calls("state.snapshot"),
        "state.snapshot_s": op_s("state.snapshot"),
        "order.recompute_calls": summary.count("order.recompute"),
        "order.recompute_s": summary.self_s("order.recompute"),
        "schedulers.decisions": summary.count("schedulers.decide"),
        "schedulers.decide_s": summary.inclusive("schedulers.decide"),
        "schedulers.callback_calls": summary.count("schedulers.callback"),
        "schedulers.callback_s": summary.inclusive("schedulers.callback"),
        "schedulers.self_s": summary.self_s("schedulers.decide")
        + summary.self_s("schedulers.callback"),
        "simulator.run_s": summary.inclusive("simulator.run"),
        "simulator.self_s": summary.self_s("simulator.run"),
        "simulator.decision_points": sink.decision_points,
        "simulator.coalesced_events": sink.coalesced_events,
        "simulator.failure_kills": sink.failure_kills,
        "simulator.cancelled": sink.cancelled,
        "metrics.objective_s": summary.inclusive("metrics.objective"),
        "workloads.generate_s": summary.inclusive("workloads.generate"),
        "scenarios.compile_calls": summary.count("scenarios.compile"),
        "scenarios.compile_s": summary.inclusive("scenarios.compile"),
        "engine.fingerprint_s": summary.inclusive("engine.fingerprint"),
        "cache.get_calls": summary.count("cache.get"),
        "cache.get_s": summary.inclusive("cache.get"),
        "cache.hit_ratio": sink.cache_hits / sink.cache_gets if sink.cache_gets else 0.0,
        "cache.put_calls": summary.count("cache.put"),
        "cache.put_s": summary.inclusive("cache.put"),
        "journal.records": summary.count("journal.append"),
        "journal.append_s": summary.inclusive("journal.append"),
        "engine.self_s": summary.self_s("engine.grid"),
        "trace.grid_s": summary.inclusive("engine.grid"),
    }
    for name in ("conservative", "easy", "list", "anyfit"):
        out[f"discipline.{name}_s"] = summary.self_s(f"discipline.{name}")
    return out


def check_accounting(values: dict[str, float], summary: Summary) -> tuple[bool, str]:
    """The reported layer times must add up to the traced grid wall.

    Sums the metrics of :data:`SUMS_TO_GRID` as reported and compares the
    total with ``trace.grid_s``.  A span inside the grid that no summed
    metric covers makes the total short; an inclusive metric whose span
    gained a child span or op, or an op charged outside the grid, makes
    it long.  No op time may fall outside every span either.
    """
    total = sum(values[name] for name in SUMS_TO_GRID)
    wall = values["trace.grid_s"]
    gap = total - wall
    ok = abs(gap) <= 1e-6 * max(1.0, wall) and summary.loose_op_s == 0.0
    return ok, (
        f"layer times sum to {total:.6f}s against {wall:.6f}s of traced grid "
        f"wall (gap {gap:+.2e}s, op time outside spans {summary.loose_op_s:.2e}s)"
    )


def run(workload: Workload, seed: int, tmp_root: Path, trace_dir: Path) -> dict:
    """The traced mode: per-layer metrics plus its checks."""
    problems: list[str] = []
    failed: set = set()
    streams = workload.traced_streams
    base = timed.measure(
        workload, seed, tmp_root, streams=streams, rounds=1, setup_repeats=0
    )
    timed.reap_children()
    problems.extend(base.problems)
    failed |= base.failed
    failed |= checks.against_golden(workload, seed, base.cells, problems)
    attempted = base.attempted
    serial_s = base.cold_wall_s
    if workload.workers > 1:
        serial = timed.measure(
            workload,
            seed,
            tmp_root,
            streams=streams,
            rounds=1,
            setup_repeats=0,
            warm=False,
            workers=1,
        )
        problems.extend(serial.problems)
        failed |= serial.failed
        attempted += serial.attempted
        serial_s = serial.cold_wall_s

    passes = [traced_pass(workload, seed, tmp_root) for _ in range(2)]
    layers = []
    accounting = []
    for number, traced in enumerate(passes, 1):
        sink = traced["sink"]
        attempted += traced["cells"]
        problems.extend(f"traced run {number}: {p}" for p in sink.problems)
        failed |= sink.failed
        for name, cells in traced["cold"].items():
            for key, cell in cells.items():
                if timed.cell_outputs(cell) != timed.cell_outputs(base.cells[name][key]):
                    failed.add((name, key))
                    problems.append(f"traced run {number}: {name} {key} differs from the timed run")
        summary = traced["tracer"].summary()
        layers.append(layer_metrics(traced["tracer"], summary, sink))
        ok, detail = check_accounting(layers[-1], summary)
        accounting.append(detail)
        if not ok:
            problems.append(f"traced run {number}: {detail}")
    for name in DETERMINISTIC:
        if name in layers[0] and layers[0][name] != layers[1][name]:
            problems.append(
                f"{name} is not deterministic: {layers[0][name]} then {layers[1][name]}"
            )

    first = passes[0]
    first["tracer"].write(trace_dir / f"{workload.name}-seed{seed}.tsv.gz")
    values = dict(layers[0])
    values["engine.parallel_efficiency"] = base.cell_wall_s / (
        workload.workers * base.cold_wall_s
    )
    values["engine.retries"] = base.retries
    values["engine.degraded_cells"] = base.degraded_cells
    values["trace.overhead_frac"] = first["cold_s"] / serial_s - 1.0
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    return {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": min(attempted, len(failed)),
        "metrics": metrics,
        "problems": problems,
        "meta": {
            "accounting": accounting[0],
            "untraced_grid_s": base.cold_wall_s,
            "untraced_serial_grid_s": serial_s,
            "traced_cold_s": first["cold_s"],
            "spans": len(first["tracer"].span_name),
            "backend_engine": ",".join(sorted(base.backends)),
            "jobs": base.jobs,
        },
    }
