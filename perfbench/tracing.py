"""Span tracer for the traced run: times each layer's public entry points.

The traced run wraps the public functions of every layer from here, in the
benchmark's own files, for the duration of one run and restores the
originals afterwards; the program itself carries no tracing code.

Two kinds of wrapper:

* a **span** records name, start, end and parent for one call (the grid,
  a cell, a decision, an order recompute, a discipline select, a cache or
  journal access, ...).  Spans live in flat in-memory arrays and are
  written out when the run ends;
* an **op** only counts calls and sums their time.  Profile and state
  operations run about a million times per conservative grid, so they are
  aggregated under their enclosing span instead of becoming spans.  Ops
  nest (``allocate`` may call ``earliest_start``; ``snapshot`` calls
  ``clone``), so only the outermost op of a nest is charged to the
  enclosing span, which keeps self times exact.

A span's self time is its duration minus its child spans minus the ops
charged to it.  Outermost op time outside every span is kept apart
(``loose_op_s``) and must stay 0.
"""

from __future__ import annotations

import gzip
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

@dataclass
class Summary:
    """Aggregates of one traced run."""

    #: Span name -> [count, inclusive seconds, self seconds].
    spans: dict[str, list]
    #: Time of outermost ops, all charged to some span's self time.
    ops_s: float
    loose_op_s: float

    def count(self, name: str) -> int:
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]


class Tracer:
    """In-memory span and op recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Time of outermost ops charged directly to each span.
        self.span_ops = array("d")
        self._stack: list[int] = []
        #: Op name -> [calls, inclusive seconds].
        self.ops: dict[str, list] = {}
        #: Outermost op time spent outside every span (must stay 0).
        self.loose_op_s = 0.0
        self._op_depth = [0]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(
        self,
        name: str,
        fn: Callable,
        on_return: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``on_return(args, kwargs, result)`` runs after the span has closed,
        so whatever it does is never charged to the traced layers.
        """
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends, ops = self.span_start, self.span_end, self.span_ops
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            ops.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def op(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call is counted and timed under ``name``."""
        agg = self.ops.setdefault(name, [0, 0.0])
        depth = self._op_depth
        stack = self._stack
        ops = self.span_ops
        clock = time.perf_counter
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = depth[0]
            depth[0] = outer + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] = outer
                agg[0] += 1
                agg[1] += dt
                if outer == 0:
                    if stack:
                        ops[stack[-1]] += dt
                    else:
                        tracer.loose_op_s += dt

        return wrapper

    # -- analysis -----------------------------------------------------------

    def summary(self) -> "Summary":
        """Count, inclusive and self time per span name, in one pass."""
        n = len(self.span_name)
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        child = [0.0] * n
        for sid in range(n):
            if parents[sid] >= 0:
                child[parents[sid]] += ends[sid] - starts[sid]
        summary = Summary(
            spans={name: [0, 0.0, 0.0] for name in self.names},
            ops_s=sum(self.span_ops) + self.loose_op_s,
            loose_op_s=self.loose_op_s,
        )
        for sid in range(n):
            duration = ends[sid] - starts[sid]
            own = duration - child[sid] - self.span_ops[sid]
            entry = summary.spans[self.names[self.span_name[sid]]]
            entry[0] += 1
            entry[1] += duration
            entry[2] += own
        return summary

    def write(self, path: Path) -> None:
        """Write every span as ``id parent name start end`` lines (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_s\tend_s\n")
            for sid in range(len(self.span_name)):
                out.write(
                    f"{sid}\t{self.span_parent[sid]}\t"
                    f"{self.names[self.span_name[sid]]}\t"
                    f"{self.span_start[sid] - origin:.9f}\t"
                    f"{self.span_end[sid] - origin:.9f}\n"
                )
            for name, (calls, seconds) in sorted(self.ops.items()):
                out.write(f"# op {name} calls={calls} seconds={seconds:.9f}\n")


class Patches:
    """Replaces attributes for one traced run; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Any], Any]) -> None:
        """Set ``owner.attr`` to ``make(original)``, keeping the original.

        Class attributes are read from the class ``__dict__`` so that
        classmethods are rewrapped as classmethods; an inherited method is
        wrapped on ``owner`` itself and removed from it again on restore.
        """
        inherited = isinstance(owner, type) and attr not in owner.__dict__
        if inherited:
            raw = getattr(owner, attr)
        else:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, None if inherited else raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def instrument(tracer: Tracer, sink: Any) -> Patches:
    """Wrap every layer's public entry points; returns the undo handle.

    ``sink`` receives ``(args, kwargs, result)`` of some calls, always
    after their span has closed: ``on_grid`` for each ``engine.run``,
    ``on_cell`` for each ``Simulator.run`` (schedule validation and
    simulator counters) and ``on_cache_get`` for each cache lookup.
    """
    from repro.core import vector
    from repro.core.profile import AvailabilityProfile
    from repro.core.simulator import Simulator
    from repro.core.state import SchedulingState
    from repro.experiments import engine, runner
    from repro.experiments.journal import RunJournal
    from repro.scenarios import ScenarioSpec
    from repro.schedulers.base import OrderedQueueScheduler
    from repro.schedulers.disciplines import (
        AnyFitDiscipline,
        ConservativeBackfill,
        EasyBackfill,
        HeadBlockingDiscipline,
    )
    from repro.schedulers.reorder import RecomputingOrderPolicy

    patches = Patches()

    def span(owner: object, attr: str, name: str, on_return=None) -> None:
        patches.replace(owner, attr, lambda fn: tracer.span(name, fn, on_return))

    def op(owner: object, attr: str, name: str) -> None:
        patches.replace(owner, attr, lambda fn: tracer.op(name, fn))

    # engine: the grid, fingerprints, cache, journal
    span(engine.ExperimentEngine, "run", "engine.grid", sink.on_grid)
    span(engine, "fingerprint_jobs", "engine.fingerprint")
    span(engine, "cell_fingerprint", "engine.fingerprint")
    span(engine.ResultCache, "get", "cache.get", sink.on_cache_get)
    span(engine.ResultCache, "put", "cache.put")
    span(RunJournal, "create", "journal.append")
    span(RunJournal, "record_cell", "journal.append")
    # scenarios
    span(ScenarioSpec, "compile", "scenarios.compile")
    # simulator: one span per cell
    span(Simulator, "run", "simulator.run", sink.on_cell)
    # schedulers: one span per decision and per other simulator callback
    span(OrderedQueueScheduler, "select_jobs", "schedulers.decide")
    for attr in ("on_submit", "on_submit_run", "on_complete", "on_cancel", "next_wakeup"):
        span(OrderedQueueScheduler, attr, "schedulers.callback")
    # order policies: every class that defines its own compute_order
    pending = [RecomputingOrderPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "compute_order" in cls.__dict__ and not getattr(
            cls.__dict__["compute_order"], "__isabstractmethod__", False
        ):
            span(cls, "compute_order", "order.recompute")
    # disciplines: self time per class
    for cls, name in (
        (HeadBlockingDiscipline, "discipline.list"),
        (AnyFitDiscipline, "discipline.anyfit"),
        (EasyBackfill, "discipline.easy"),
        (ConservativeBackfill, "discipline.conservative"),
    ):
        for attr in ("select", "select_indexed"):
            if attr in cls.__dict__:
                span(cls, attr, name)
    # profile and state: counted ops
    for attr in (
        "allocate",
        "earliest_start",
        "earliest_start_batch",
        "reserve",
        "reserve_until",
        "reserve_from_origin",
        "release",
        "advance_origin",
        "clone",
    ):
        op(AvailabilityProfile, attr, f"profile.{attr}")
    op(SchedulingState, "snapshot", "state.snapshot")
    # metrics: the objective reductions simulate_cell calls
    span(runner, "average_response_time", "metrics.objective")
    span(runner, "average_weighted_response_time", "metrics.objective")
    span(vector, "average_response_time_columns", "metrics.objective")
    span(vector, "average_weighted_response_time_columns", "metrics.objective")
    return patches
