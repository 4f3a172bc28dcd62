"""Untraced measurement of one workload: the end-to-end metrics.

Each round's cold runs and every set-up probe get fresh temporary cache
and journal directories, deleted afterwards.  No backend is passed, so the
engine uses its default backend selection.
"""

from __future__ import annotations

import multiprocessing
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from workloads import Workload

#: Rounds a measurement makes at least; each round visits every stream.
ROUNDS = 3
#: Set-up probes per stream and round.
SETUP_REPEATS = 2
#: Warm re-runs after each cold run: of the stream just run cold and of
#: the streams run cold just before it.
WARM_RERUNS = 3


class _SetupDone(Exception):
    """Raised from the event hook at the first ``cell-started`` event."""


class Recorder:
    """Event hook: keeps every event and each grid's ``RunStats``."""

    def __init__(self, stop_at_first_cell: bool = False) -> None:
        self.engine: object | None = None
        self.events: list = []
        self.stats: list = []
        self.stop_at_first_cell = stop_at_first_cell

    def __call__(self, event: object) -> None:
        self.events.append(event)
        kind = event.kind  # type: ignore[attr-defined]
        if kind == "grid-finished":
            self.stats.append(self.engine.stats)  # type: ignore[union-attr]
        elif kind == "cell-started" and self.stop_at_first_cell:
            raise _SetupDone


def make_engine(workload: Workload, cache_dir: Path, recorder: Recorder, workers: int | None = None):
    from repro.experiments.engine import ExperimentEngine

    engine = ExperimentEngine(
        workers=workload.workers if workers is None else workers,
        cache=cache_dir,
        on_event=recorder,
    )
    recorder.engine = engine
    return engine


def scratch_dir(root: Path) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=root))


def setup_probe(workload: Workload, index: int, stream_seed: int, tmp_root: Path) -> tuple[float, list]:
    """Set-up of one stream: generation start to the first ``cell-started``.

    Each of the stream's engine calls (one per scenario of a sweep) runs
    in a fresh directory and is stopped at its first ``cell-started``
    event, so the probe covers generation, scenario compilation,
    fingerprinting, cache lookups and journal creation but simulates
    nothing.  Returns the wall time and the generated jobs.
    """
    work = scratch_dir(tmp_root)
    try:
        t0 = time.perf_counter()
        jobs = workload.stream(stream_seed)
        for spec in (workload.scenarios(jobs) or {None: None}).values():
            recorder = Recorder(stop_at_first_cell=True)
            engine = make_engine(workload, work / "cache", recorder)
            try:
                engine.run(jobs, scenario=spec, **workload.engine_kwargs(index))
            except _SetupDone:
                pass
            else:
                raise RuntimeError("engine finished without a cell-started event")
        return time.perf_counter() - t0, jobs
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class StreamTimes:
    """Every sample of one stream, from all rounds of a measurement.

    One stream is one engine call, or the three scenario grids of a sweep.
    """

    setup_s: list[float] = field(default_factory=list)
    #: Cold wall time, one per round.
    cold_s: list[float] = field(default_factory=list)
    #: (grid name, cell key) -> the cell's wall time in each cold run
    #: (from the ``cell-finished`` events).
    cell_s: dict = field(default_factory=dict)
    warm_s: list[float] = field(default_factory=list)
    #: Cold wall time minus the wall time of its cells, one per round: the
    #: engine's own work around the cells of a serial grid.
    overhead_s: list[float] = field(default_factory=list)

    def fastest_cells(self, prefix: str) -> dict:
        """(grid name without ``prefix``, cell key) -> fastest cold wall."""
        return {
            (name[len(prefix):], key): min(times) for (name, key), times in self.cell_s.items()
        }

    @property
    def serial_grid_s(self) -> float:
        """A serial call's wall time, each of its parts at its fastest.

        In a serial grid the call's wall time is its cells' wall times
        plus the engine's work around them; each cell is short, so its
        fastest of the rounds is rarely slowed by the machine, where a
        whole call of many cells often is.
        """
        return sum(min(times) for times in self.cell_s.values()) + min(self.overhead_s)


def fastest_mean(samples: "list[list[float]]") -> float:
    """Mean over streams of each stream's fastest sample.

    The machine this runs on may switch between a fast and a slower state
    for seconds at a time.  The fastest of a stream's samples, taken in
    rounds some seconds apart, is the least disturbed by that; the mean
    over streams then averages the streams' differing sizes of work.
    """
    return statistics.fmean(min(times) for times in samples)


@dataclass
class GridRun:
    """Samples, cells and accounting of one measurement of a workload."""

    streams: list[StreamTimes] = field(default_factory=list)
    #: Grid-name prefix of each stream (its grid names without scenario).
    prefixes: list[str] = field(default_factory=list)
    #: One worker: a call's wall time is its cells' plus the engine's own.
    serial: bool = True
    rounds: int = 0
    #: {grid name: {cell key: CellResult}} of the first round's cold runs.
    cells: dict = field(default_factory=dict)
    jobs: list[int] = field(default_factory=list)
    #: Cells attempted, cold plus warm.
    attempted: int = 0
    #: (grid name, cell key) of cells that failed any way.
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    #: Summed cold wall time and summed cell wall time of the cold runs
    #: (for parallel efficiency).
    cold_wall_s: float = 0.0
    cell_wall_s: float = 0.0
    retries: int = 0
    degraded_cells: int = 0
    backends: set = field(default_factory=set)

    @property
    def grid_s(self) -> float:
        if self.serial:
            return statistics.fmean(s.serial_grid_s for s in self.streams)
        return fastest_mean([s.cold_s for s in self.streams])

    @property
    def cell_max_s(self) -> float:
        """The slowest cell of the grid, each cell timed by its fastest
        cold run and averaged over the streams."""
        per_cell: dict = {}
        for index, times in enumerate(self.streams):
            for where, fastest in times.fastest_cells(self.prefixes[index]).items():
                per_cell.setdefault(where, []).append(fastest)
        return max(statistics.fmean(values) for values in per_cell.values())

    @property
    def warm_s(self) -> float:
        return fastest_mean([s.warm_s for s in self.streams])

    @property
    def setup_s(self) -> float:
        return fastest_mean([s.setup_s for s in self.streams])

    def record_cold(self, grids: dict, recorder: Recorder, seconds: float, times: StreamTimes) -> None:
        """Account one stream's cold run from its grids and events."""
        cells = {name: dict(grid.cells) for name, grid in grids.items()}
        n_cells = sum(len(c) for c in cells.values())
        self.attempted += n_cells
        finished = [e for e in recorder.events if e.kind == "cell-finished"]
        times.cold_s.append(seconds)
        times.overhead_s.append(seconds - sum(e.wall_time for e in finished))
        for event in finished:
            times.cell_s.setdefault((event.workload_name, event.key), []).append(event.wall_time)
        self.cold_wall_s += seconds
        self.cell_wall_s += sum(e.wall_time for e in finished)
        self.retries += sum(s.retries for s in recorder.stats)
        self.degraded_cells += sum(s.degraded_cells for s in recorder.stats)
        self.backends |= {s.backend for s in recorder.stats}
        # A cell that was retried or started twice (the serial fallback
        # after degradation) failed once, whatever its final output.
        started: dict = {}
        for event in recorder.events:
            where = (event.workload_name, event.key)
            if event.kind == "cell-retry":
                self.failed.add(where)
            elif event.kind == "cell-started":
                started[where] = started.get(where, 0) + 1
                if started[where] > 1:
                    self.failed.add(where)
        if len(finished) != n_cells:
            self.problems.append(
                f"cold run simulated {len(finished)} of {n_cells} cells (expected no cache hits)"
            )
        for name, grid_cells in cells.items():
            if name not in self.cells:
                self.cells[name] = grid_cells
                continue
            for key, cell in grid_cells.items():
                if cell_outputs(cell) != cell_outputs(self.cells[name][key]):
                    self.failed.add((name, key))
                    self.problems.append(f"{name} {key}: cold runs of one stream disagree")

    def record_warm(self, grids: dict, recorder: Recorder) -> None:
        """Check one warm re-run against the cold cells."""
        n_cells = sum(len(grid.cells) for grid in grids.values())
        self.attempted += n_cells
        hits = sum(s.cache_hits for s in recorder.stats)
        if hits != n_cells:
            self.problems.append(f"warm re-run hit the cache for {hits} of {n_cells} cells")
        for name, grid in grids.items():
            for key, cell in grid.cells.items():
                if (name, key) in self.failed:
                    continue
                if cell_outputs(cell) != cell_outputs(self.cells[name][key]):
                    self.failed.add((name, key))
                    self.problems.append(f"{name} {key}: warm re-run differs from cold run")


def cell_outputs(cell: object) -> tuple:
    """The deterministic outputs of a cell (timings excluded)."""
    return (
        cell.objective,  # type: ignore[attr-defined]
        cell.makespan,  # type: ignore[attr-defined]
        cell.max_queue_length,  # type: ignore[attr-defined]
        cell.interrupted_jobs,  # type: ignore[attr-defined]
        cell.wasted_node_seconds,  # type: ignore[attr-defined]
        cell.lost_node_seconds,  # type: ignore[attr-defined]
        cell.requeue_delay,  # type: ignore[attr-defined]
    )


def measure(
    workload: Workload,
    seed: int,
    tmp_root: Path,
    *,
    streams: int | None = None,
    rounds: int = ROUNDS,
    seconds: float = 0.0,
    setup_repeats: int = SETUP_REPEATS,
    warm: bool = True,
    workers: int | None = None,
) -> GridRun:
    """Measure the workload (or its first ``streams``) in rounds.

    Each round visits every stream in turn: ``setup_repeats`` set-up
    probes, then a cold run against a fresh cache, which replaces the
    stream's cache of the round before.  With ``warm``, every cold run is
    followed by a warm re-run of that stream and of the
    ``WARM_RERUNS - 1`` streams before it, each against its own cache.  At least ``rounds`` rounds run; after them, rounds go on
    until ``seconds`` have passed, the last one stopping between streams.
    A stream's samples of one metric are thus spread over the whole
    measurement, so a slow phase of a shared machine rarely covers all of
    them.
    """
    seeds = workload.stream_seeds(seed)[:streams]
    run = GridRun(
        streams=[StreamTimes() for _ in seeds],
        prefixes=[workload.grid_name(index) for index in range(len(seeds))],
        serial=(workload.workers if workers is None else workers) == 1,
    )
    #: Stream index -> (jobs, engine, recorder, cache directory).
    cached: dict[int, tuple[list, object, Recorder, Path]] = {}
    t0 = time.perf_counter()
    try:
        while run.rounds < rounds or time.perf_counter() - t0 < seconds:
            for index, stream_seed in enumerate(seeds):
                if run.rounds >= rounds and time.perf_counter() - t0 >= seconds:
                    break
                times = run.streams[index]
                for _ in range(setup_repeats):
                    elapsed, jobs = setup_probe(workload, index, stream_seed, tmp_root)
                    times.setup_s.append(elapsed)
                if not setup_repeats:
                    jobs = workload.stream(stream_seed)
                if not run.rounds:
                    run.jobs.append(len(jobs))
                if index in cached:
                    shutil.rmtree(cached.pop(index)[3], ignore_errors=True)
                work = scratch_dir(tmp_root)
                recorder = Recorder()
                engine = make_engine(workload, work / "cache", recorder, workers)
                cached[index] = (jobs, engine, recorder, work)
                started = time.perf_counter()
                grids = workload.run(engine, jobs, stream=index)
                run.record_cold(grids, recorder, time.perf_counter() - started, times)
                if not warm:
                    continue
                for warm_index in dict.fromkeys(
                    (index - back) % len(seeds) for back in range(WARM_RERUNS)
                ):
                    if warm_index not in cached:
                        continue
                    warm_jobs, warm_engine, warm_recorder, _ = cached[warm_index]
                    warm_recorder.events.clear()
                    warm_recorder.stats.clear()
                    started = time.perf_counter()
                    grids = workload.run(warm_engine, warm_jobs, stream=warm_index)
                    run.streams[warm_index].warm_s.append(time.perf_counter() - started)
                    run.record_warm(grids, warm_recorder)
            run.rounds += 1
    finally:
        for *_, work in cached.values():
            shutil.rmtree(work, ignore_errors=True)
    return run


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process this run started."""
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.join(max(0.0, deadline - time.monotonic()))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run(workload: Workload, seed: int, seconds: float, tmp_root: Path) -> dict:
    """The timed mode: end-to-end metrics, untraced, plus the output checks.

    One measurement of at least :data:`ROUNDS` rounds that lasts about
    ``seconds``; each time metric is built from the fastest samples (see
    :class:`GridRun`) and averaged over the streams.
    """
    grid = measure(workload, seed, tmp_root, seconds=seconds)
    reap_children()
    problems = list(grid.problems)
    failed = set(grid.failed)
    failed |= checks.against_golden(workload, seed, grid.cells, problems)
    values = {
        "grid_s": grid.grid_s,
        "setup_s": grid.setup_s,
        "cell_max_s": grid.cell_max_s,
        "rerun_s": grid.warm_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "correct": not problems and not failed,
        "attempted": grid.attempted,
        "failed": min(grid.attempted, len(failed)),
        "metrics": {
            name: {"value": value, "unit": "MiB" if name == "peak_rss_mb" else "s"}
            for name, value in values.items()
        },
        "problems": problems,
        "meta": {
            "rounds": grid.rounds,
            "setup_runs": SETUP_REPEATS,
            "warm_runs": [len(s.warm_s) for s in grid.streams],
            "backend_engine": ",".join(sorted(grid.backends)),
            "jobs": grid.jobs,
            "stream_grid_s": [[round(t, 4) for t in s.cold_s] for s in grid.streams],
            "stream_fastest_s": [round(min(s.cold_s), 4) for s in grid.streams],
            "stream_rerun_s": [round(min(s.warm_s), 4) for s in grid.streams],
            "stream_setup_s": [round(min(s.setup_s), 4) for s in grid.streams],
        },
    }
