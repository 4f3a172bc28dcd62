"""Microbenchmarks of the availability profile — the measured hot spot.

Conservative backfilling issues hundreds of thousands of first-fit queries
per simulated month; these benchmarks track the profile's query and
reservation costs so a regression is caught before it melts the Table 3
runtimes.  (This is also where the NumPy-vs-lists decision documented in
``repro/core/profile.py`` was measured.)

Run under pytest-benchmark for statistics, or as a script for the CI
perf-smoke baseline::

    PYTHONPATH=src python benchmarks/bench_profile.py --bench-json BENCH_profile.json
"""

import argparse
import json
import random
import time
from pathlib import Path

from repro.core import vector
from repro.core.job import Job
from repro.core.profile import AvailabilityProfile
from repro.core.schedule import ScheduledJob
from repro.core.state import SchedulingState
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
)


def build_profile(n_reservations: int, total_nodes: int = 256, seed: int = 0):
    rng = random.Random(seed)
    profile = AvailabilityProfile(total_nodes)
    for _ in range(n_reservations):
        nodes = rng.randint(1, total_nodes // 4)
        duration = rng.uniform(10.0, 5000.0)
        after = rng.uniform(0.0, 1e5)
        start = profile.earliest_start(nodes, duration, after=after)
        profile.reserve(start, duration, nodes)
    return profile


def test_profile_build_and_reserve(benchmark):
    profile = benchmark(build_profile, 200)
    assert profile.steps()[-1][1] == 256


def test_earliest_start_queries(benchmark):
    profile = build_profile(300)
    rng = random.Random(1)
    queries = [
        (rng.randint(1, 256), rng.uniform(10.0, 5000.0), rng.uniform(0.0, 1e5))
        for _ in range(500)
    ]

    def run():
        total = 0.0
        for nodes, duration, after in queries:
            total += profile.earliest_start(nodes, duration, after=after)
        return total

    total = benchmark(run)
    assert total > 0


def test_earliest_start_batch(benchmark):
    """The batch kernel: same queries as above, one call, shared locals."""
    profile = build_profile(300)
    rng = random.Random(1)
    requests = [
        (rng.randint(1, 256), rng.uniform(10.0, 5000.0)) for _ in range(500)
    ]

    starts = benchmark(profile.earliest_start_batch, requests)
    assert len(starts) == len(requests)
    assert starts == [
        profile.earliest_start(nodes, duration) for nodes, duration in requests
    ]


def test_allocate_fused(benchmark):
    """allocate() = earliest_start + reserve without the re-validation scan."""

    def run():
        profile = build_profile(50)
        rng = random.Random(7)
        for _ in range(250):
            nodes = rng.randint(1, 64)
            duration = rng.uniform(10.0, 5000.0)
            profile.allocate(nodes, duration, after=rng.uniform(0.0, 1e5))
        return profile

    profile = benchmark(run)
    assert profile.steps()[-1][1] == 256


def test_from_running_bulk(benchmark):
    rng = random.Random(2)
    running = [(rng.uniform(0.0, 1e5), rng.randint(1, 8)) for _ in range(120)]
    while sum(n for _e, n in running) > 256:
        running.pop()

    profile = benchmark(AvailabilityProfile.from_running, 256, 0.0, running)
    assert profile.steps()[-1][1] == 256


# -- incremental state vs rebuild-per-decision ---------------------------------
#
# The event trace below mimics a simulated month under backlog: jobs start
# and complete while the clock advances, and the scheduler snapshots the
# availability at every decision point.  The incremental path applies one
# O(log m) delta per event and clones on snapshot; the rebuild path sorts
# the whole running table at every decision point — the pattern the
# SchedulingState refactor removed.

_N_EVENTS = 400
_TOTAL = 256


def _event_trace(seed: int = 3):
    """(now, starts, completions) tuples driving both implementations."""
    rng = random.Random(seed)
    trace = []
    running = {}
    now = 0.0
    next_id = 0
    for _ in range(_N_EVENTS):
        now += rng.uniform(1.0, 50.0)
        done = [job_id for job_id, (end, _n) in running.items() if end <= now]
        for job_id in done:
            del running[job_id]
        starts = []
        used = sum(n for _e, n in running.values())
        for _ in range(rng.randint(1, 3)):
            nodes = rng.randint(1, _TOTAL // 8)
            if used + nodes > _TOTAL:
                break
            est = rng.uniform(10.0, 5000.0)
            running[next_id] = (now + est, nodes)
            starts.append((next_id, est, nodes))
            used += nodes
            next_id += 1
        trace.append((now, starts, done, list(running.items())))
    return trace


def _replay_incremental(trace):
    state = SchedulingState(_TOTAL)
    acc = 0.0
    for now, starts, done, _running in trace:
        state.advance(now)
        for job_id in done:
            state.on_release(job_id)
        for job_id, est, nodes in starts:
            state.on_start(job_id, est, nodes)
        acc += state.snapshot().free_at(now)
    return acc


def _replay_rebuild(trace):
    acc = 0.0
    for now, _starts, _done, running in trace:
        releases = [(end, nodes) for _job_id, (end, nodes) in running]
        profile = AvailabilityProfile.from_running(_TOTAL, now, releases)
        acc += profile.free_at(now)
    return acc


def test_incremental_state_replay(benchmark):
    trace = _event_trace()
    acc = benchmark(_replay_incremental, trace)
    assert acc == _replay_rebuild(trace)  # same availability at every point


def test_rebuild_per_decision_replay(benchmark):
    trace = _event_trace()
    acc = benchmark(_replay_rebuild, trace)
    assert acc > 0


def test_incremental_beats_rebuild():
    """The refactor's raison d'être: deltas + snapshots beat re-sorting.

    Measured outside pytest-benchmark so the two paths can be compared in
    one test; best-of-5 wall clock on identical traces.
    """
    trace = _event_trace()
    _replay_incremental(trace), _replay_rebuild(trace)  # warm up

    def best_of(fn, rounds=5):
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn(trace)
            best = min(best, time.perf_counter() - t0)
        return best

    incremental = best_of(_replay_incremental)
    rebuild = best_of(_replay_rebuild)
    print(
        f"\nincremental={incremental * 1e3:.2f}ms rebuild={rebuild * 1e3:.2f}ms "
        f"speedup={rebuild / incremental:.2f}x"
    )
    assert incremental < rebuild, (
        f"incremental state ({incremental:.4f}s) should beat "
        f"rebuild-per-decision ({rebuild:.4f}s)"
    )


# -- columnar metric kernels ------------------------------------------------------
#
# Metric accumulation (ResultColumns + np.add.accumulate reductions) beats
# the scalar objective loops by well over an order of magnitude at grid
# scale — the acceptance bar below asserts >= 5x with a wide margin.  It is
# the one place the simulator uses numpy (see the "One event loop" decision
# record in docs/architecture.md).

_METRIC_N = 100_000


def _metric_fixture(n: int = _METRIC_N, seed: int = 5) -> list[ScheduledJob]:
    """A synthetic finished schedule, large enough to time the reductions."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        submit = rng.uniform(0.0, 1e6)
        start = submit + rng.uniform(0.0, 1e4)
        runtime = rng.uniform(10.0, 1e4)
        items.append(
            ScheduledJob(
                job=Job(
                    job_id=i,
                    submit_time=submit,
                    nodes=rng.randint(1, 64),
                    runtime=runtime,
                ),
                start_time=start,
                end_time=start + runtime,
            )
        )
    return items


def _bench_jobs(n: int = 1000, seed: int = 42, total_nodes: int = 256) -> list[Job]:
    """Deterministic stream with enough backlog to exercise the event loop."""
    rng = random.Random(seed)
    jobs = []
    t = 0.0
    for i in range(n):
        t += rng.uniform(0.0, 20.0)
        runtime = rng.uniform(1.0, 3000.0)
        jobs.append(
            Job(
                job_id=i,
                submit_time=t,
                nodes=rng.randint(1, total_nodes),
                runtime=runtime,
                estimate=runtime * rng.uniform(1.0, 4.0),
            )
        )
    return jobs


def test_metric_kernels_beat_scalar_5x():
    """Acceptance bar: the columnar metric kernels are >= 5x the scalar
    loops (and bit-identical).  Measured ~20-40x; 5x leaves CI headroom."""
    items = _metric_fixture()
    columns = vector.ResultColumns.from_schedule(items)

    def best_of(fn, rounds=5):
        fn()
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    assert vector.average_response_time_columns(columns) == (
        average_response_time(items)
    )
    assert vector.average_weighted_response_time_columns(columns) == (
        average_weighted_response_time(items)
    )
    scalar_art = best_of(lambda: average_response_time(items))
    vector_art = best_of(lambda: vector.average_response_time_columns(columns))
    scalar_awrt = best_of(lambda: average_weighted_response_time(items))
    vector_awrt = best_of(
        lambda: vector.average_weighted_response_time_columns(columns)
    )
    art_x = scalar_art / vector_art
    awrt_x = scalar_awrt / vector_awrt
    print(f"\nART {art_x:.1f}x  AWRT {awrt_x:.1f}x (vector vs scalar, n={len(items)})")
    assert art_x >= 5.0, f"ART kernel only {art_x:.1f}x the scalar loop"
    assert awrt_x >= 5.0, f"AWRT kernel only {awrt_x:.1f}x the scalar loop"


def _bench_spec():
    """A representative multi-phase scenario spec (no closed-loop users:
    FeedbackUsers *generates* the workload, it is not compile overhead)."""
    from repro.scenarios import (
        CancellationModel,
        FailureModel,
        LoadSurge,
        RuntimeVariability,
        ScenarioSpec,
    )

    return ScenarioSpec(
        (
            LoadSurge(at=500.0, duration=2_000.0, count=50),
            RuntimeVariability(estimate_sigma=0.3, enforce_limit=True),
            CancellationModel(fraction=0.1),
            FailureModel(mtbf=40_000.0, mttr=1_800.0, recovery="resubmit"),
        ),
        seed=7,
    )


def test_scenario_compile_overhead_under_5pct():
    """Acceptance bar for the scenario algebra: compiling a full
    multi-phase spec against a Table 3–8-scale stream costs < 5% of one
    cell's simulation time (and the engine compiles once per *grid*, not
    per cell, so the real overhead is a further ~13x smaller)."""
    from repro.core.machine import Machine
    from repro.core.simulator import Simulator
    from repro.schedulers.registry import build_scheduler, registered_configurations

    jobs = _bench_jobs()
    spec = _bench_spec()
    config = next(c for c in registered_configurations() if c.key == "fcfs/easy")

    def cell():
        return Simulator(Machine(256), build_scheduler(config, 256)).run(jobs)

    compile_time = _best_of(lambda: spec.compile(jobs))
    cell_time = _best_of(cell)
    ratio = compile_time / cell_time
    print(
        f"\ncompile={compile_time * 1e3:.2f}ms cell={cell_time * 1e3:.2f}ms "
        f"({ratio * 100:.1f}% of cell runtime)"
    )
    assert ratio < 0.05, (
        f"scenario compile is {ratio * 100:.1f}% of cell runtime (bar: 5%)"
    )


# -- script mode: JSON baseline for the CI perf-smoke gate -----------------------


def _best_of(fn, rounds: int = 5) -> float:
    fn()  # warm up
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def collect_measurements(rounds: int = 5) -> dict[str, float]:
    """Best-of-``rounds`` wall clock (seconds) for each tracked hot path."""
    profile = build_profile(300)
    rng = random.Random(1)
    queries = [
        (rng.randint(1, 256), rng.uniform(10.0, 5000.0), rng.uniform(0.0, 1e5))
        for _ in range(500)
    ]
    requests = [(nodes, duration) for nodes, duration, _after in queries]
    trace = _event_trace()

    def scalar_queries():
        for nodes, duration, after in queries:
            profile.earliest_start(nodes, duration, after=after)

    def allocate_churn():
        p = build_profile(50)
        churn = random.Random(7)
        for _ in range(250):
            p.allocate(
                churn.randint(1, 64),
                churn.uniform(10.0, 5000.0),
                after=churn.uniform(0.0, 1e5),
            )

    items = _metric_fixture()
    columns = vector.ResultColumns.from_schedule(items)
    jobs = _bench_jobs()

    def simulate_easy():
        from repro.core.machine import Machine
        from repro.core.simulator import Simulator
        from repro.schedulers.registry import (
            build_scheduler,
            registered_configurations,
        )

        config = next(
            c for c in registered_configurations() if c.key == "fcfs/easy"
        )
        Simulator(Machine(256), build_scheduler(config, 256)).run(jobs)

    scalar_awrt = _best_of(lambda: average_weighted_response_time(items), rounds)
    vector_awrt = _best_of(
        lambda: vector.average_weighted_response_time_columns(columns), rounds
    )
    return {
        "earliest_start_500_queries": _best_of(scalar_queries, rounds),
        "earliest_start_batch_500": _best_of(
            lambda: profile.earliest_start_batch(requests), rounds
        ),
        "allocate_churn_250": _best_of(allocate_churn, rounds),
        "incremental_state_replay": _best_of(
            lambda: _replay_incremental(trace), rounds
        ),
        # The columnar metric kernels.  The two *_100k timings are the
        # columnar AWRT reduction vs the scalar objective loop on the same
        # 100k-item schedule; their ratio is gated >= 10x (see the
        # `_reduction_x` rule in check_regression.py — measured ~35x).
        "metric_scalar_awrt_100k": scalar_awrt,
        "metric_vector_awrt_100k": vector_awrt,
        "metric_kernel_reduction_x": scalar_awrt / vector_awrt,
        # The scenario algebra.  Compiling a full multi-phase spec
        # (surge + variability + cancellations + MTBF failures) against a
        # 1000-event stream; bounded < 5% of a cell's simulation time by
        # test_scenario_compile_overhead_under_5pct.
        "scenario_compile_per_1k_events": _best_of(
            lambda: _bench_spec().compile(jobs), rounds
        ),
        # One whole fcfs/easy cell over a 1k-job backlogged stream.
        "simulate_easy_1k": _best_of(simulate_easy, rounds),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench-json",
        type=Path,
        default=None,
        help="write measurements to this JSON file (perf-smoke baseline)",
    )
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    measurements = collect_measurements(rounds=args.rounds)
    for name, value in measurements.items():
        if name.endswith("_x"):
            print(f"{name}: {value:.1f}x")
        else:
            print(f"{name}: {value * 1e3:.3f} ms")
    if args.bench_json is not None:
        args.bench_json.write_text(
            json.dumps({"suite": "profile", "seconds": measurements}, indent=2)
            + "\n"
        )
        print(f"wrote {args.bench_json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
