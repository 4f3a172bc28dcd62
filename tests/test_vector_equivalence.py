"""Bit-identity of the columnar objective kernels against the scalar loops.

The simulator accumulates every finished record into a
:class:`~repro.core.vector.ResultColumns` and the experiment runner
reduces those columns with the NumPy kernels of :mod:`repro.core.vector`.
The kernels must equal the scalar loops of
:mod:`repro.metrics.objectives` *bit for bit* — an ulp of drift would
change objectives and invalidate every cached cell — and the columns must
mirror the schedule row for row, including the records written by the
cancellation, over-limit and failure-kill paths.  Covered here over

* every cell of the scheduler registry, in both objective regimes,
* streams with queued and running cancellations,
* the estimate-limit kill policy (``cancel_over_limit``),
* failure traces under every recovery policy, and
* simultaneous submissions.
"""

from dataclasses import replace

import pytest

from repro.core import vector
from repro.core.machine import Machine
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.failures import audit_run, mtbf_trace
from repro.metrics.objectives import (
    average_response_time,
    average_weighted_response_time,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from tests.conftest import make_jobs

NODES = 64


def run_checked(make_scheduler, jobs, *, config=None, scenario=None):
    """Run one cell; assert its columns mirror the schedule and reduce to
    the scalar objectives exactly."""
    result = Simulator(Machine(NODES), make_scheduler(), config).run(
        jobs, scenario=scenario
    )
    columns = result.columns
    assert len(columns) == len(result.schedule)
    views = columns.views()
    assert list(
        zip(views["submit"].tolist(), views["start"].tolist(), views["end"].tolist())
    ) == [(i.job.submit_time, i.start_time, i.end_time) for i in result.schedule]
    assert views["area"].tolist() == [i.job.area for i in result.schedule]
    assert vector.average_response_time_columns(columns) == (
        average_response_time(result.schedule)
    )
    assert vector.average_weighted_response_time_columns(columns) == (
        average_weighted_response_time(result.schedule)
    )
    return result


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("config", registered_configurations(), ids=lambda c: c.key)
def test_registry_cells_bit_identical(config, weighted):
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    run_checked(lambda: build_scheduler(config, NODES, weighted=weighted), jobs)


def test_cancellation_stream_bit_identical():
    jobs = make_jobs(120, seed=41, max_nodes=NODES, mean_gap=40.0)
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 7 == 0
    ]
    scenario = ScenarioInputs(cancellations=cancellations)
    for config in registered_configurations():
        result = run_checked(
            lambda: build_scheduler(config, NODES), jobs, scenario=scenario
        )
        assert result.killed_running or result.cancelled_queued


def test_over_limit_kills_bit_identical():
    jobs = make_jobs(100, seed=43, max_nodes=NODES, mean_gap=40.0)
    jobs = [
        replace(job, estimate=job.runtime * 0.6) if job.job_id % 5 == 0 else job
        for job in jobs
    ]
    config = SimulationConfig(cancel_over_limit=True)
    for scheduler_config in registered_configurations():
        result = run_checked(
            lambda: build_scheduler(scheduler_config, NODES), jobs, config=config
        )
        assert any(item.cancelled for item in result.schedule)


@pytest.mark.parametrize(
    "recovery", ["abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0"]
)
def test_failure_injection_bit_identical(recovery):
    jobs = make_jobs(120, seed=53, max_nodes=NODES, mean_gap=40.0)
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=15_000.0,
        mttr=1_200.0,
        seed=59,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    scenario = ScenarioInputs(failures=trace, recovery=recovery)
    for config in registered_configurations():
        result = run_checked(
            lambda: build_scheduler(config, NODES), jobs, scenario=scenario
        )
        result.schedule.validate(NODES, capacity=trace.capacity_steps(NODES))
        audit_run(result, jobs, trace, NODES, recovery=recovery)


def test_simultaneous_submissions_bit_identical():
    """Equal submit times: the feed breaks ties by job id, and the columns
    still follow the schedule's completion order."""
    jobs = make_jobs(80, seed=71, max_nodes=NODES, mean_gap=40.0)
    jobs = [replace(job, submit_time=float(int(job.submit_time) // 200 * 200)) for job in jobs]
    for config in registered_configurations():
        run_checked(lambda: build_scheduler(config, NODES), jobs)


def test_resolve_backend_names_the_one_loop(monkeypatch):
    """The stand-in answers with the one event loop's name and ignores the
    environment variable that used to select a backend."""
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    assert vector.resolve_backend(None) == "python"


def test_exact_sum_matches_python_sum():
    import random

    rng = random.Random(11)
    values = [rng.uniform(-1e9, 1e9) for _ in range(10_001)]
    assert vector.exact_sum(values) == sum(values)
    assert vector.exact_sum([]) == 0.0


def test_result_columns_from_schedule_matches_run_columns():
    jobs = make_jobs(60, seed=13, max_nodes=NODES, mean_gap=40.0)
    config = next(iter(registered_configurations()))
    result = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(jobs)
    rebuilt = vector.ResultColumns.from_schedule(result.schedule)
    assert rebuilt.views()["end"].tolist() == result.columns.views()["end"].tolist()
    assert vector.average_response_time_columns(rebuilt) == (
        average_response_time(result.schedule)
    )
