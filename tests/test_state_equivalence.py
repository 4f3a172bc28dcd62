"""Mechanical-equivalence property: incremental state vs rebuild-per-decision.

The whole point of :class:`~repro.core.state.SchedulingState` is that it is
an *optimisation*, not an algorithm change: every paper configuration must
produce bit-identical schedules whether the simulator maintains incremental
state (``SimulationConfig(incremental_state=True)``, the default) or hands
schedulers fresh ``from_running`` rebuilds (``incremental_state=False``,
the reference oracle).  This file asserts exactly that, over

* every cell of the scheduler registry, in both objective regimes,
* slack backfilling (the continuum between the paper's two variants),
* drained schedules with whole-machine reservations,
* streams with queued and running cancellations, and
* the estimate-limit kill policy (``cancel_over_limit``),

plus a verified pass (``verify_state=1``) that cross-checks every snapshot
against a rebuild while simulating — the CI ``verify-state`` job runs this
file with ``REPRO_VERIFY_STATE=1`` so the in-simulation checks are doubled.
"""

import pytest

from repro.core.machine import Machine
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.failures import FailureTrace, audit_run, mtbf_trace
from repro.schedulers.base import OrderedQueueScheduler, SubmitOrderPolicy
from repro.schedulers.drain import DrainingScheduler, Reservation
from repro.schedulers.registry import build_scheduler, registered_configurations
from repro.schedulers.slack import SlackBackfill
from tests.conftest import make_jobs

NODES = 64


def signature(result):
    return [
        (item.job.job_id, item.start_time, item.end_time, item.cancelled)
        for item in result.schedule
    ]


REFERENCE = SimulationConfig(incremental_state=False)


def assert_equivalent(make_scheduler, jobs, *, nodes=NODES, **config):
    # verify_state is left at None so the incremental run picks up the
    # REPRO_VERIFY_STATE cadence — the CI verify-state job sets it to 1.
    incremental = Simulator(
        Machine(nodes), make_scheduler(), SimulationConfig(**config)
    ).run(jobs)
    reference = Simulator(
        Machine(nodes),
        make_scheduler(),
        SimulationConfig(incremental_state=False, **config),
    ).run(jobs)
    assert signature(incremental) == signature(reference)
    assert incremental.cancelled_queued == reference.cancelled_queued
    assert incremental.killed_running == reference.killed_running
    return incremental


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize(
    "config", registered_configurations(), ids=lambda c: c.key
)
def test_registry_cells_bit_identical(config, weighted):
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    assert_equivalent(
        lambda: build_scheduler(config, NODES, weighted=weighted), jobs
    )


def test_slack_backfill_bit_identical():
    jobs = make_jobs(120, seed=31, max_nodes=NODES, mean_gap=40.0)
    for factor in (0.0, 1.0, 5.0):
        assert_equivalent(
            lambda: OrderedQueueScheduler(
                SubmitOrderPolicy(), SlackBackfill(factor), name="slack"
            ),
            jobs,
        )


def test_drained_schedule_bit_identical():
    jobs = make_jobs(100, seed=37, max_nodes=NODES, mean_gap=40.0)
    horizon = max(j.submit_time for j in jobs)
    reservations = [
        Reservation(horizon * 0.25, horizon * 0.25 + 600.0),
        Reservation(horizon * 0.75, horizon * 0.75 + 600.0),
    ]
    assert_equivalent(
        lambda: DrainingScheduler(
            SubmitOrderPolicy(), SlackBackfill(1.0), reservations
        ),
        jobs,
    )


def test_cancellation_stream_bit_identical():
    jobs = make_jobs(120, seed=41, max_nodes=NODES, mean_gap=40.0)
    # Withdraw every 7th job shortly after submission (some will still be
    # queued, some already running, some already done — all three races).
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 7 == 0
    ]
    scenario = ScenarioInputs(cancellations=cancellations)
    for config in registered_configurations():
        incremental = Simulator(
            Machine(NODES), build_scheduler(config, NODES)
        ).run(jobs, scenario=scenario)
        reference = Simulator(
            Machine(NODES), build_scheduler(config, NODES), REFERENCE
        ).run(jobs, scenario=scenario)
        assert signature(incremental) == signature(reference), config.key
        assert incremental.cancelled_queued == reference.cancelled_queued
        assert incremental.killed_running == reference.killed_running


def test_over_limit_kills_bit_identical():
    jobs = make_jobs(100, seed=43, max_nodes=NODES, mean_gap=40.0)
    # Shrink some estimates below the runtime so the limit policy fires.
    from dataclasses import replace

    jobs = [
        replace(job, estimate=job.runtime * 0.6)
        if job.job_id % 5 == 0
        else job
        for job in jobs
    ]
    for config in registered_configurations():
        assert_equivalent(
            lambda: build_scheduler(config, NODES), jobs, cancel_over_limit=True
        )


@pytest.mark.parametrize(
    "config", registered_configurations(), ids=lambda c: c.key
)
def test_empty_failure_trace_bit_identical_to_no_failures(config):
    """Injecting an *empty* trace must not perturb a single bit: the failure
    machinery has to stay fully dormant until an event actually exists."""
    jobs = make_jobs(150, seed=23, max_nodes=NODES, mean_gap=40.0)
    plain = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(jobs)
    injected = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(
        jobs,
        scenario=ScenarioInputs(
            failures=FailureTrace(), recovery="checkpoint:interval=60,overhead=5"
        ),
    )
    assert signature(injected) == signature(plain)
    assert injected.decision_points == plain.decision_points
    assert injected.failure_killed == ()
    assert injected.interrupted == ()
    assert injected.lost_node_seconds == 0.0
    assert injected.wasted_node_seconds == 0.0


def _failure_signature(result):
    return (
        signature(result),
        result.failure_killed,
        [
            (item.job.job_id, item.start_time, item.end_time)
            for item in result.interrupted
        ],
        result.wasted_node_seconds,
        result.requeue_delay,
    )


@pytest.mark.parametrize(
    "recovery", ["abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0"]
)
def test_failure_injection_bit_identical(recovery):
    """With failures injected, the incremental state (outage reservations and
    all) still reproduces the rebuild oracle bit for bit, and every run
    passes the independent resilience audit."""
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
        incremental = Simulator(Machine(NODES), build_scheduler(config, NODES)).run(
            jobs, scenario=scenario
        )
        reference = Simulator(
            Machine(NODES), build_scheduler(config, NODES), REFERENCE
        ).run(jobs, scenario=scenario)
        assert _failure_signature(incremental) == _failure_signature(reference), (
            config.key
        )
        incremental.schedule.validate(NODES, capacity=trace.capacity_steps(NODES))
        audit_run(incremental, jobs, trace, NODES, recovery=recovery)


def test_verified_run_with_failures_stays_clean():
    """Snapshot-by-snapshot verification of the incremental state holds while
    outage reservations come and go."""
    jobs = make_jobs(100, seed=61, max_nodes=NODES, mean_gap=40.0)
    trace = mtbf_trace(
        total_nodes=NODES,
        horizon=max(j.submit_time for j in jobs) + 8_000.0,
        mtbf=20_000.0,
        mttr=1_500.0,
        seed=67,
        max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    for config in registered_configurations():
        result = Simulator(
            Machine(NODES),
            build_scheduler(config, NODES),
            SimulationConfig(verify_state=1),
        ).run(jobs, scenario=ScenarioInputs(failures=trace, recovery="resubmit"))
        audit_run(result, jobs, trace, NODES, recovery="resubmit")


def test_verified_run_stays_clean():
    """Every snapshot cross-checked in-simulation: no divergence, ever."""
    jobs = make_jobs(150, seed=47, max_nodes=NODES, mean_gap=40.0)
    for config in registered_configurations():
        result = Simulator(
            Machine(NODES),
            build_scheduler(config, NODES),
            SimulationConfig(verify_state=1),
        ).run(jobs)
        reference = Simulator(
            Machine(NODES), build_scheduler(config, NODES), REFERENCE
        ).run(jobs)
        assert signature(result) == signature(reference), config.key
