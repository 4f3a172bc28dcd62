"""Bit-identity of spec-driven scenarios against the pre-refactor wiring.

The scenario algebra is a *refactor*, never a semantics change: a
``ScenarioSpec`` must reproduce the four code paths it replaced bit for
bit, over every cell of the scheduler registry, in both objective
regimes —

* :class:`~repro.scenarios.CancellationModel` vs a hand-built
  :func:`~repro.workloads.transforms.random_cancellations` stream,
* :class:`~repro.scenarios.RuntimeVariability` (``enforce_limit``) vs
  ``SimulationConfig(cancel_over_limit=True)``,
* :class:`~repro.scenarios.FailureModel` (MTBF renewal model) vs a
  hand-built :func:`~repro.failures.trace.mtbf_trace` under every
  recovery policy,
* :class:`~repro.scenarios.FeedbackUsers` vs the closed-loop
  ``run_closed_loop(...).trace`` wiring.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.machine import Machine
from repro.core.simulator import ScenarioInputs, SimulationConfig, Simulator
from repro.failures.trace import mtbf_trace
from repro.scenarios import (
    CancellationModel,
    FailureModel,
    FeedbackUsers,
    RuntimeVariability,
    ScenarioSpec,
)
from repro.schedulers.registry import build_scheduler, registered_configurations
from repro.workloads.transforms import random_cancellations
from tests.conftest import make_jobs

NODES = 64
RECOVERIES = ["abandon", "resubmit", "checkpoint:interval=300.0,overhead=30.0"]


def full_signature(result):
    return (
        [
            (item.job.job_id, item.start_time, item.end_time, item.cancelled)
            for item in result.schedule
        ],
        result.decision_points,
        result.max_queue_length,
        result.end_time,
        result.cancelled_queued,
        result.killed_running,
        result.failure_killed,
        [
            (item.job.job_id, item.start_time, item.end_time)
            for item in result.interrupted
        ],
        result.lost_node_seconds,
        result.wasted_node_seconds,
        result.requeue_delay,
    )


def run_cell(config, jobs, *, weighted=False, scenario=None, sim_config=None):
    return Simulator(
        Machine(NODES),
        build_scheduler(config, NODES, weighted=weighted),
        sim_config,
    ).run(jobs, scenario=scenario)


def assert_channel_equivalent(jobs, *, legacy_scenario=None, spec=None,
                              legacy_config=None, weighted=False):
    """One regime, every registry cell: spec == legacy."""
    for config in registered_configurations():
        legacy = run_cell(
            config, jobs, weighted=weighted,
            scenario=legacy_scenario, sim_config=legacy_config,
        )
        via_spec = run_cell(config, jobs, weighted=weighted, scenario=spec)
        assert full_signature(via_spec) == full_signature(legacy), config.key


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_cancellation_model_matches_hand_built_stream(weighted):
    jobs = make_jobs(90, seed=41, max_nodes=NODES, mean_gap=40.0)
    fraction, seed = 0.2, 11
    legacy = ScenarioInputs(
        cancellations=random_cancellations(jobs, fraction, seed=seed)
    )
    spec = ScenarioSpec((CancellationModel(fraction=fraction, seed=seed),))
    assert_channel_equivalent(
        jobs, legacy_scenario=legacy, spec=spec, weighted=weighted
    )


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_enforce_limit_matches_cancel_over_limit_config(weighted):
    jobs = make_jobs(80, seed=43, max_nodes=NODES, mean_gap=40.0)
    jobs = [
        replace(job, estimate=job.runtime * 0.6) if job.job_id % 5 == 0 else job
        for job in jobs
    ]
    assert_channel_equivalent(
        jobs,
        legacy_config=SimulationConfig(cancel_over_limit=True),
        spec=ScenarioSpec((RuntimeVariability(enforce_limit=True),)),
        weighted=weighted,
    )


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("recovery", RECOVERIES)
def test_failure_model_matches_hand_built_trace(recovery, weighted):
    jobs = make_jobs(80, seed=53, max_nodes=NODES, mean_gap=40.0)
    horizon = max(j.submit_time for j in jobs) + 8_000.0
    trace = mtbf_trace(
        total_nodes=NODES, horizon=horizon, mtbf=15_000.0, mttr=1_200.0,
        seed=59, max_nodes_per_failure=4,
    )
    assert len(trace) > 0
    spec = ScenarioSpec(
        (
            FailureModel(
                mtbf=15_000.0, mttr=1_200.0, horizon=horizon, seed=59,
                max_nodes_per_failure=4, total_nodes=NODES, recovery=recovery,
            ),
        )
    )
    # Equal seeds ⇒ byte-identical traces before any simulation runs.
    assert spec.compile(jobs).failures.fingerprint() == trace.fingerprint()
    assert_channel_equivalent(
        jobs,
        legacy_scenario=ScenarioInputs(failures=trace, recovery=recovery),
        spec=spec,
        weighted=weighted,
    )


def test_feedback_users_matches_closed_loop_trace():
    from repro.schedulers.registry import SchedulerConfig
    from repro.workloads.feedback import default_population, run_closed_loop

    n_users, horizon, seed = 5, 15_000.0, 3
    expected = run_closed_loop(
        default_population(n_users, seed=seed),
        build_scheduler(SchedulerConfig("fcfs", "easy"), NODES),
        NODES,
        horizon=horizon,
        seed=seed,
    ).trace
    spec = ScenarioSpec(
        (
            FeedbackUsers(
                n_users=n_users, horizon=horizon, reference="fcfs/easy",
                total_nodes=NODES, seed=seed,
            ),
        )
    )
    compiled = spec.compile([])
    assert compiled.jobs == tuple(expected)
    # The realized trace plays identically against grid cells: arrival
    # components rewrite the stream before simulation, nothing else.
    for weighted in (False, True):
        for config in registered_configurations():
            via_spec = run_cell(config, [], weighted=weighted, scenario=spec)
            direct = run_cell(config, list(expected), weighted=weighted)
            assert full_signature(via_spec) == full_signature(direct), config.key
