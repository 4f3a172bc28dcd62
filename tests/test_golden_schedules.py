"""Golden per-cell schedule digests: the simulator's pinned outputs.

``tests/data/golden_schedules.json`` holds one digest per
case × registry cell × objective regime.  The digests were recorded from
the two simulation paths the simulator used to carry (the per-event
Python loop and the numpy feed with event coalescing), which agreed on
every one of them; the single event loop must reproduce each exactly.

A digest hashes, per schedule record in schedule order, ``(job_id,
start, end, cancelled)`` with the floats in exact hex form, followed by
the run's ``decision_points``, ``max_queue_length`` and
``failure_killed``.  The cases cover plain streams at light and heavy
load, simultaneous submissions, user cancellations, over-limit kills,
node failures under all three recovery policies and every built-in
scenario component.

Regenerate (only after a deliberate change of simulated behaviour)::

    PYTHONPATH=src python -m tests.test_golden_schedules --record tests/data/golden_schedules.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.machine import Machine
from repro.core.simulator import (
    Cancellation,
    ScenarioInputs,
    SimulationConfig,
    Simulator,
)
from repro.failures import mtbf_trace
from repro.scenarios import (
    CancellationModel,
    FailureModel,
    FeedbackUsers,
    LoadSurge,
    RuntimeVariability,
    ScenarioSpec,
)
from repro.schedulers.registry import SchedulerConfig, build_scheduler
from tests.conftest import make_jobs

NODES = 64
GOLDEN = Path(__file__).parent / "data" / "golden_schedules.json"
RECOVERIES = {
    "abandon": "abandon",
    "resubmit": "resubmit",
    "checkpoint": "checkpoint:interval=300.0,overhead=30.0",
}
REGIMES = {"unweighted": False, "weighted": True}


def _plain(n, seed, mean_gap):
    return lambda: (make_jobs(n, seed=seed, max_nodes=NODES, mean_gap=mean_gap), None, None)


def _ties():
    jobs = make_jobs(80, seed=71, max_nodes=NODES, mean_gap=40.0)
    jobs = [replace(j, submit_time=float(int(j.submit_time) // 200 * 200)) for j in jobs]
    return jobs, None, None


def _cancellations():
    jobs = make_jobs(120, seed=41, max_nodes=NODES, mean_gap=40.0)
    cancellations = [
        Cancellation(time=job.submit_time + 90.0, job_id=job.job_id)
        for job in jobs
        if job.job_id % 7 == 0
    ]
    return jobs, ScenarioInputs(cancellations=cancellations), None


def _over_limit():
    jobs = make_jobs(100, seed=43, max_nodes=NODES, mean_gap=40.0)
    jobs = [
        replace(j, estimate=j.runtime * 0.6) if j.job_id % 5 == 0 else j for j in jobs
    ]
    return jobs, None, SimulationConfig(cancel_over_limit=True)


def _failures(recovery):
    def build():
        jobs = make_jobs(120, seed=53, max_nodes=NODES, mean_gap=40.0)
        trace = mtbf_trace(
            total_nodes=NODES,
            horizon=max(j.submit_time for j in jobs) + 8_000.0,
            mtbf=15_000.0,
            mttr=1_200.0,
            seed=59,
            max_nodes_per_failure=4,
        )
        return jobs, ScenarioInputs(failures=trace, recovery=recovery), None

    return build


def _spec(*components, n=90, seed=61, mean_gap=40.0):
    def build():
        jobs = make_jobs(n, seed=seed, max_nodes=NODES, mean_gap=mean_gap)
        return jobs, ScenarioSpec(components, seed=7), None

    return build


def _failure_model(recovery):
    return FailureModel(
        mtbf=15_000.0,
        mttr=1_200.0,
        max_nodes_per_failure=4,
        total_nodes=NODES,
        recovery=recovery,
    )


#: case name -> () -> (jobs, scenario or None, SimulationConfig or None)
CASES = {
    "plain": _plain(150, 23, 40.0),
    "light-load": _plain(120, 7, 400.0),
    "heavy-load": _plain(150, 5, 10.0),
    "ties": _ties,
    "cancellations": _cancellations,
    "over-limit": _over_limit,
    **{f"failures-{name}": _failures(spec) for name, spec in RECOVERIES.items()},
    "spec-cancellations": _spec(CancellationModel(fraction=0.2)),
    "spec-runtime-variability": _spec(
        RuntimeVariability(sigma=0.3, estimate_sigma=0.2, enforce_limit=True)
    ),
    **{
        f"spec-failures-{name}": _spec(_failure_model(spec))
        for name, spec in RECOVERIES.items()
    },
    "spec-load-surge": _spec(
        LoadSurge(at=1_000.0, duration=600.0, count=30, max_nodes=16)
    ),
    "spec-feedback-users": _spec(
        FeedbackUsers(n_users=5, horizon=15_000.0, total_nodes=NODES), n=0
    ),
    "spec-combined": _spec(
        _failure_model(RECOVERIES["checkpoint"]),
        LoadSurge(at=2_000.0, duration=900.0, count=25, max_nodes=16),
        CancellationModel(fraction=0.1),
        RuntimeVariability(sigma=0.2, enforce_limit=True),
    ),
}


def digest(result) -> str:
    """Hash of a run's schedule records and its decision counters."""
    h = hashlib.sha256()
    for item in result.schedule:
        h.update(
            f"{item.job.job_id} {item.start_time.hex()} {item.end_time.hex()} "
            f"{int(item.cancelled)}\n".encode()
        )
    h.update(
        f"{result.decision_points} {result.max_queue_length} "
        f"{list(result.failure_killed)}".encode()
    )
    return h.hexdigest()


def run_case(case: str, key: str, weighted: bool):
    jobs, scenario, config = CASES[case]()
    row, column = key.split("/")
    scheduler = build_scheduler(SchedulerConfig(row, column), NODES, weighted=weighted)
    return Simulator(Machine(NODES), scheduler, config).run(jobs, scenario=scenario)


def case_digests(case: str, keys, regime: str) -> dict[str, str]:
    return {
        f"{case}/{key}/{regime}": digest(run_case(case, key, REGIMES[regime]))
        for key in keys
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case_and_regime():
    golden = _golden()
    keys = golden["cells"]
    expected = {
        f"{case}/{key}/{regime}" for case in CASES for key in keys for regime in REGIMES
    }
    assert set(golden["digests"]) == expected


@pytest.mark.parametrize("regime", list(REGIMES))
@pytest.mark.parametrize("case", list(CASES))
def test_single_loop_reproduces_golden_digests(case, regime):
    golden = _golden()
    got = case_digests(case, golden["cells"], regime)
    want = {k: golden["digests"][k] for k in got}
    mismatched = sorted(k for k in got if got[k] != want[k])
    assert not mismatched, mismatched


def record(path: Path) -> None:
    """Write the digests of every case on the current simulator."""
    from repro.schedulers.registry import registered_configurations

    keys = [c.key for c in registered_configurations()]
    digests: dict[str, str] = {}
    for case in CASES:
        for regime in REGIMES:
            digests.update(case_digests(case, keys, regime))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"nodes": NODES, "cells": keys, "digests": digests}, indent=1)
        + "\n"
    )


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    if len(sys.argv) != 3 or sys.argv[1] != "--record":
        sys.exit("usage: python -m tests.test_golden_schedules --record PATH")
    record(Path(sys.argv[2]))
