"""Tests for the time-series analysis helpers."""

import pytest

from repro.analysis.timeseries import (
    backlog_series,
    queue_length_series,
    sample_series,
    saturation_point,
    utilisation_series,
)
from repro.core.job import Job
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.simulator import simulate
from repro.schedulers.fcfs import FCFSScheduler
from repro.workloads.ctc import ctc_like_workload
from repro.workloads.transforms import cap_nodes, renumber
from tests.conftest import make_jobs


def item(job_id, submit, start, runtime, nodes=2, estimate=None):
    job = Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, estimate=estimate)
    return ScheduledJob(job=job, start_time=start, end_time=start + runtime)


class TestUtilisationSeries:
    def test_constant_full(self):
        sched = Schedule([item(0, 0.0, 0.0, 100.0, nodes=8)])
        series = utilisation_series(sched, 8, buckets=5)
        assert len(series) == 5
        assert all(v == pytest.approx(1.0) for _t, v in series)

    def test_half_busy(self):
        sched = Schedule([item(0, 0.0, 0.0, 100.0, nodes=4)])
        series = utilisation_series(sched, 8, buckets=4)
        assert all(v == pytest.approx(0.5) for _t, v in series)

    def test_empty(self):
        assert utilisation_series(Schedule([]), 8) == []

    def test_invalid_buckets(self):
        sched = Schedule([item(0, 0.0, 0.0, 10.0)])
        with pytest.raises(ValueError):
            utilisation_series(sched, 8, buckets=0)


class TestQueueAndBacklog:
    def test_queue_length_steps(self):
        # Two jobs submitted at 0, the second waits until 10.
        sched = Schedule([
            item(0, 0.0, 0.0, 10.0, nodes=8),
            item(1, 0.0, 10.0, 10.0, nodes=8),
        ])
        series = queue_length_series(sched)
        assert sample_series(series, 0.0) == 1.0    # job 1 waiting
        assert sample_series(series, 10.0) == 0.0   # started

    def test_backlog_uses_estimated_area(self):
        sched = Schedule([
            item(0, 0.0, 0.0, 10.0, nodes=8),
            item(1, 0.0, 10.0, 10.0, nodes=8, estimate=20.0),
        ])
        series = backlog_series(sched)
        assert sample_series(series, 5.0) == pytest.approx(8 * 20.0)

    def test_sample_before_first_event(self):
        assert sample_series([(10.0, 5.0)], 0.0) == 0.0
        assert sample_series([], 0.0) == 0.0


class TestSaturation:
    def test_never_saturates(self):
        series = [(0.0, 1.0), (10.0, 5.0), (20.0, 0.0)]
        assert saturation_point(series, 3.0) is None

    def test_saturates_and_stays(self):
        series = [(0.0, 1.0), (10.0, 5.0), (20.0, 8.0)]
        assert saturation_point(series, 3.0) == 10.0

    def test_recovery_resets(self):
        series = [(0.0, 5.0), (10.0, 1.0), (20.0, 7.0)]
        assert saturation_point(series, 3.0) == 20.0

    def test_overloaded_fcfs_saturates(self):
        """An overloaded machine shows a non-recovering backlog under FCFS.

        After the last submission the backlog necessarily drains to zero
        (every job eventually starts), so saturation is assessed over the
        submission period only.
        """
        jobs = renumber(cap_nodes(ctc_like_workload(800, seed=93), 256))
        res = simulate(jobs, FCFSScheduler.plain(), 256)
        last_submit = max(j.submit_time for j in jobs)
        series = [
            (t, v) for t, v in backlog_series(res.schedule) if t <= last_submit
        ]
        peak = max(v for _t, v in series)
        assert saturation_point(series, peak * 0.25) is not None


class TestConsistencyWithSimulatorTrace:
    def test_queue_series_matches_trace_samples(self):
        from repro.core.machine import Machine
        from repro.core.simulator import SimulationConfig, Simulator

        jobs = make_jobs(30, seed=94, max_nodes=48, mean_gap=40.0)
        sim = Simulator(
            Machine(64), FCFSScheduler.plain(), SimulationConfig(collect_trace=True)
        )
        result = sim.run(jobs)
        series = queue_length_series(result.schedule)
        assert sim.trace is not None
        for time, queue_len in sim.trace.queue_lengths:
            assert sample_series(series, time) == pytest.approx(float(queue_len))
