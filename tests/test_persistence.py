"""Tests for schedule CSV persistence."""

import io

import pytest

from repro.analysis.persistence import (
    ScheduleFormatError,
    read_schedule,
    write_schedule,
)
from repro.core.machine import Machine
from repro.core.simulator import Cancellation, ScenarioInputs, Simulator, simulate
from repro.metrics.objectives import average_response_time
from repro.schedulers.fcfs import FCFSScheduler
from tests.conftest import make_jobs


class TestRoundTrip:
    def test_file_round_trip(self, tmp_path):
        jobs = make_jobs(30, seed=111, max_nodes=32)
        res = simulate(jobs, FCFSScheduler.with_easy(), 64)
        path = tmp_path / "schedule.csv"
        write_schedule(res.schedule, path)
        back = read_schedule(path)
        assert len(back) == len(res.schedule)
        for item in res.schedule:
            twin = back[item.job.job_id]
            assert twin.start_time == item.start_time
            assert twin.end_time == item.end_time
            assert twin.job.nodes == item.job.nodes
            assert twin.job.estimate == item.job.estimate
        # Derived metrics survive exactly.
        assert average_response_time(back) == average_response_time(res.schedule)

    def test_stream_round_trip(self):
        jobs = make_jobs(10, seed=112, max_nodes=16)
        res = simulate(jobs, FCFSScheduler.plain(), 64)
        buffer = io.StringIO()
        write_schedule(res.schedule, buffer)
        buffer.seek(0)
        back = read_schedule(buffer)
        assert len(back) == 10

    def test_cancelled_flag_survives(self, tmp_path):
        jobs = make_jobs(5, seed=113, max_nodes=8, mean_gap=1000.0)
        sim = Simulator(Machine(64), FCFSScheduler.plain())
        victim = jobs[0]
        res = sim.run(
            jobs,
            scenario=ScenarioInputs(
                cancellations=[
                    Cancellation(time=victim.submit_time + 0.1, job_id=victim.job_id)
                ]
            ),
        )
        path = tmp_path / "schedule.csv"
        write_schedule(res.schedule, path)
        back = read_schedule(path)
        if victim.job_id in back:   # killed while running
            assert back[victim.job_id].cancelled

    def test_validity_preserved(self, tmp_path):
        jobs = make_jobs(25, seed=114, max_nodes=48)
        res = simulate(jobs, FCFSScheduler.with_easy(), 64)
        path = tmp_path / "schedule.csv"
        write_schedule(res.schedule, path)
        read_schedule(path).validate(64)


class TestErrors:
    def test_empty_file(self):
        with pytest.raises(ScheduleFormatError, match="empty"):
            read_schedule(io.StringIO(""))

    def test_wrong_header(self):
        with pytest.raises(ScheduleFormatError, match="header"):
            read_schedule(io.StringIO("a,b,c\n"))

    def test_short_row(self):
        header = "job_id,submit_time,nodes,runtime,estimate,user,weight,start_time,end_time,cancelled\n"
        with pytest.raises(ScheduleFormatError, match="fields"):
            read_schedule(io.StringIO(header + "1,2\n"))

    def test_bad_value(self):
        header = "job_id,submit_time,nodes,runtime,estimate,user,weight,start_time,end_time,cancelled\n"
        row = "x,0,1,1,,0,,0,1,0\n"
        with pytest.raises(ScheduleFormatError, match="line 2"):
            read_schedule(io.StringIO(header + row))
