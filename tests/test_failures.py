"""Tests for the fault-injection layer: traces, recovery policies, simulator
integration and the resilience audit oracle.

Every simulator scenario here is hand-sized so the expected schedule can be
derived on paper; :func:`repro.failures.audit.audit_run` then re-derives the
accounting independently and must agree.
"""

import dataclasses

import pytest

from repro.core.job import Job
from repro.core.machine import Machine
from repro.core.simulator import Cancellation, ScenarioInputs, Simulator
from repro.failures import (
    AbandonPolicy,
    CheckpointRestartPolicy,
    FailureTrace,
    NodeFailure,
    RecoveryOutcome,
    RecoveryPolicy,
    ResubmitPolicy,
    audit_run,
    mtbf_trace,
    recovery_from_spec,
)
from repro.failures.audit import AuditError
from repro.schedulers.fcfs import FCFSScheduler
from tests.conftest import make_jobs


def J(job_id, submit, nodes, runtime, estimate=None):
    return Job(job_id=job_id, submit_time=submit, nodes=nodes, runtime=runtime, estimate=estimate)


def run(jobs, failures, recovery=None, nodes=8, scheduler=None):
    sim = Simulator(Machine(nodes), scheduler or FCFSScheduler.plain())
    return sim.run(jobs, scenario=ScenarioInputs(failures=failures, recovery=recovery))


# -- NodeFailure / FailureTrace ------------------------------------------------


class TestNodeFailure:
    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            NodeFailure(down_time=-1.0, up_time=5.0, nodes=1)
        with pytest.raises(ValueError, match="after down_time"):
            NodeFailure(down_time=5.0, up_time=5.0, nodes=1)
        with pytest.raises(ValueError, match="positive"):
            NodeFailure(down_time=0.0, up_time=5.0, nodes=0)

    def test_duration_and_node_seconds(self):
        f = NodeFailure(down_time=10.0, up_time=40.0, nodes=4)
        assert f.duration == 30.0
        assert f.node_seconds == 120.0


class TestFailureTrace:
    def test_sorted_and_container_protocol(self):
        late = NodeFailure(down_time=50.0, up_time=60.0, nodes=1)
        early = NodeFailure(down_time=10.0, up_time=20.0, nodes=2)
        trace = FailureTrace([late, early])
        assert list(trace) == [early, late]
        assert len(trace) == 2
        assert bool(trace)
        assert not FailureTrace()
        assert trace == FailureTrace([early, late])
        assert hash(trace) == hash(FailureTrace([early, late]))

    def test_max_concurrent_down_overlap(self):
        trace = FailureTrace(
            [
                NodeFailure(down_time=0.0, up_time=20.0, nodes=3),
                NodeFailure(down_time=10.0, up_time=30.0, nodes=4),
            ]
        )
        assert trace.max_concurrent_down() == 7

    def test_repair_applies_before_failure_at_same_instant(self):
        # Back-to-back outages of the same width never stack.
        trace = FailureTrace(
            [
                NodeFailure(down_time=0.0, up_time=10.0, nodes=2),
                NodeFailure(down_time=10.0, up_time=20.0, nodes=2),
            ]
        )
        assert trace.max_concurrent_down() == 2

    def test_lost_node_seconds(self):
        trace = FailureTrace(
            [
                NodeFailure(down_time=0.0, up_time=10.0, nodes=2),
                NodeFailure(down_time=5.0, up_time=8.0, nodes=3),
            ]
        )
        assert trace.lost_node_seconds() == 2 * 10 + 3 * 3

    def test_capacity_steps(self):
        trace = FailureTrace(
            [
                NodeFailure(down_time=10.0, up_time=30.0, nodes=2),
                NodeFailure(down_time=20.0, up_time=40.0, nodes=3),
            ]
        )
        assert trace.capacity_steps(8) == [(10.0, 6), (20.0, 3), (30.0, 5), (40.0, 8)]

    def test_capacity_steps_skip_zero_deltas(self):
        # One failure ends exactly when an equal-width one begins: no step.
        trace = FailureTrace(
            [
                NodeFailure(down_time=0.0, up_time=10.0, nodes=2),
                NodeFailure(down_time=10.0, up_time=20.0, nodes=2),
            ]
        )
        assert trace.capacity_steps(8) == [(0.0, 6), (20.0, 8)]

    def test_validate_for(self):
        trace = FailureTrace([NodeFailure(down_time=0.0, up_time=10.0, nodes=9)])
        with pytest.raises(ValueError, match="9 concurrent nodes"):
            trace.validate_for(8)
        trace.validate_for(9)  # exactly full machine down is allowed

    def test_fingerprint_content_addressed(self):
        a = FailureTrace([NodeFailure(down_time=0.0, up_time=10.0, nodes=2)])
        b = FailureTrace([NodeFailure(down_time=0.0, up_time=10.0, nodes=2)])
        c = FailureTrace([NodeFailure(down_time=0.0, up_time=10.0, nodes=3)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() != FailureTrace().fingerprint()


class TestMtbfTrace:
    def test_deterministic_per_seed(self):
        kwargs = dict(total_nodes=64, horizon=50_000.0, mtbf=100_000.0, mttr=1_800.0)
        assert mtbf_trace(seed=5, **kwargs) == mtbf_trace(seed=5, **kwargs)
        assert mtbf_trace(seed=5, **kwargs) != mtbf_trace(seed=6, **kwargs)

    def test_horizon_and_concurrency_cap(self):
        trace = mtbf_trace(
            total_nodes=64,
            horizon=200_000.0,
            mtbf=20_000.0,
            mttr=5_000.0,
            seed=3,
            max_nodes_per_failure=8,
            max_down_fraction=0.25,
        )
        assert len(trace) > 0
        assert all(f.down_time < 200_000.0 for f in trace)
        assert trace.max_concurrent_down() <= 16
        trace.validate_for(64)

    def test_parameter_validation(self):
        good = dict(total_nodes=8, horizon=100.0, mtbf=50.0, mttr=10.0)
        with pytest.raises(ValueError):
            mtbf_trace(**{**good, "total_nodes": 0})
        with pytest.raises(ValueError):
            mtbf_trace(**{**good, "horizon": 0.0})
        with pytest.raises(ValueError):
            mtbf_trace(**{**good, "mtbf": -1.0})
        with pytest.raises(ValueError):
            mtbf_trace(**{**good, "mttr": 0.0})
        with pytest.raises(ValueError):
            mtbf_trace(**good, max_nodes_per_failure=9)
        with pytest.raises(ValueError):
            mtbf_trace(**good, max_down_fraction=0.0)


# -- recovery policies ---------------------------------------------------------


class TestRecoveryPolicies:
    def test_abandon(self):
        outcome = AbandonPolicy().on_interrupt(
            J(0, 0.0, 4, 100.0), now=30.0, executed=30.0, saved=0.0, overhead_paid=0.0
        )
        assert outcome.resubmit_at is None

    def test_resubmit_loses_all_progress(self):
        outcome = ResubmitPolicy(delay=15.0).on_interrupt(
            J(0, 0.0, 4, 100.0), now=30.0, executed=30.0, saved=0.0, overhead_paid=0.0
        )
        assert outcome.resubmit_at == 45.0
        assert outcome.remaining_runtime == 100.0
        assert outcome.saved == 0.0
        with pytest.raises(ValueError):
            ResubmitPolicy(delay=-1.0)

    def test_checkpoint_floors_to_interval(self):
        policy = CheckpointRestartPolicy(interval=20.0, overhead=5.0)
        outcome = policy.on_interrupt(
            J(0, 0.0, 4, 100.0), now=33.0, executed=33.0, saved=0.0, overhead_paid=0.0
        )
        assert outcome.saved == 20.0
        assert outcome.remaining_runtime == 100.0 - 20.0 + 5.0
        assert outcome.overhead == 5.0

    def test_checkpoint_overhead_replay_is_not_progress(self):
        # Second kill: 30 s executed of which 5 s was restart replay.
        policy = CheckpointRestartPolicy(interval=20.0, overhead=5.0)
        outcome = policy.on_interrupt(
            J(0, 0.0, 4, 100.0), now=73.0, executed=30.0, saved=20.0, overhead_paid=5.0
        )
        assert outcome.saved == 40.0  # floor((20 + 25) / 20) * 20
        assert outcome.remaining_runtime == 100.0 - 40.0 + 5.0

    def test_checkpoint_kill_during_replay_keeps_saved(self):
        # Killed 2 s into a 5 s replay: progress must not regress below saved.
        policy = CheckpointRestartPolicy(interval=20.0, overhead=5.0)
        outcome = policy.on_interrupt(
            J(0, 0.0, 4, 100.0), now=45.0, executed=2.0, saved=20.0, overhead_paid=5.0
        )
        assert outcome.saved == 20.0
        assert outcome.remaining_runtime == 85.0

    def test_checkpoint_continuous_interval_zero(self):
        policy = CheckpointRestartPolicy(interval=0.0, overhead=0.0)
        outcome = policy.on_interrupt(
            J(0, 0.0, 4, 100.0), now=33.0, executed=33.0, saved=0.0, overhead_paid=0.0
        )
        assert outcome.saved == 33.0
        assert outcome.remaining_runtime == 67.0

    def test_checkpoint_clamped_to_runtime(self):
        policy = CheckpointRestartPolicy(interval=0.0, overhead=0.0)
        outcome = policy.on_interrupt(
            J(0, 0.0, 4, 100.0), now=500.0, executed=150.0, saved=0.0, overhead_paid=0.0
        )
        assert outcome.saved == 100.0
        assert outcome.remaining_runtime == 0.0


class TestRecoverySpecs:
    @pytest.mark.parametrize(
        "spec, cls",
        [
            ("abandon", AbandonPolicy),
            ("resubmit", ResubmitPolicy),
            ("resubmit:delay=30", ResubmitPolicy),
            ("checkpoint:interval=3600,overhead=60", CheckpointRestartPolicy),
            ("checkpoint:interval=600,overhead=10,delay=5", CheckpointRestartPolicy),
        ],
    )
    def test_round_trip(self, spec, cls):
        policy = recovery_from_spec(spec)
        assert isinstance(policy, cls)
        # The canonical spec rebuilds an identical policy.
        assert recovery_from_spec(policy.spec).spec == policy.spec

    def test_instance_passthrough(self):
        policy = ResubmitPolicy(delay=7.0)
        assert recovery_from_spec(policy) is policy

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError, match="unknown recovery policy"):
            recovery_from_spec("retry")
        with pytest.raises(ValueError, match="malformed"):
            recovery_from_spec("resubmit:delay")
        with pytest.raises(ValueError, match="malformed"):
            recovery_from_spec("resubmit:delay=soon")
        with pytest.raises(ValueError, match="malformed"):
            recovery_from_spec("abandon:delay=1")
        with pytest.raises(ValueError, match="malformed"):
            recovery_from_spec("checkpoint:cadence=60")


# -- simulator integration -----------------------------------------------------


class TestSimulatorFailures:
    def test_free_nodes_absorb_failure(self):
        # 4 of 8 nodes busy; a 4-node failure consumes only free nodes.
        jobs = [J(0, 0.0, 4, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=10.0, up_time=50.0, nodes=4)])
        res = run(jobs, trace)
        assert res.failure_killed == ()
        assert not res.schedule[0].cancelled
        assert res.lost_node_seconds == 160.0
        assert res.wasted_node_seconds == 0.0
        res.schedule.validate(8, capacity=trace.capacity_steps(8))
        audit_run(res, jobs, trace, 8, recovery="resubmit")

    def test_youngest_victim_killed_first(self):
        jobs = [J(0, 0.0, 4, 100.0), J(1, 5.0, 4, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=20.0, up_time=200.0, nodes=4)])
        res = run(jobs, trace, recovery="abandon")
        assert res.failure_killed == (1,)  # job 1 started later
        assert not res.schedule[0].cancelled

    def test_abandon_records_partial_attempt(self):
        jobs = [J(0, 0.0, 4, 100.0), J(1, 5.0, 4, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=20.0, up_time=200.0, nodes=4)])
        res = run(jobs, trace, recovery="abandon")
        item = res.schedule[1]
        assert item.cancelled
        assert (item.start_time, item.end_time) == (5.0, 20.0)
        assert res.interrupted == ()
        assert res.wasted_node_seconds == 15.0 * 4
        assert res.requeue_delay == 0.0
        res.schedule.validate(8, capacity=trace.capacity_steps(8))
        tallies = audit_run(res, jobs, trace, 8, recovery="abandon")
        assert tallies["abandoned"] == 1.0

    def test_resubmit_spans_original_submission(self):
        # Whole machine fails at 30; the rerun waits for the repair at 50.
        jobs = [J(0, 0.0, 8, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=30.0, up_time=50.0, nodes=8)])
        res = run(jobs, trace, recovery="resubmit")
        assert res.failure_killed == (0,)
        assert len(res.interrupted) == 1
        assert (res.interrupted[0].start_time, res.interrupted[0].end_time) == (0.0, 30.0)
        final = res.schedule[0]
        assert not final.cancelled
        assert (final.start_time, final.end_time) == (50.0, 150.0)
        # Response time spans the *original* submission.
        assert final.job.submit_time == 0.0
        assert final.response_time == 150.0
        assert res.wasted_node_seconds == 30.0 * 8
        assert res.requeue_delay == 20.0  # killed at 30, restarted at 50
        res.schedule.validate(8, capacity=trace.capacity_steps(8))
        audit_run(res, jobs, trace, 8, recovery="resubmit")

    def test_resubmit_delay_realised_in_requeue_delay(self):
        jobs = [J(0, 0.0, 8, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=30.0, up_time=40.0, nodes=2)])
        res = run(jobs, trace, recovery="resubmit:delay=25")
        final = res.schedule[0]
        assert (final.start_time, final.end_time) == (55.0, 155.0)
        assert res.requeue_delay == 25.0
        audit_run(res, jobs, trace, 8, recovery="resubmit:delay=25")

    def test_stale_completion_of_killed_attempt_ignored(self):
        # The first attempt's completion (at 100) fires while the rerun is
        # mid-flight; the attempt start time must disambiguate.
        jobs = [J(0, 0.0, 4, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=30.0, up_time=45.0, nodes=8)])
        res = run(jobs, trace, recovery="resubmit")
        assert len(res.schedule) == 1
        assert (res.schedule[0].start_time, res.schedule[0].end_time) == (45.0, 145.0)
        res.schedule.validate(8, capacity=trace.capacity_steps(8))
        audit_run(res, jobs, trace, 8, recovery="resubmit")

    def test_checkpoint_restart_across_two_failures(self):
        # interval=20, overhead=5.  Kill 1 at 33: checkpoint 20, rerun 85 s
        # from 43.  Kill 2 at 73 (30 s in, 5 replay): checkpoint 40, rerun
        # 65 s from 83, done 148.
        jobs = [J(0, 0.0, 8, 100.0)]
        trace = FailureTrace(
            [
                NodeFailure(down_time=33.0, up_time=43.0, nodes=8),
                NodeFailure(down_time=73.0, up_time=83.0, nodes=8),
            ]
        )
        spec = "checkpoint:interval=20.0,overhead=5.0"
        res = run(jobs, trace, recovery=spec)
        assert res.failure_killed == (0, 0)
        assert res.interrupted_jobs == 1
        spans = [(i.start_time, i.end_time) for i in res.interrupted]
        assert spans == [(0.0, 33.0), (43.0, 73.0)]
        final = res.schedule[0]
        assert (final.start_time, final.end_time) == (83.0, 148.0)
        # Wasted: (33 - 20) + (30 - 20) progress destroyed, x 8 nodes.
        assert res.wasted_node_seconds == (13.0 + 10.0) * 8
        assert res.requeue_delay == 20.0
        res.schedule.validate(8, capacity=trace.capacity_steps(8))
        audit_run(res, jobs, trace, 8, recovery=spec)

    def test_cancellation_during_resubmit_gap_withdraws_rerun(self):
        jobs = [J(0, 0.0, 8, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=30.0, up_time=40.0, nodes=8)])
        sim = Simulator(Machine(8), FCFSScheduler.plain())
        res = sim.run(
            jobs,
            scenario=ScenarioInputs(
                cancellations=[Cancellation(time=60.0, job_id=0)],
                failures=trace,
                recovery="resubmit:delay=100",
            ),
        )
        assert res.cancelled_queued == (0,)
        assert len(res.schedule) == 0
        assert len(res.interrupted) == 1
        assert res.requeue_delay == 0.0  # the rerun never started
        audit_run(res, jobs, trace, 8, recovery="resubmit:delay=100")

    def test_trace_larger_than_machine_rejected(self):
        trace = FailureTrace([NodeFailure(down_time=1.0, up_time=2.0, nodes=9)])
        with pytest.raises(ValueError, match="concurrent nodes"):
            run([J(0, 0.0, 1, 1.0)], trace)

    def test_policy_resubmitting_into_the_past_rejected(self):
        class TimeTraveller(RecoveryPolicy):
            spec = "time-traveller"

            def on_interrupt(self, job, *, now, executed, saved, overhead_paid):
                return RecoveryOutcome(resubmit_at=now - 1.0, remaining_runtime=job.runtime)

        jobs = [J(0, 0.0, 8, 100.0)]
        trace = FailureTrace([NodeFailure(down_time=30.0, up_time=40.0, nodes=8)])
        with pytest.raises(ValueError, match="before the kill"):
            run(jobs, trace, recovery=TimeTraveller())

    def test_empty_trace_is_inert(self):
        jobs = [J(0, 0.0, 4, 100.0)]
        plain = run(jobs, None)
        with_empty = run(jobs, FailureTrace())
        assert with_empty.lost_node_seconds == 0.0
        assert with_empty.schedule[0] == plain.schedule[0]

    @pytest.mark.parametrize(
        "recovery",
        ["abandon", "resubmit", "resubmit:delay=120", "checkpoint:interval=300.0,overhead=30.0"],
    )
    def test_mtbf_scenario_audits_exactly(self, recovery):
        jobs = make_jobs(80, seed=11, max_nodes=32)
        horizon = max(j.submit_time for j in jobs) + 10_000.0
        trace = mtbf_trace(
            total_nodes=64,
            horizon=horizon,
            mtbf=40_000.0,
            mttr=2_000.0,
            seed=9,
            max_nodes_per_failure=8,
        )
        assert len(trace) > 0
        sim = Simulator(Machine(64), FCFSScheduler.with_easy())
        res = sim.run(jobs, scenario=ScenarioInputs(failures=trace, recovery=recovery))
        res.schedule.validate(64, capacity=trace.capacity_steps(64))
        tallies = audit_run(res, jobs, trace, 64, recovery=recovery)
        assert tallies["jobs"] == 80.0


# -- the audit oracle itself ---------------------------------------------------


class TestAuditOracle:
    @pytest.fixture()
    def audited(self):
        jobs = make_jobs(40, seed=13, max_nodes=32)
        trace = mtbf_trace(
            total_nodes=64,
            horizon=max(j.submit_time for j in jobs) + 8_000.0,
            mtbf=20_000.0,
            mttr=1_500.0,
            seed=2,
            max_nodes_per_failure=16,
        )
        res = Simulator(Machine(64), FCFSScheduler.with_easy()).run(
            jobs, scenario=ScenarioInputs(failures=trace, recovery="resubmit")
        )
        assert len(res.failure_killed) > 0  # the scenario must actually bite
        return res, jobs, trace

    def test_clean_run_passes(self, audited):
        res, jobs, trace = audited
        audit_run(res, jobs, trace, 64, recovery="resubmit")

    def test_tampered_lost_capacity_detected(self, audited):
        res, jobs, trace = audited
        res = dataclasses.replace(res, lost_node_seconds=res.lost_node_seconds + 1.0)
        with pytest.raises(AuditError, match="lost_node_seconds"):
            audit_run(res, jobs, trace, 64, recovery="resubmit")

    def test_tampered_wasted_work_detected(self, audited):
        res, jobs, trace = audited
        res = dataclasses.replace(res, wasted_node_seconds=res.wasted_node_seconds + 1.0)
        with pytest.raises(AuditError, match="wasted_node_seconds"):
            audit_run(res, jobs, trace, 64, recovery="resubmit")

    def test_dropped_job_detected(self, audited):
        res, jobs, trace = audited
        with pytest.raises(AuditError, match="conservation"):
            audit_run(res, jobs + [J(999, 0.0, 1, 1.0)], trace, 64, recovery="resubmit")

    def test_capacity_violation_detected(self, audited):
        res, jobs, trace = audited
        # Pretend the machine was half the size: the sweep must overflow.
        with pytest.raises(AuditError):
            audit_run(res, jobs, trace, 16, recovery="resubmit")
