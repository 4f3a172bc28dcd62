"""The discrete-event simulator driving an on-line scheduler.

The simulator owns the clock, the event queue, the machine, the table of
running jobs, and the incremental
:class:`~repro.core.state.SchedulingState` (persistent availability
profile + queue statistics) that schedulers read through the context.  The
scheduler owns the wait queue and the policy.  Per decision point (a batch
of events at one instant) the flow is:

1. apply every completion at this instant (release nodes, notify scheduler),
2. apply every submission at this instant (notify scheduler),
3. ask the scheduler which queued jobs to start now, allocate them, and
   push their completion events.

Completions are applied before submissions at equal times (see
:mod:`repro.core.events`), so a newly submitted job sees every node freed at
its arrival instant — the behaviour of a real batch system where the
resource manager processes its event queue in order.

Jobs whose actual runtime exceeds the user limit can optionally be cancelled
at the limit (``SimulationConfig(cancel_over_limit=True)``), matching policy
rule 2 of Example 5 ("If the execution of a job exceeds this upper limit,
the job may be cancelled").  The paper's evaluation does not exercise
cancellation (the CTC trace records realised runtimes), so the default is
off.

Node failures (Section 2's "sudden failure of a hardware component") enter
the loop as ``NODE_DOWN``/``NODE_UP`` events from a
:class:`~repro.failures.trace.FailureTrace`.  A failure first consumes free
nodes; when those do not cover it, the simulator kills running jobs —
youngest first, so the least work is destroyed — and hands each casualty to
the run's :class:`~repro.failures.recovery.RecoveryPolicy`, which either
abandons it (the partial execution becomes a cancelled record) or requeues
a rerun.  The outage itself becomes a finite capacity reservation in the
scheduling state (the repair ETA is known the moment the node goes down),
so backfilling disciplines plan around it like any other commitment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.events import EventKind, EventQueue, MergedEventFeed
from repro.core.job import Job, validate_stream
from repro.core.machine import Machine
from repro.core.schedule import Schedule, ScheduledJob
from repro.core.scheduler import RunningJob, Scheduler, SchedulerContext
from repro.core.state import SchedulingState, verify_every_from_env
from repro.core.vector import ResultColumns

if TYPE_CHECKING:  # pragma: no cover - typing only (failures imports core)
    from repro.failures.recovery import RecoveryPolicy
    from repro.failures.trace import FailureTrace


@dataclass(frozen=True, slots=True)
class Cancellation:
    """A user withdrawing a job at ``time`` (failure-injection input).

    A queued job disappears from the wait queue; a running job is killed
    (its partial execution appears in the schedule with ``cancelled=True``).
    Cancellations of already-completed jobs are ignored — the realistic
    race of a user cancelling just as the job finishes.
    """

    time: float
    job_id: int


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """How a :class:`Simulator` runs — everything that is not an input.

    One picklable bundle; see the :class:`Simulator` docstring for the
    fields.  ``incremental_state``, ``verify_state`` and
    ``profile_phases`` change *how* a result is computed, never *what* it
    is (the state-equivalence suite's contract).
    """

    cancel_over_limit: bool = False
    collect_trace: bool = False
    incremental_state: bool = True
    verify_state: int | None = None
    #: Collect the fine-grained per-phase wall-clock breakdown
    #: (``SimulationResult.phase_seconds`` gains ``events``/``commit``/
    #: ``other`` entries).  Off by default: the extra clock
    #: reads would tax the hot loop the breakdown exists to explain.
    profile_phases: bool = False


@dataclass(frozen=True, slots=True)
class ScenarioInputs:
    """Fault-injection inputs of one run, bundled.

    ``cancellations`` (user withdrawals), ``failures`` (a
    :class:`~repro.failures.trace.FailureTrace`) and ``recovery`` (policy
    object or spec string), as one object that can be built once and
    reused across runs and regimes.
    """

    cancellations: Sequence[Cancellation] = ()
    failures: "FailureTrace | None" = None
    recovery: "RecoveryPolicy | str | None" = None


@dataclass(slots=True)
class SimulationResult:
    """Outcome of one simulation run."""

    schedule: Schedule
    #: Number of decision points at which the scheduler was invoked.
    decision_points: int
    #: Peak length of the scheduler's wait queue observed at decision points.
    max_queue_length: int
    #: Final simulated time (== schedule makespan unless the stream was empty).
    end_time: float
    #: Ids of jobs cancelled while still queued (they never ran and do not
    #: appear in the schedule).
    cancelled_queued: tuple[int, ...] = ()
    #: Ids of jobs killed while running (partial execution in the schedule).
    killed_running: tuple[int, ...] = ()
    #: Wall-clock seconds spent inside ``select_jobs`` across all decision
    #: points — the per-decision cost of the scheduling algorithm proper.
    decision_time: float = 0.0
    #: Deltas applied to / snapshots taken from the incremental scheduling
    #: state (both 0 when the rebuild fallback ran).
    profile_deltas: int = 0
    profile_snapshots: int = 0
    #: Ids of jobs killed by node failures, in kill order.  A job recovered
    #: and killed again appears once per kill; abandoned kills also appear
    #: in the schedule as cancelled records.
    failure_killed: tuple[int, ...] = ()
    #: Partial attempts of jobs that were killed by a failure and later
    #: recovered (resubmitted / restarted).  These records are *not* part of
    #: ``schedule`` — there the job appears once, with its final attempt —
    #: but they occupy the machine and count towards capacity validation.
    interrupted: tuple[ScheduledJob, ...] = ()
    #: Node-seconds of capacity removed by the failure trace (down × nodes).
    lost_node_seconds: float = 0.0
    #: Node-seconds of job execution destroyed by failures: work done in
    #: killed attempts that no checkpoint preserved, plus restart overheads.
    wasted_node_seconds: float = 0.0
    #: Total seconds failure-killed jobs spent between the kill and the
    #: start of their recovery attempt (0 for abandoned jobs).
    requeue_delay: float = 0.0
    #: Columnar numeric view of ``schedule`` (submit/start/end/area arrays
    #: in completion order), so objectives reduce with the exact NumPy
    #: kernels of :mod:`repro.core.vector`.  Excluded from equality.
    columns: ResultColumns = field(
        default_factory=ResultColumns, compare=False, repr=False
    )
    #: Wall-clock seconds by simulator phase.  Always carries ``total``
    #: (whole run) and ``decide`` (== ``decision_time``); with
    #: ``SimulationConfig.profile_phases`` it adds ``events`` (per-event
    #: dispatch), ``commit`` (start/timer/stats bookkeeping after each
    #: decision) and ``other`` (the remainder).  Excluded from equality —
    #: timings never affect results.
    phase_seconds: dict = field(default_factory=dict, compare=False, repr=False)
    #: Always empty.  It held the counters of an event-coalescing fast path
    #: the simulator no longer has; kept so readers of the field still work.
    coalesced: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def job_count(self) -> int:
        return len(self.schedule)

    @property
    def interrupted_jobs(self) -> int:
        """Distinct jobs that lost at least one attempt to a node failure."""
        return len(set(self.failure_killed))

    @classmethod
    def empty(cls) -> "SimulationResult":
        """The result of scheduling nothing (degenerate partition buckets).

        :meth:`Simulator.run` refuses empty workloads; callers that slice a
        stream and may produce empty slices build this record instead.
        """
        return cls(
            schedule=Schedule(()),
            decision_points=0,
            max_queue_length=0,
            end_time=0.0,
        )


@dataclass(slots=True)
class _Trace:
    """Optional per-run instrumentation collected by the simulator."""

    queue_lengths: list[tuple[float, int]] = field(default_factory=list)
    free_nodes: list[tuple[float, int]] = field(default_factory=list)


class Simulator:
    """Run a job stream through a scheduler on a machine.

    Parameters
    ----------
    machine:
        The target machine.  A fresh simulation resets it.
    scheduler:
        Any :class:`~repro.core.scheduler.Scheduler`.
    config:
        A :class:`SimulationConfig`; ``None`` means all defaults:

        * ``cancel_over_limit`` — kill jobs at their estimate when the
          actual runtime exceeds it (recorded ``cancelled=True``).
        * ``collect_trace`` — record queue length and free nodes at every
          decision point (for the analysis plots); adds memory overhead.
        * ``incremental_state`` — maintain a
          :class:`~repro.core.state.SchedulingState` across events
          (default); ``False`` selects the reference rebuild-per-decision
          path — same schedules, bit for bit (the equivalence oracle).
        * ``verify_state`` — cross-check the incremental state against a
          fresh rebuild every N-th snapshot (0 disables; ``None`` reads
          ``REPRO_VERIFY_STATE``).
        * ``profile_phases`` — collect the per-phase wall-clock breakdown.
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: Scheduler,
        config: SimulationConfig | None = None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.config = config if config is not None else SimulationConfig()
        self.trace = _Trace() if self.config.collect_trace else None

    def run(
        self,
        jobs: Iterable[Job],
        *,
        scenario: ScenarioInputs | None = None,
    ) -> SimulationResult:
        """Simulate the whole stream and return the final schedule.

        ``scenario`` bundles the fault-injection inputs
        (:class:`ScenarioInputs`) — or a compilable
        :class:`~repro.scenarios.spec.ScenarioSpec`, in which case the
        spec is compiled against ``jobs`` first: ScenarioInputs is the
        *compiled target* of the scenario algebra, and the compiled
        stream replaces ``jobs`` (arrival components may rewrite it):

        * ``cancellations`` injects user withdrawals; each must reference
          a job in the stream and fire no earlier than its submission.
        * ``failures`` injects a node failure/repair trace
          (:class:`~repro.failures.trace.FailureTrace`); ``recovery``
          decides what happens to jobs killed by a failure — a
          :class:`~repro.failures.recovery.RecoveryPolicy`, a spec string
          such as ``"abandon"`` or
          ``"checkpoint:interval=3600,overhead=60"``, or ``None`` for the
          default full resubmission.
        """
        cancel_over_limit = self.config.cancel_over_limit
        if scenario is None:
            scenario = ScenarioInputs()
        elif not isinstance(scenario, ScenarioInputs):
            # A ScenarioSpec (or anything spec-shaped): compile it against
            # the stream.  Duck-typed so the core never imports the
            # scenarios package.
            compile_spec = getattr(scenario, "compile", None)
            if compile_spec is None:
                raise TypeError(
                    "scenario must be ScenarioInputs or a compilable "
                    f"ScenarioSpec, got {type(scenario).__name__}"
                )
            compiled = compile_spec(jobs)
            jobs = compiled.jobs
            scenario = compiled.inputs
            cancel_over_limit = cancel_over_limit or compiled.cancel_over_limit
        cancellations = scenario.cancellations
        failures = scenario.failures
        recovery = scenario.recovery

        stream = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        if not stream:
            raise ValueError(
                "cannot simulate an empty workload: no jobs, no events, no "
                "schedule — use SimulationResult.empty() if a degenerate "
                "stream is expected"
            )
        validate_stream(stream)
        by_id = {job.job_id: job for job in stream}
        for job in stream:
            if not self.machine.can_ever_fit(job):
                raise ValueError(
                    f"job {job.job_id} requests {job.nodes} nodes but the machine "
                    f"has only {self.machine.total_nodes}; filter the workload first "
                    "(see repro.workloads.transforms.cap_nodes)"
                )
        for cancel in cancellations:
            if cancel.job_id not in by_id:
                raise ValueError(f"cancellation references unknown job {cancel.job_id}")
            if cancel.time < by_id[cancel.job_id].submit_time:
                raise ValueError(
                    f"job {cancel.job_id} cancelled at {cancel.time} before its "
                    f"submission at {by_id[cancel.job_id].submit_time}"
                )
        policy: "RecoveryPolicy | None" = None
        if failures is not None and failures:
            from repro.failures.recovery import ResubmitPolicy, recovery_from_spec

            failures.validate_for(self.machine.total_nodes)
            policy = (
                ResubmitPolicy() if recovery is None else recovery_from_spec(recovery)
            )
        else:
            failures = None

        self.machine.reset()
        self.scheduler.reset()
        # The N original submissions stay out of the heap: the feed merges
        # the sorted stream (virtual sequences 0..N-1) with the heap, whose
        # counter starts above them.
        events = EventQueue(start_sequence=len(stream))
        feed = MergedEventFeed(events, stream)
        columns = ResultColumns()
        pending_timers: set[float] = set()
        running: dict[int, RunningJob] = {}
        state: SchedulingState | None = None
        if self.config.incremental_state:
            verify_every = (
                self.config.verify_state
                if self.config.verify_state is not None
                else verify_every_from_env()
            )
            state = SchedulingState(
                self.machine.total_nodes, verify_every=verify_every
            )
        active_outages: list[tuple[float, int]] = []
        ctx = SchedulerContext(
            self.machine, running, state=state, capacity_outages=active_outages
        )
        completed: list[ScheduledJob] = []
        decision_points = 0
        decision_time = 0.0
        max_queue = 0
        now = 0.0

        for cancel in cancellations:
            events.push(cancel.time, EventKind.CANCELLATION, cancel.job_id)
        if failures is not None:
            for fail in failures:
                events.push(fail.down_time, EventKind.NODE_DOWN, fail)
                events.push(fail.up_time, EventKind.NODE_UP, fail)
        started_ids: set[int] = set()
        finished_ids: set[int] = set()
        cancelled_queued: list[int] = []
        killed_running: list[int] = []
        #: Latest submitted version of each job (rerun attempts replace the
        #: original here; ``by_id`` keeps the original submissions, which is
        #: what recovery policies reason about).
        current: dict[int, Job] = {}
        failure_killed: list[int] = []
        interrupted: list[ScheduledJob] = []
        #: job_id -> (runtime seconds safely checkpointed, restart overhead
        #: baked into the current attempt's runtime) — the recovery policy's
        #: cross-attempt memory.
        recovery_state: dict[int, tuple[float, float]] = {}
        #: job_id -> kill time, for jobs awaiting their recovery attempt.
        killed_at: dict[int, float] = {}
        resubmit_pending: set[int] = set()
        resubmit_cancelled: set[int] = set()
        wasted_node_seconds = 0.0
        requeue_delay = 0.0

        profile_phases = self.config.profile_phases
        # Hot-loop bindings: the loop below runs a few times per job, so the
        # repeated attribute walks are measurable at bench scale.  Every
        # hoisted object is construction-stable for the whole run.
        machine = self.machine
        scheduler = self.scheduler
        select_jobs = scheduler.select_jobs
        feed_peek = feed.peek_time
        feed_pop = feed.pop_next
        perf_counter = time.perf_counter
        run_clock_start = perf_counter()
        events_seconds = 0.0
        commit_seconds = 0.0

        while feed:
            now = feed_peek()
            ctx.now = now
            if profile_phases:
                t_events = perf_counter()
            # Batch every event at this instant; completions first by the
            # event-kind priority.
            while feed and feed_peek() == now:
                kind, payload = feed_pop()
                if kind is EventKind.COMPLETION:
                    item: ScheduledJob = payload
                    jid = item.job.job_id
                    run_entry = running.get(jid)
                    if run_entry is None or run_entry.start_time != item.start_time:
                        # Stale completion of a killed attempt.  Rerun
                        # attempts reuse the job id, so membership alone is
                        # not enough — the start time identifies the attempt
                        # (attempt starts strictly increase).
                        continue
                    machine.release(jid)
                    del running[jid]
                    if state is not None:
                        state.on_release(jid)
                    finished_ids.add(jid)
                    completed.append(item)
                    columns.append(item)
                    scheduler.on_complete(item.job, ctx)
                elif kind is EventKind.NODE_UP:
                    fail = payload
                    self.machine.repair_nodes(fail.nodes, now)
                    if state is not None:
                        state.on_capacity_up(fail.up_time, fail.nodes)
                    active_outages.remove((fail.up_time, fail.nodes))
                elif kind is EventKind.NODE_DOWN:
                    fail = payload
                    needed = fail.nodes - self.machine.free_nodes
                    if needed > 0:
                        # Free nodes do not cover the failure: kill running
                        # jobs, youngest first (least work destroyed), until
                        # enough nodes are freed.  ``validate_for`` bounds
                        # concurrent failures by the machine size, so the
                        # running jobs always hold enough.
                        victims = sorted(
                            running.values(),
                            key=lambda r: (-r.start_time, -r.job.job_id),
                        )
                        freed = 0
                        for victim in victims:
                            if freed >= needed:
                                break
                            freed += victim.job.nodes
                            wasted_node_seconds += self._kill_for_failure(
                                victim,
                                now=now,
                                policy=policy,
                                ctx=ctx,
                                state=state,
                                events=events,
                                running=running,
                                by_id=by_id,
                                completed=completed,
                                started_ids=started_ids,
                                finished_ids=finished_ids,
                                failure_killed=failure_killed,
                                interrupted=interrupted,
                                recovery_state=recovery_state,
                                killed_at=killed_at,
                                resubmit_pending=resubmit_pending,
                                columns=columns,
                            )
                    self.machine.fail_nodes(fail.nodes, now)
                    if state is not None:
                        state.on_capacity_down(fail.up_time, fail.nodes)
                    active_outages.append((fail.up_time, fail.nodes))
                elif kind is EventKind.SUBMISSION:
                    job = payload
                    if job.job_id in resubmit_pending:
                        resubmit_pending.discard(job.job_id)
                        if job.job_id in resubmit_cancelled:
                            # Cancelled in the gap between kill and rerun:
                            # the rerun never reaches the queue.
                            resubmit_cancelled.discard(job.job_id)
                            finished_ids.add(job.job_id)
                            continue
                    current[job.job_id] = job
                    if state is not None:
                        state.note_enqueued(job.nodes)
                    scheduler.on_submit(job, ctx)
                elif kind is EventKind.CANCELLATION:
                    job_id: int = payload
                    job = current.get(job_id, by_id[job_id])
                    if job_id in running:
                        # Kill mid-run: partial execution enters the record.
                        start_time = running[job_id].start_time
                        self.machine.release(job_id)
                        del running[job_id]
                        if state is not None:
                            state.on_release(job_id)
                        finished_ids.add(job_id)
                        killed_running.append(job_id)
                        item = ScheduledJob(
                            job=job,
                            start_time=start_time,
                            end_time=now,
                            cancelled=True,
                        )
                        completed.append(item)
                        columns.append(item)
                        self.scheduler.on_complete(job, ctx)
                    elif job_id in resubmit_pending:
                        # Killed by a failure, recovery attempt not yet
                        # submitted: the user withdraws the rerun.
                        if job_id not in resubmit_cancelled:
                            resubmit_cancelled.add(job_id)
                            killed_at.pop(job_id, None)
                            cancelled_queued.append(job_id)
                    elif job_id not in finished_ids and job_id not in started_ids:
                        # Still queued: withdraw it.
                        self.scheduler.on_cancel(job, ctx)
                        if state is not None:
                            state.note_dequeued(job.nodes)
                        cancelled_queued.append(job_id)
                    # else: already finished — the realistic no-op race.
                else:
                    # TIMER events need no state change; they exist to
                    # create a decision point.  Inside this batch the
                    # event's time is ``now`` by construction.
                    pending_timers.discard(now)

            if profile_phases:
                events_seconds += time.perf_counter() - t_events
            decision_points += 1
            t_select = perf_counter()
            started = select_jobs(ctx)
            t_commit = perf_counter()
            decision_time += t_commit - t_select
            for job in started:
                started_ids.add(job.job_id)
                if job.job_id in killed_at:
                    requeue_delay += now - killed_at.pop(job.job_id)
                cancelled = (
                    cancel_over_limit
                    and job.estimate is not None
                    and job.runtime > job.estimate
                )
                duration = job.estimate if cancelled else job.runtime
                item = ScheduledJob(
                    job=job,
                    start_time=now,
                    end_time=now + duration,
                    cancelled=cancelled,
                )
                machine.allocate(job)  # raises if the scheduler overcommitted
                running[job.job_id] = RunningJob(job=job, start_time=now)
                if state is not None:
                    state.note_dequeued(job.nodes)
                    state.on_start(job.job_id, job.estimated_runtime, job.nodes)
                events.push(item.end_time, EventKind.COMPLETION, item)

            # Honour timer requests; only queue jobs justify a wake-up, so a
            # drained scheduler cannot keep an otherwise-finished simulation
            # alive forever.
            wake = scheduler.next_wakeup(ctx)
            if (
                wake is not None
                and wake > now
                and wake not in pending_timers
                and (scheduler.pending_count > 0 or running)
            ):
                pending_timers.add(wake)
                events.push(wake, EventKind.TIMER)

            try:
                queue_len = scheduler.pending_count
            except NotImplementedError:  # pragma: no cover - exotic schedulers
                queue_len = 0
            max_queue = max(max_queue, queue_len)
            if self.trace is not None:
                self.trace.queue_lengths.append((now, queue_len))
                self.trace.free_nodes.append((now, machine.free_nodes))
            if profile_phases:
                commit_seconds += perf_counter() - t_commit

        if running:
            raise RuntimeError(
                f"simulation drained its events with {len(running)} jobs still "
                "running — scheduler pushed no completion?"
            )
        leftover = self.scheduler.pending_count
        if leftover:
            raise RuntimeError(
                f"simulation ended with {leftover} jobs still queued — the "
                "scheduler starved them (every job fits the machine, so a "
                "work-conserving scheduler must eventually start everything)"
            )

        total_seconds = time.perf_counter() - run_clock_start
        phase_seconds = {"total": total_seconds, "decide": decision_time}
        if profile_phases:
            phase_seconds["events"] = events_seconds
            phase_seconds["commit"] = commit_seconds
            phase_seconds["other"] = max(
                0.0, total_seconds - events_seconds - commit_seconds - decision_time
            )

        schedule = Schedule(completed)
        return SimulationResult(
            schedule=schedule,
            decision_points=decision_points,
            max_queue_length=max_queue,
            end_time=now,
            cancelled_queued=tuple(cancelled_queued),
            killed_running=tuple(killed_running),
            decision_time=decision_time,
            profile_deltas=state.deltas if state is not None else 0,
            profile_snapshots=state.snapshots if state is not None else 0,
            failure_killed=tuple(failure_killed),
            interrupted=tuple(interrupted),
            lost_node_seconds=(
                failures.lost_node_seconds() if failures is not None else 0.0
            ),
            wasted_node_seconds=wasted_node_seconds,
            requeue_delay=requeue_delay,
            columns=columns,
            phase_seconds=phase_seconds,
        )

    def _kill_for_failure(
        self,
        victim: RunningJob,
        *,
        now: float,
        policy: "RecoveryPolicy | None",
        ctx: SchedulerContext,
        state: SchedulingState | None,
        events: EventQueue,
        running: dict[int, RunningJob],
        by_id: dict[int, Job],
        completed: list[ScheduledJob],
        started_ids: set[int],
        finished_ids: set[int],
        failure_killed: list[int],
        interrupted: list[ScheduledJob],
        recovery_state: dict[int, tuple[float, float]],
        killed_at: dict[int, float],
        resubmit_pending: set[int],
        columns: ResultColumns,
    ) -> float:
        """Kill ``victim`` for a node failure; returns wasted node-seconds.

        Releases the partition, records the partial attempt, and dispatches
        the recovery policy: abandonment turns the attempt into the job's
        final (cancelled) schedule record; recovery stores the attempt under
        ``interrupted`` and schedules a rerun submission carrying the
        remaining runtime under the original identity.
        """
        attempt = victim.job
        job_id = attempt.job_id
        self.machine.release(job_id)
        del running[job_id]
        if state is not None:
            state.on_release(job_id)
        record = ScheduledJob(
            job=attempt, start_time=victim.start_time, end_time=now, cancelled=True
        )
        failure_killed.append(job_id)
        executed = now - victim.start_time
        saved, overhead_paid = recovery_state.get(job_id, (0.0, 0.0))
        original = by_id[job_id]
        assert policy is not None  # failures without a policy cannot happen
        outcome = policy.on_interrupt(
            original,
            now=now,
            executed=executed,
            saved=saved,
            overhead_paid=overhead_paid,
        )
        nodes = attempt.nodes
        if outcome.resubmit_at is None:
            # Abandoned: the partial attempt is the job's final record, and
            # everything it executed (plus any checkpoints from earlier
            # attempts, now useless) is wasted.
            finished_ids.add(job_id)
            completed.append(record)
            columns.append(record)
            waste = (executed + saved) * nodes
        else:
            if outcome.resubmit_at < now:
                raise ValueError(
                    f"recovery policy {policy.spec!r} resubmits job {job_id} "
                    f"at {outcome.resubmit_at}, before the kill at {now}"
                )
            interrupted.append(record)
            started_ids.discard(job_id)
            rerun = replace(original, runtime=outcome.remaining_runtime)
            events.push(outcome.resubmit_at, EventKind.SUBMISSION, rerun)
            resubmit_pending.add(job_id)
            killed_at[job_id] = now
            recovery_state[job_id] = (outcome.saved, outcome.overhead)
            # Work preserved by new checkpoints survives; the rest of this
            # attempt's execution is wasted.
            waste = (executed - (outcome.saved - saved)) * nodes
        self.scheduler.on_complete(attempt, ctx)
        return waste


def simulate(
    jobs: Iterable[Job],
    scheduler: Scheduler,
    total_nodes: int = Machine.PAPER_BATCH_NODES,
    *,
    config: SimulationConfig | None = None,
    scenario: ScenarioInputs | None = None,
) -> SimulationResult:
    """One-call convenience wrapper: build a machine, run, return the result."""
    return Simulator(Machine(total_nodes), scheduler, config).run(
        jobs, scenario=scenario
    )
