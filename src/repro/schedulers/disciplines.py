"""Servicing disciplines: list scheduling, any-fit, EASY and conservative
backfilling.

The paper's Tables 3–6 have one column per discipline:

* **Listscheduler** — greedy head-blocking list scheduling: "the next job in
  the list is started as soon as the necessary resources are available"
  (Section 5.1).  If the head does not fit, everything waits.
* **Backfilling** — *conservative* backfilling (Feitelson & Weil): a job may
  jump the queue only if it does not increase the projected completion time
  of *any* job ahead of it (Section 5.2).
* **EASY-Backfilling** — Lifka's variant: a job may jump only if it does not
  postpone the projected start of the *first* job in the queue.

Garey & Graham's classical list scheduling is a fourth discipline
(:class:`AnyFitDiscipline`): start any job for which enough resources are
available, no estimates needed — "application of backfilling will be of no
benefit for this method" because it never leaves a startable job waiting.

All projections use the user estimate; actual runtimes may be shorter, so
backfilled jobs can still delay queued work relative to plain FCFS — the
behaviour the paper points out at the end of Section 5.2.

Both backfilling disciplines plan on ``ctx.profile`` — a snapshot of the
incrementally-maintained availability state (or a ``from_running`` rebuild
when the driving loop keeps no state).  The snapshot is theirs to mutate:
tentative starts and reservations go straight into it and die with the
decision point, so early completions are still absorbed automatically — the
next snapshot reflects them.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.job import Job
from repro.core.profile import _OVERRUN_EPSILON, AvailabilityProfile
from repro.core.scheduler import SchedulerContext
from repro.schedulers.base import Discipline


def _min_queue_nodes(queue: Sequence[Job], ctx: SchedulerContext) -> int:
    """Narrowest job in ``queue`` — incremental stat when valid, else a scan."""
    cached = ctx.queue_min_nodes(len(queue))
    if cached is not None:
        return cached
    return min(job.nodes for job in queue)


def _reserve_from_now(
    profile: AvailabilityProfile, now: float, duration: float, nodes: int
) -> None:
    """Commit a tentative start at ``now`` the way ``from_running`` projects it.

    Zero-duration estimates are clamped to the overrun epsilon — exactly the
    clamp the reference constructor applies to a projected end at ``now`` —
    so snapshot-based planning stays bit-identical to a rebuild.

    ``now`` is always the snapshot's origin here (EASY plans on a snapshot
    taken at the decision instant), and EASY snapshots are prefix-anchored,
    so the origin fast path applies and yields the same breakpoints and
    levels as ``reserve(now, ...)``.
    """
    profile.reserve_from_origin(duration if duration > 0 else _OVERRUN_EPSILON, nodes)


class HeadBlockingDiscipline(Discipline):
    """Greedy list scheduling: start queue-head jobs while they fit."""

    name = "list"
    uses_estimates = False

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        if not queue:
            return []
        free = ctx.free_nodes
        started: list[Job] = []
        for job in queue:
            if job.nodes > free:
                break
            started.append(job)
            free -= job.nodes
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        started = self.select(queue, ctx)
        return started, range(len(started))


class AnyFitDiscipline(Discipline):
    """Garey & Graham: start every queued job that fits, scanning in order.

    A single in-order pass is exact: free nodes only shrink during the pass,
    and the simulator re-invokes the discipline whenever nodes are released.
    """

    name = "any-fit"
    uses_estimates = False

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        free = ctx.free_nodes
        started: list[Job] = []
        indices: list[int] = []
        for idx, job in enumerate(queue):
            if job.nodes <= free:
                started.append(job)
                indices.append(idx)
                free -= job.nodes
                if free == 0:
                    break
        return started, indices


class EasyBackfill(Discipline):
    """EASY backfilling (Lifka): never postpone the projected start of the head.

    Implementation: start head jobs greedily; when the head blocks, compute
    its *shadow time* (earliest projected start) and the *extra nodes* (nodes
    free at the shadow time beyond the head's request).  A candidate may be
    backfilled if it fits now and either finishes (by its estimate) before
    the shadow time or uses only extra nodes.  The shadow is recomputed
    after every backfill, which keeps the no-postponement invariant exact
    even when a backfilled job's reservation reshapes the profile.

    The queue walk is index-based: a ``taken`` mask plus a head cursor
    replace the old list mutation (``pop(0)`` / ``remove``), which went
    quadratic on wide startable queues.  The planning profile is one
    ``ctx.profile`` snapshot taken lazily when the head first blocks; jobs
    started this decision point are reserved into it incrementally, which
    is function-identical to the old rebuild-per-backfill.
    """

    name = "easy"
    uses_estimates = True

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        free = ctx.free_nodes
        now = ctx.now
        # No queued job fits the free nodes: neither the head nor any
        # backfill candidate can start, so skip the profile work.
        if free < _min_queue_nodes(queue, ctx):
            return [], None
        started: list[Job] = []
        indices: list[int] = []
        profile: AvailabilityProfile | None = None  # taken when the head blocks
        n = len(queue)
        taken = [False] * n
        head = 0
        remaining = n

        while remaining:
            while taken[head]:
                head += 1
            job = queue[head]
            if job.nodes <= free:
                started.append(job)
                indices.append(head)
                free -= job.nodes
                taken[head] = True
                remaining -= 1
                if profile is not None:
                    _reserve_from_now(profile, now, job.estimated_runtime, job.nodes)
                continue
            if remaining == 1:
                break
            if profile is None:
                profile = ctx.profile
                for prior in started:
                    _reserve_from_now(
                        profile, now, prior.estimated_runtime, prior.nodes
                    )
            shadow = profile.earliest_start(job.nodes, job.estimated_runtime)
            extra = profile.free_at(shadow) - job.nodes
            candidate = None
            for idx in range(head + 1, n):
                if taken[idx]:
                    continue
                trial = queue[idx]
                if trial.nodes > free:
                    continue
                if now + trial.estimated_runtime <= shadow or trial.nodes <= extra:
                    candidate = idx
                    break
            if candidate is None:
                break
            job = queue[candidate]
            started.append(job)
            indices.append(candidate)
            free -= job.nodes
            taken[candidate] = True
            remaining -= 1
            _reserve_from_now(profile, now, job.estimated_runtime, job.nodes)
        return started, indices

class ConservativeBackfill(Discipline):
    """Conservative backfilling: no queued job's projected completion grows.

    Every decision point takes a fresh availability snapshot
    (``ctx.profile``) and walks the queue in order: each job either starts
    now or receives a reservation at its earliest projected start.  Later
    jobs plan around all earlier reservations, so no job can be postponed
    (with respect to the projections) by a backfilled successor.

    Queued-job reservations live only inside the decision point's snapshot
    — never in the persistent state — which automatically exploits early
    completions: when a job finishes ahead of its estimate the next
    snapshot already shows the freed remainder, exactly like a real
    conservative-backfill queue manager re-evaluating its reservation
    table.

    ``depth`` bounds how many queued jobs are considered per decision point
    (production systems call this ``bf_max_job_test``); jobs beyond the
    bound neither start nor reserve.  ``None`` (the default) is the exact
    algorithm of the paper.  A bounded depth keeps per-event cost constant
    on pathological backlogs at the price of slightly weaker backfilling —
    never of correctness: the no-postponement guarantee among *considered*
    jobs is unchanged, and skipped jobs are simply deferred.
    """

    name = "conservative"
    uses_estimates = True

    def __init__(self, depth: int | None = None) -> None:
        if depth is not None and depth < 1:
            raise ValueError("depth must be at least 1 (or None for unbounded)")
        self.depth = depth

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        now = ctx.now
        if self.depth is not None:
            queue = queue[: self.depth]
        # Nothing can start when no queued job fits the free nodes; skip the
        # profile snapshot entirely (frequent during backlog phases).
        if ctx.free_nodes < _min_queue_nodes(queue, ctx):
            return [], None
        profile = ctx.profile
        # Early-exit support: once the nodes free *right now* drop below the
        # narrowest job remaining in the queue, no further job can start at
        # this decision point.  The skipped tail's reservations are never
        # consulted (each decision point plans on a fresh snapshot), so
        # stopping is exact, not an approximation.
        suffix_min = [0] * (len(queue) + 1)
        suffix_min[len(queue)] = _NO_JOB
        for i in range(len(queue) - 1, -1, -1):
            suffix_min[i] = min(queue[i].nodes, suffix_min[i + 1])
        current_free = ctx.free_nodes

        started: list[Job] = []
        indices: list[int] = []
        for i, job in enumerate(queue):
            if current_free < suffix_min[i]:
                break
            # Zero-length estimates still occupy their nodes for the instant
            # they run; reserve an epsilon so two such jobs cannot double-book
            # the same nodes at the same decision point.  allocate() fuses
            # the first-fit query with the reservation (one scan, no
            # re-validation) — this pair is the measured hot spot of the
            # whole simulator.
            est = max(job.estimated_runtime, _ZERO_RUNTIME_EPSILON)
            start = profile.allocate(job.nodes, est)
            if start <= now:
                started.append(job)
                indices.append(i)
                current_free -= job.nodes
        return started, indices


#: Sentinel larger than any machine, so the suffix-min bottom never triggers.
_NO_JOB = 1 << 60


#: Stand-in duration for zero-runtime estimates inside reservation profiles.
_ZERO_RUNTIME_EPSILON = 1e-9
