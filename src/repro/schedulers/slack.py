"""Slack-based backfilling — the continuum between EASY and conservative.

Feitelson & Weil's two variants (Section 5.2) are the endpoints of a
spectrum: EASY protects only the queue head from postponement, while
conservative protects everyone.  Slack-based backfilling (Talby &
Feitelson, IPDPS'99 — contemporaneous with the paper) interpolates: every
queued job receives a *slack allowance*, and a backfill move is legal iff
it postpones no queued job's projected start by more than its remaining
slack.

Implementation: like :class:`~repro.schedulers.disciplines.ConservativeBackfill`,
each decision point plans on a fresh ``ctx.profile`` snapshot and every
queued job receives a reservation — but each job's reservation is placed at
``earliest_start + slack``, where

``slack = slack_factor * estimated_runtime``

(the standard proportional allowance).  Jobs can therefore compress in
front of a reserved job by up to its slack.  ``slack_factor = 0``
reproduces conservative backfilling exactly; large factors approach the
head-protected-only behaviour of EASY.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.job import Job
from repro.core.scheduler import SchedulerContext
from repro.schedulers.base import Discipline
from repro.schedulers.disciplines import (
    _NO_JOB,
    _ZERO_RUNTIME_EPSILON,
    _min_queue_nodes,
)


class SlackBackfill(Discipline):
    """Backfilling with per-job proportional slack allowances."""

    name = "slack"
    uses_estimates = True

    def __init__(self, slack_factor: float = 1.0) -> None:
        if slack_factor < 0:
            raise ValueError("slack_factor must be non-negative")
        self.slack_factor = slack_factor
        self.name = f"slack({slack_factor:g})"

    def select(self, queue: Sequence[Job], ctx: SchedulerContext) -> list[Job]:
        started, _indices = self.select_indexed(queue, ctx)
        return started

    def select_indexed(
        self, queue: Sequence[Job], ctx: SchedulerContext
    ) -> tuple[list[Job], Sequence[int] | None]:
        if not queue:
            return [], None
        now = ctx.now
        if ctx.free_nodes < _min_queue_nodes(queue, ctx):
            return [], None
        profile = ctx.profile
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
            est = max(job.estimated_runtime, _ZERO_RUNTIME_EPSILON)
            start = profile.earliest_start(job.nodes, est)
            if start <= now:
                # Startable now: start it and commit the real usage.
                profile.reserve(start, est, job.nodes)
                started.append(job)
                indices.append(i)
                current_free -= job.nodes
            else:
                # Not startable: reserve at its earliest start *plus* the
                # slack allowance, leaving room for later jobs to squeeze
                # in front of it by at most that much.  allocate() fuses
                # the delayed query with its reservation.
                slack = self.slack_factor * job.estimated_runtime
                profile.allocate(job.nodes, est, after=start + slack)
        return started, indices
