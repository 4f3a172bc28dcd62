"""Availability profile: free nodes as a step function of future time.

Backfilling needs to answer "when is the earliest time a ``nodes``-wide job
can run for ``duration`` seconds without displacing existing commitments?".
The :class:`AvailabilityProfile` maintains the number of free nodes over
``[now, infinity)`` as a piecewise-constant function and supports

* :meth:`earliest_start` — first-fit query against the profile, and
* :meth:`reserve` — committing nodes over an interval (a running job's
  projected remainder, or a queued job's reservation under conservative
  backfilling).

All durations fed into a profile are *projected* (based on user estimates);
the paper stresses that realised completions may be earlier, which is why
backfilling can still delay jobs relative to FCFS (Section 5.2).

Historically the schedulers rebuilt a profile from live state at every
decision point; today :class:`repro.core.state.SchedulingState` maintains
one *persistent* profile across events instead, which is why the class also
supports

* :meth:`release` — returning the projected remainder of an early
  completion to the free pool,
* :meth:`advance_origin` — dropping segments the simulation clock has
  passed, and
* :meth:`clone` — copy-on-write snapshots handed to the disciplines.

``from_running`` remains the reference constructor: the incremental path is
cross-checked against it (see ``SchedulingState.verify``), and contexts
without a state fall back to it.

Implementation note: profiles are the measured hot spot of conservative
backfilling (hundreds of thousands of first-fit queries per simulated
month).  Profiles here are small (tens to a few hundred segments), so tight
Python loops over plain lists beat NumPy, whose per-call overhead dominates
at these sizes — measured both ways; see ``benchmarks/bench_profile.py``.

Three query kernels keep the first-fit scan cheap as profiles grow:

* every query funnels through one module-level kernel (:func:`_first_fit`)
  with the hot lists hoisted into locals;
* profiles with ≥ :data:`_INDEX_MIN_SEGMENTS` segments lazily build a
  **block-max index** (max free nodes per :data:`_INDEX_BLOCK`-segment
  block) that lets the feasibility scan skip whole runs of infeasible
  breakpoints; any mutation invalidates it, clones share it.  (A plain
  suffix-max is vacuous here: the final segment is always fully free, so
  every suffix max equals ``total_nodes`` — the blocked form is the useful
  prefix structure.  See the decision record in ``docs/architecture.md``.)
* :meth:`earliest_start_batch` answers many queries against a fixed
  profile in one pass, and :meth:`allocate` fuses the query with its
  reservation, skipping the redundant feasibility re-validation —
  conservative and slack backfilling issue exactly that pair per queued
  job.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Sequence

#: Segments per block of the lazily-built block-max feasibility index.
_INDEX_BLOCK = 32

#: Minimum segment count before a query builds the block-max index; below
#: it the plain scan wins (index upkeep would cost more than it saves).
_INDEX_MIN_SEGMENTS = 96

#: Entries kept in the per-profile first-fit memo before it is wiped.  The
#: bound is enforced by a deterministic clear-on-full (never an eviction
#: order that could depend on hash iteration), so two runs of the same
#: scenario always see the same hit/miss sequence — not that a miss could
#: change an answer, but determinism keeps the cache a non-observable.
_MEMO_MAX = 128


def _first_fit(
    times: list[float],
    free: list[int],
    n: int,
    block_max: list[int] | None,
    nodes: int,
    duration: float,
    start_at: float,
) -> float:
    """First ``t >= start_at`` with ``free >= nodes`` over ``[t, t+duration)``.

    The single query kernel behind :meth:`AvailabilityProfile.earliest_start`,
    :meth:`~AvailabilityProfile.earliest_start_batch` and
    :meth:`~AvailabilityProfile.allocate`.  ``block_max`` (when not ``None``)
    holds ``max(free[k*B:(k+1)*B])`` per block and must describe exactly
    ``free``; the caller guarantees ``nodes <= total_nodes`` so the scan
    always terminates on the final, fully-free segment.
    """
    idx = bisect_right(times, start_at) - 1
    while True:
        # Skip infeasible segments; _free[-1] == total_nodes >= nodes, so
        # neither loop runs off the end.
        if block_max is None:
            while free[idx] < nodes:
                idx += 1
        else:
            # Finish the current block by scan, then hop infeasible blocks.
            end_of_block = ((idx // _INDEX_BLOCK) + 1) * _INDEX_BLOCK
            if end_of_block > n:
                end_of_block = n
            while idx < end_of_block and free[idx] < nodes:
                idx += 1
            if idx == end_of_block:
                block = idx // _INDEX_BLOCK
                while block_max[block] < nodes:
                    block += 1
                idx = block * _INDEX_BLOCK
                while free[idx] < nodes:
                    idx += 1
        t = times[idx]
        candidate = t if t > start_at else start_at
        end = candidate + duration
        j = idx + 1
        while j < n:
            if times[j] >= end:
                return candidate
            if free[j] < nodes:
                break
            j += 1
        else:
            return candidate
        idx = j


class AvailabilityProfile:
    """Piecewise-constant free-node function over ``[origin, inf)``.

    Internally two parallel lists: ``_times`` (strictly increasing,
    ``_times[0] == origin``) and ``_free`` where ``_free[i]`` holds on
    ``[_times[i], _times[i+1])`` and ``_free[-1]`` holds forever after.
    Every reservation is a finite interval, so ``_free[-1]`` always equals
    ``total_nodes`` — the machine eventually drains.
    """

    __slots__ = ("_times", "_free", "total_nodes", "_shared", "_block_max", "_memo")

    def __init__(self, total_nodes: int, origin: float = 0.0) -> None:
        if total_nodes <= 0:
            raise ValueError(f"total_nodes must be positive, got {total_nodes}")
        self.total_nodes = total_nodes
        self._times: list[float] = [origin]
        self._free: list[int] = [total_nodes]
        self._shared = False
        self._block_max: list[int] | None = None
        self._memo: dict[tuple[int, float], float] | None = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_running(
        cls,
        total_nodes: int,
        now: float,
        running: Iterable[tuple[float, int]],
    ) -> "AvailabilityProfile":
        """Build a profile from running jobs in one pass.

        ``running`` yields ``(projected_end_time, nodes)`` pairs.  Projected
        ends in the past (overrunning jobs whose estimate already elapsed)
        are clamped to *just after* ``now``: the scheduler knows the nodes
        are still busy but has no information beyond that; using an epsilon
        keeps the profile consistent while letting other work be planned.
        """
        profile = cls(total_nodes, origin=now)
        pairs = [
            (end if end > now else now + _OVERRUN_EPSILON, nodes)
            for end, nodes in running
        ]
        if not pairs:
            return profile
        pairs.sort()
        busy = sum(nodes for _end, nodes in pairs)
        if busy > total_nodes:
            raise ValueError(
                f"running jobs hold {busy} nodes on a {total_nodes}-node machine"
            )
        times = [now]
        free = [total_nodes - busy]
        level = total_nodes - busy
        for end, nodes in pairs:
            level += nodes
            if times[-1] == end:
                free[-1] = level
            else:
                times.append(end)
                free.append(level)
        profile._times = times
        profile._free = free
        return profile

    def clone(self) -> "AvailabilityProfile":
        """Copy-on-write snapshot: O(1) until either copy mutates.

        Both instances share the segment lists and carry a shared flag;
        the first mutation on either side (reserve, release,
        advance_origin) copies the lists before writing.  Queries never
        detach.
        """
        other = AvailabilityProfile.__new__(AvailabilityProfile)
        other.total_nodes = self.total_nodes
        other._times = self._times
        other._free = self._free
        # The block-max index and the first-fit memo describe the shared
        # segment lists, so the clone inherits both; whichever copy mutates
        # first drops only its own references (the epoch contract: a
        # mutation starts a new epoch with an empty memo, see
        # docs/architecture.md).
        other._block_max = self._block_max
        other._memo = self._memo
        other._shared = True
        self._shared = True
        return other

    def _detach(self) -> None:
        if self._shared:
            self._times = list(self._times)
            self._free = list(self._free)
            self._shared = False

    # -- queries ----------------------------------------------------------------

    @property
    def origin(self) -> float:
        return self._times[0]

    def free_at(self, time: float) -> int:
        """Free nodes at ``time`` (must be >= origin)."""
        if time < self._times[0]:
            raise ValueError(f"time {time} precedes profile origin {self._times[0]}")
        return self._free[bisect_right(self._times, time) - 1]

    def steps(self) -> list[tuple[float, int]]:
        """The profile as ``(time, free_nodes_from_time)`` pairs (a copy)."""
        return list(zip(self._times, self._free))

    def canonical_steps(self) -> list[tuple[float, int]]:
        """Steps with redundant breakpoints merged.

        Incremental maintenance can leave breakpoints where the free count
        does not change (a release exactly cancelling a reservation edge);
        they never affect queries, but equality comparisons — the
        incremental-vs-rebuild cross-check — must ignore them.
        """
        out: list[tuple[float, int]] = []
        for time, free in zip(self._times, self._free):
            if out and out[-1][1] == free:
                continue
            out.append((time, free))
        return out

    def _query_index(self) -> list[int] | None:
        """The block-max feasibility index, built lazily for large profiles."""
        block_max = self._block_max
        if block_max is None:
            free = self._free
            if len(free) >= _INDEX_MIN_SEGMENTS:
                block_max = self._block_max = [
                    max(free[i : i + _INDEX_BLOCK])
                    for i in range(0, len(free), _INDEX_BLOCK)
                ]
        return block_max

    def earliest_start(self, nodes: int, duration: float, after: float | None = None) -> float:
        """Earliest ``t >= after`` with ``free >= nodes`` on ``[t, t+duration)``.

        ``after`` defaults to the profile origin.  Always returns a finite
        time provided ``nodes <= total_nodes`` (the final segment is fully
        free); raises ``ValueError`` otherwise.
        """
        if nodes > self.total_nodes:
            raise ValueError(f"{nodes} nodes never fit a {self.total_nodes}-node machine")
        times = self._times
        origin = times[0]
        if after is None or after <= origin:
            # Memoizable: the answer depends only on (nodes, duration) and
            # the step function of the current epoch.  A cached start from
            # before an ``advance_origin`` stays valid exactly when it has
            # not been overtaken by the new origin — the levels on
            # ``[origin, inf)`` are untouched by origin advances, and every
            # instant in ``[origin, cached)`` was already scanned and found
            # infeasible — so staleness is a cheap comparison, not a flush.
            memo = self._memo
            key = (nodes, duration)
            if memo is not None:
                cached = memo.get(key)
                if cached is not None and cached >= origin:
                    return cached
            start = _first_fit(
                times, self._free, len(times), self._query_index(), nodes, duration, origin
            )
            if memo is None:
                memo = self._memo = {}
            elif len(memo) >= _MEMO_MAX:
                memo.clear()
            memo[key] = start
            return start
        return _first_fit(
            times, self._free, len(times), self._query_index(), nodes, duration, after
        )

    def earliest_start_batch(
        self,
        requests: Sequence[tuple[int, float]],
        after: float | None = None,
    ) -> list[float]:
        """First-fit starts for many ``(nodes, duration)`` requests at once.

        All requests are answered against this *fixed* profile (no
        reservations between them — use :meth:`allocate` per job when each
        answer must constrain the next).  One pass hoists the segment
        lists and the feasibility index out of the per-request path, so a
        batch of k queries costs far less than k :meth:`earliest_start`
        calls.  Results are exactly ``[self.earliest_start(n, d, after)
        for n, d in requests]``.
        """
        times = self._times
        free = self._free
        n = len(times)
        origin = times[0]
        start_at = origin if after is None or after < origin else after
        total = self.total_nodes
        block_max = self._query_index()
        out: list[float] = []
        for nodes, duration in requests:
            if nodes > total:
                raise ValueError(f"{nodes} nodes never fit a {total}-node machine")
            out.append(_first_fit(times, free, n, block_max, nodes, duration, start_at))
        return out

    def allocate(self, nodes: int, duration: float, after: float | None = None) -> float:
        """Fused :meth:`earliest_start` + :meth:`reserve`; returns the start.

        Finds the earliest feasible window and commits the reservation in
        one pass — the found window is free by construction, so the
        re-validation scan :meth:`reserve` performs is skipped.  The
        resulting profile is bit-identical to the two-call sequence
        (same breakpoints, same float arithmetic); conservative and
        slack backfilling call this once per queued job.
        """
        if nodes > self.total_nodes:
            raise ValueError(f"{nodes} nodes never fit a {self.total_nodes}-node machine")
        if duration <= 0:
            # reserve() treats non-positive durations as no-ops; match it.
            return self.earliest_start(nodes, duration, after)
        self._detach()
        times = self._times
        origin = times[0]
        start_at = origin if after is None or after < origin else after
        candidate = _first_fit(
            times, self._free, len(times), self._query_index(), nodes, duration, start_at
        )
        end = candidate + duration
        self._block_max = None
        self._memo = None
        self._ensure_breakpoint(candidate)
        self._ensure_breakpoint(end)
        free = self._free
        lo = bisect_left(times, candidate)
        hi = bisect_left(times, end)
        for i in range(lo, hi):
            free[i] -= nodes
        return candidate

    # -- mutation ----------------------------------------------------------------

    def reserve(self, start: float, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` free nodes over ``[start, start + duration)``.

        Raises ``ValueError`` if the reservation would drive any segment
        negative — callers must query :meth:`earliest_start` first.
        Zero-duration reservations are no-ops.
        """
        if duration <= 0:
            return
        self._reserve_span(start, start + duration, nodes)

    def reserve_until(self, start: float, end: float, nodes: int) -> None:
        """Subtract ``nodes`` free nodes over ``[start, end)``.

        Like :meth:`reserve`, but the end breakpoint is placed at exactly
        ``end`` rather than the float sum ``start + duration`` — callers
        that know the end instant (capacity outages with a repair ETA) use
        this so independently-built profiles agree bit for bit.
        """
        if end <= start:
            return
        self._reserve_span(start, end, nodes)

    def reserve_from_origin(self, duration: float, nodes: int) -> None:
        """Subtract ``nodes`` over ``[origin, origin + duration)``.

        The start-a-job-*now* fast path, equivalent to
        ``reserve(origin, duration, nodes)`` on a *prefix-anchored*
        profile — one in which every reservation interval begins at the
        origin, so availability is ``total - sum(nodes_k for end_k > t)``
        and non-decreasing in time.  The first segment is then the
        minimum over any span starting at the origin, and checking it
        replaces the per-segment feasibility scan.  The persistent
        profile (running-job remainders, active outages) and the EASY
        decision snapshots satisfy the invariant by construction;
        profiles carrying future-start reservations (conservative
        backfilling) must keep using :meth:`reserve`.
        """
        if duration <= 0:
            return
        self._detach()
        self._block_max = None
        self._memo = None
        free = self._free
        if free[0] < nodes:
            raise ValueError(
                f"reservation of {nodes} nodes from origin exceeds "
                f"availability ({free[0]} free)"
            )
        times = self._times
        end = times[0] + duration
        # Inlined _ensure_breakpoint(end) + bisect_left(times, end): one
        # bisect serves both the insertion point and the subtraction bound.
        idx = bisect_right(times, end) - 1
        if times[idx] == end:
            hi = idx
        else:
            times.insert(idx + 1, end)
            free.insert(idx + 1, free[idx])
            hi = idx + 1
        for i in range(hi):
            free[i] -= nodes

    def _reserve_span(self, start: float, end: float, nodes: int) -> None:
        self._detach()
        self._block_max = None
        self._memo = None
        times = self._times
        free = self._free
        if start < times[0]:
            raise ValueError(f"reservation start {start} precedes origin {times[0]}")
        self._ensure_breakpoint(start)
        self._ensure_breakpoint(end)
        lo = bisect_left(times, start)
        hi = bisect_left(times, end)
        for i in range(lo, hi):
            if free[i] < nodes:
                raise ValueError(
                    f"reservation of {nodes} nodes over [{start}, {end}) exceeds "
                    f"availability ({free[i]} free at {times[i]})"
                )
        for i in range(lo, hi):
            free[i] -= nodes

    def release(self, end: float, nodes: int) -> None:
        """Add ``nodes`` free nodes back over ``[origin, end)``.

        The inverse of :meth:`reserve` for the *remainder* of a commitment:
        when a job completes at the current origin but was projected to run
        until ``end``, its nodes become free over exactly that interval.
        Callers must first advance the origin to the completion instant
        (see :meth:`advance_origin`); ``end <= origin`` is a no-op — the
        projection already expired on its own.

        Raises ``ValueError`` if the release would lift any segment above
        ``total_nodes`` (releasing nodes that were never reserved).
        """
        if nodes <= 0 or end <= self._times[0]:
            return
        self._detach()
        self._block_max = None
        self._memo = None
        times = self._times
        free = self._free
        total = self.total_nodes
        # Inlined _ensure_breakpoint(end) + bisect_left(times, end).
        idx = bisect_right(times, end) - 1
        if times[idx] == end:
            hi = idx
        else:
            times.insert(idx + 1, end)
            free.insert(idx + 1, free[idx])
            hi = idx + 1
        for i in range(hi):
            if free[i] + nodes > total:
                raise ValueError(
                    f"release of {nodes} nodes up to {end} exceeds total_nodes "
                    f"({free[i]} already free at {times[i]})"
                )
        for i in range(hi):
            free[i] += nodes

    def advance_origin(self, now: float) -> None:
        """Move the origin forward to ``now``, dropping passed segments.

        Keeps the profile anchored at the simulation clock so persistent
        maintenance does not accumulate dead history.  ``now`` at or before
        the current origin is a no-op; the free level holding at ``now``
        becomes the new first segment.
        """
        if now <= self._times[0]:
            return
        self._detach()
        self._block_max = None
        times = self._times
        free = self._free
        idx = bisect_right(times, now) - 1
        if idx > 0:
            del times[:idx]
            del free[:idx]
        times[0] = now

    def _ensure_breakpoint(self, time: float) -> None:
        times = self._times
        idx = bisect_right(times, time) - 1
        if times[idx] != time:
            times.insert(idx + 1, time)
            self._free.insert(idx + 1, self._free[idx])


#: Projected remainder assumed for a job that exceeded its estimate.  The
#: scheduler cannot know the true remainder; one second keeps the profile
#: well-formed without blocking the future.
_OVERRUN_EPSILON = 1.0
