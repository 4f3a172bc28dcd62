"""Event types and the event queue of the discrete-event engine.

The scheduling system of the paper reacts to exactly two external stimuli:
the arrival of job submission data ("a stream of job submission data",
Section 2) and the completion of a running job (which may differ from the
projected completion because estimates are upper limits).  Internally we add
a ``TIMER`` event kind so schedulers can request wake-ups (PSRS's wide-job
patience, policy rules like Example 4's 10am class) without polling, and the
``NODE_UP`` / ``NODE_DOWN`` pair through which a
:class:`~repro.failures.trace.FailureTrace` feeds "the sudden failure of a
hardware component" (Section 2) into the loop.

Events are processed in ``(time, priority, sequence)`` order.  Completions
are processed *before* submissions at the same instant — a scheduler seeing
a new job should already know about every node freed at that time — and the
monotone ``sequence`` counter makes the order total and deterministic.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.job import Job


class EventKind(enum.IntEnum):
    """Kinds of simulator events; the integer value is the same-time priority.

    Completions come first so everything at one instant sees the freed
    nodes.  Node repairs apply before node failures (a simultaneous
    repair+failure nets out without a transient negative capacity), and
    both precede submissions — a job arriving at a failure instant sees
    the degraded machine.  Cancellations process after submissions at the
    same instant (a job submitted and cancelled in the same second is
    first seen, then withdrawn), and before timers.
    """

    COMPLETION = 0
    NODE_UP = 1
    NODE_DOWN = 2
    SUBMISSION = 3
    CANCELLATION = 4
    TIMER = 5


@dataclass(frozen=True, slots=True, order=True)
class Event:
    """A single simulator event.

    Ordering is by time, then kind priority, then insertion sequence, so a
    heap of events pops deterministically.  ``payload`` carries the job for
    submission/completion events and an arbitrary token for timers.
    """

    time: float
    kind: EventKind
    sequence: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A binary-heap priority queue of :class:`Event` objects.

    ``start_sequence`` offsets the insertion counter: the simulator keeps
    the N original submissions *outside* the heap (a pre-sorted arrival
    list merged by :class:`MergedEventFeed`) and reserves the virtual
    sequences ``0..N-1`` for them, so every event actually pushed here —
    cancellations, completions, rerun submissions — orders after a
    same-time, same-kind arrival exactly as it would in one all-heap
    ordering.
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self, start_sequence: int = 0) -> None:
        self._heap: list[Event] = []
        self._sequence = start_sequence

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it."""
        event = Event(time, kind, self._sequence, payload)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event.  Raises ``IndexError`` if empty."""
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        return self._heap[0]

    def peek_time(self) -> float:
        """Time of the earliest event.  Raises ``IndexError`` if empty."""
        return self._heap[0].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


_SUBMISSION = EventKind.SUBMISSION


class MergedEventFeed:
    """The simulator's event source: sorted arrivals merged with the heap.

    The N original submissions never enter the heap: they are consumed
    from a list pre-sorted by ``(submit_time, job_id)`` through a cursor.
    Arrivals carry the virtual sequence numbers ``0..N-1`` — strictly
    below every sequence ``events`` (constructed with
    ``start_sequence=N``) will ever hand out — so the merge comparison
    reduces to: at equal times, an arrival precedes every heap event whose
    kind is ``SUBMISSION`` or later, and follows completions and node
    events, exactly the ``(time, kind, sequence)`` total order of one heap
    holding every event.  (Pushing all arrivals into the heap instead
    measured slower at 5k jobs.)
    """

    __slots__ = ("_events", "_jobs", "_times", "_idx", "_n")

    def __init__(self, events: EventQueue, jobs: "Sequence[Job]") -> None:
        self._events = events
        self._jobs = jobs
        self._times = [job.submit_time for job in jobs]
        self._idx = 0
        self._n = len(jobs)

    def __bool__(self) -> bool:
        return self._idx < self._n or bool(self._events._heap)

    def peek_time(self) -> float:
        """Earliest pending instant across both sources."""
        heap = self._events._heap
        if self._idx >= self._n:
            return heap[0].time
        arrival = self._times[self._idx]
        if not heap:
            return arrival
        event = heap[0].time
        return arrival if arrival <= event else event

    def pop_next(self) -> tuple[EventKind, Any]:
        """Remove and return the earliest ``(kind, payload)`` pair."""
        heap = self._events._heap
        idx = self._idx
        if idx < self._n:
            if not heap:
                self._idx = idx + 1
                return _SUBMISSION, self._jobs[idx]
            arrival = self._times[idx]
            head = heap[0]
            if arrival < head.time or (
                arrival == head.time and head.kind >= _SUBMISSION
            ):
                self._idx = idx + 1
                return _SUBMISSION, self._jobs[idx]
        event = heapq.heappop(heap)
        return event.kind, event.payload
