"""Unit tests for the event queue."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Event, EventKind, EventQueue, MergedEventFeed
from repro.core.job import Job


class TestOrdering:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "b")
        q.push(1.0, EventKind.SUBMISSION, "a")
        q.push(9.0, EventKind.SUBMISSION, "c")
        assert [q.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_completion_before_submission_at_same_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "submit")
        q.push(5.0, EventKind.COMPLETION, "complete")
        assert q.pop().payload == "complete"
        assert q.pop().payload == "submit"

    def test_timer_after_submission_at_same_time(self):
        q = EventQueue()
        q.push(5.0, EventKind.TIMER, "timer")
        q.push(5.0, EventKind.SUBMISSION, "submit")
        assert q.pop().payload == "submit"
        assert q.pop().payload == "timer"

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        q.push(5.0, EventKind.SUBMISSION, "first")
        q.push(5.0, EventKind.SUBMISSION, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, EventKind.TIMER)
        assert q.peek().time == 1.0
        assert len(q) == 1

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(1.0, EventKind.TIMER)
        assert q and len(q) == 1
        q.pop()
        assert not q


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            st.sampled_from(list(EventKind)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_pop_sequence_is_sorted(items):
    q = EventQueue()
    for time, kind in items:
        q.push(time, kind)
    popped: list[Event] = [q.pop() for _ in range(len(items))]
    keys = [(e.time, e.kind, e.sequence) for e in popped]
    assert keys == sorted(keys)


@given(
    st.lists(st.integers(min_value=0, max_value=20), max_size=25),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=24), st.sampled_from(list(EventKind))),
        max_size=25,
    ),
)
def test_merged_feed_matches_one_heap(arrivals, heap_events):
    """Sorted arrivals merged with the heap pop in exactly the order of one
    heap holding every event (small integer instants force ties)."""
    jobs = sorted(
        (Job(job_id=i, submit_time=float(t), nodes=1, runtime=1.0)
         for i, t in enumerate(arrivals)),
        key=lambda j: (j.submit_time, j.job_id),
    )
    oracle = EventQueue()
    for job in jobs:
        oracle.push(job.submit_time, EventKind.SUBMISSION, job)
    events = EventQueue(start_sequence=len(jobs))
    for i, (t, kind) in enumerate(heap_events):
        oracle.push(float(t), kind, i)
        events.push(float(t), kind, i)
    feed = MergedEventFeed(events, jobs)
    merged = []
    while feed:
        t = feed.peek_time()
        merged.append((t, *feed.pop_next()))
    expected = []
    while oracle:
        event = oracle.pop()
        expected.append((event.time, event.kind, event.payload))
    assert merged == expected
