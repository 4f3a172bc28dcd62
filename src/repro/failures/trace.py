"""Node failure/repair traces: deterministic event lists and MTBF sampling.

A failure takes ``nodes`` nodes out of the machine over ``[down_time,
up_time)``.  Traces are plain data — sorted tuples of
:class:`NodeFailure` — so they are picklable (the experiment engine ships
them to pool workers), hashable into cache fingerprints, and replayable
bit-for-bit.

Two sources:

* hand-written event lists (``FailureTrace([NodeFailure(...), ...])``) for
  targeted scenarios and tests;
* :func:`mtbf_trace`, a seeded generator drawing failure arrivals from a
  Poisson process at rate ``total_nodes / mtbf`` (each node fails
  independently with the given mean time between failures) and repair
  durations from an exponential with mean ``mttr`` — the standard renewal
  model of the resource-volatility literature.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class NodeFailure:
    """One failure interval: ``nodes`` nodes down over ``[down_time, up_time)``.

    The repair time is part of the event because the simulator's
    information model gives the scheduler a repair ETA the moment the
    failure strikes (the outage becomes a finite capacity reservation in
    the availability profile).
    """

    down_time: float
    up_time: float
    nodes: int

    def __post_init__(self) -> None:
        if self.down_time < 0:
            raise ValueError(f"down_time must be non-negative, got {self.down_time}")
        if self.up_time <= self.down_time:
            raise ValueError(
                f"up_time {self.up_time} must be after down_time {self.down_time}"
            )
        if self.nodes <= 0:
            raise ValueError(f"nodes must be positive, got {self.nodes}")

    @property
    def duration(self) -> float:
        return self.up_time - self.down_time

    @property
    def node_seconds(self) -> float:
        """Capacity lost to this failure (nodes x outage duration)."""
        return self.nodes * self.duration


class FailureTrace:
    """An immutable, time-sorted sequence of :class:`NodeFailure` events."""

    __slots__ = ("_failures",)

    def __init__(self, failures: Iterable[NodeFailure] = ()) -> None:
        self._failures: tuple[NodeFailure, ...] = tuple(
            sorted(failures, key=lambda f: (f.down_time, f.up_time, f.nodes))
        )

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._failures)

    def __iter__(self) -> Iterator[NodeFailure]:
        return iter(self._failures)

    def __bool__(self) -> bool:
        return bool(self._failures)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FailureTrace):
            return NotImplemented
        return self._failures == other._failures

    def __hash__(self) -> int:
        return hash(self._failures)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FailureTrace({len(self._failures)} failures)"

    @property
    def failures(self) -> tuple[NodeFailure, ...]:
        return self._failures

    # -- aggregate queries ----------------------------------------------------

    def max_concurrent_down(self) -> int:
        """Peak number of nodes simultaneously down (event sweep)."""
        events: list[tuple[float, int]] = []
        for f in self._failures:
            events.append((f.down_time, f.nodes))
            events.append((f.up_time, -f.nodes))
        # Repairs apply before failures at the same instant, matching the
        # simulator's NODE_UP-before-NODE_DOWN event ordering.
        events.sort(key=lambda e: (e[0], e[1]))
        down = peak = 0
        for _time, delta in events:
            down += delta
            peak = max(peak, down)
        return peak

    def lost_node_seconds(self) -> float:
        """Total capacity removed by the trace, in node-seconds."""
        return sum(f.node_seconds for f in self._failures)

    def capacity_steps(self, total_nodes: int) -> list[tuple[float, int]]:
        """Capacity as ``(time, capacity_from_time)`` breakpoints.

        The implicit capacity before the first breakpoint is
        ``total_nodes``; suitable for
        :meth:`repro.core.schedule.Schedule.validate`'s ``capacity``
        argument.
        """
        deltas: dict[float, int] = {}
        for f in self._failures:
            deltas[f.down_time] = deltas.get(f.down_time, 0) - f.nodes
            deltas[f.up_time] = deltas.get(f.up_time, 0) + f.nodes
        steps: list[tuple[float, int]] = []
        level = total_nodes
        for time in sorted(deltas):
            if deltas[time] == 0:
                continue
            level += deltas[time]
            steps.append((time, level))
        return steps

    def validate_for(self, total_nodes: int) -> None:
        """Raise ``ValueError`` if the trace can down more nodes than exist."""
        peak = self.max_concurrent_down()
        if peak > total_nodes:
            raise ValueError(
                f"failure trace downs up to {peak} concurrent nodes on a "
                f"{total_nodes}-node machine"
            )

    def fingerprint(self) -> str:
        """Deterministic content digest (experiment-engine cache keys)."""
        hasher = hashlib.sha256()
        for f in self._failures:
            hasher.update(f"{f.down_time!r},{f.up_time!r},{f.nodes}\n".encode("ascii"))
        return hasher.hexdigest()


def mtbf_trace(
    *,
    total_nodes: int,
    horizon: float,
    mtbf: float,
    mttr: float,
    seed: int = 0,
    max_nodes_per_failure: int = 1,
    max_down_fraction: float = 0.5,
) -> FailureTrace:
    """Sample a failure trace from per-node MTBF / MTTR statistics.

    Failure arrivals follow a Poisson process at rate ``total_nodes /
    mtbf`` over ``[0, horizon)``; each failure takes ``1 ..
    max_nodes_per_failure`` nodes (uniform) down for an exponential
    duration of mean ``mttr``.  Draws that would push the concurrently-down
    count above ``max_down_fraction * total_nodes`` are skipped, so the
    machine never loses more than that share of its capacity — mirroring a
    site that escalates to emergency maintenance rather than letting the
    whole system rot.  Fully deterministic for a given ``seed``.
    """
    if total_nodes <= 0:
        raise ValueError(f"total_nodes must be positive, got {total_nodes}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if mtbf <= 0 or mttr <= 0:
        raise ValueError("mtbf and mttr must be positive")
    if not 1 <= max_nodes_per_failure <= total_nodes:
        raise ValueError("max_nodes_per_failure must be in [1, total_nodes]")
    if not 0.0 < max_down_fraction <= 1.0:
        raise ValueError("max_down_fraction must be in (0, 1]")

    rng = random.Random(seed)
    rate = total_nodes / mtbf
    cap = max(1, int(max_down_fraction * total_nodes))
    failures: list[NodeFailure] = []
    # Repairs pending, as an (up_time, nodes) heap, and the nodes they hold
    # down — the concurrency cap's input, kept incrementally.
    active: list[tuple[float, int]] = []
    down = 0
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            break
        nodes = rng.randint(1, max_nodes_per_failure)
        while active and active[0][0] <= t:
            down -= heapq.heappop(active)[1]
        if down + nodes > cap:
            continue  # skip: the site would not tolerate a deeper outage
        repair = rng.expovariate(1.0 / mttr)
        failure = NodeFailure(down_time=t, up_time=t + repair, nodes=nodes)
        failures.append(failure)
        heapq.heappush(active, (failure.up_time, nodes))
        down += nodes
    return FailureTrace(failures)
