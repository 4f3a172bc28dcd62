"""Columnar result buffers and the exact NumPy objective kernels.

The simulator appends one row per finished schedule record to a
:class:`ResultColumns` (submit/start/end/area arrays, in completion
order), and :func:`average_response_time_columns` /
:func:`average_weighted_response_time_columns` reduce them with
``np.add.accumulate``.  The reductions equal the scalar loops of
:mod:`repro.metrics.objectives` *bit for bit*, so switching between them
can never change an objective or a cache fingerprint:

* IEEE-754 elementwise arithmetic (``+``, ``-``, ``*``) is identical
  between CPython floats and NumPy float64.
* ``np.add.accumulate`` is a strictly *sequential* left-to-right reduction
  (every prefix is materialised), so its final element equals Python's
  ``sum()`` bit for bit.  ``np.sum`` is **not** usable here: its pairwise
  summation re-associates additions and would change objectives in the last
  bits, silently invalidating every cached cell.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.schedule import Schedule, ScheduledJob

__all__ = [
    "ResultColumns",
    "average_response_time_columns",
    "average_weighted_response_time_columns",
    "exact_sum",
    "resolve_backend",
]


def resolve_backend(backend: None = None) -> str:
    """Name of the simulator's one event loop: always ``"python"``.

    The simulator once selected between a python and a numpy path; this
    stand-in keeps that query answerable for scripts that report it.  It
    reads no environment variable.
    """
    return "python"


class ResultColumns:
    """Schedule records as parallel numeric columns, in completion order.

    The simulator appends one row per finished record exactly where it
    appends the :class:`~repro.core.schedule.ScheduledJob`, so row ``i``
    of the columns and item ``i`` of the schedule describe the same
    record — which is what makes the column reductions below equal the
    scalar objective loops term for term.  ``area`` stores ``job.area``
    (``nodes * runtime``) computed in Python at append time, the default
    AWRT weight.
    """

    __slots__ = ("submit", "start", "end", "area")

    def __init__(self) -> None:
        self.submit = array("d")
        self.start = array("d")
        self.end = array("d")
        self.area = array("d")

    def __len__(self) -> int:
        return len(self.end)

    def append(self, item: "ScheduledJob") -> None:
        job = item.job
        self.submit.append(job.submit_time)
        self.start.append(item.start_time)
        self.end.append(item.end_time)
        self.area.append(job.area)

    @classmethod
    def from_schedule(cls, schedule: "Schedule | Iterable[ScheduledJob]") -> "ResultColumns":
        """Columns of an already-built schedule."""
        cols = cls()
        for item in schedule:
            cols.append(item)
        return cols

    def views(self) -> dict[str, Any]:
        """Zero-copy ``float64`` views of the columns."""
        return {
            name: np.frombuffer(getattr(self, name), dtype=np.float64)
            for name in self.__slots__
        }


def exact_sum(values: Any) -> float:
    """Left-to-right IEEE sum of a float64 array — Python ``sum()`` bits.

    Implemented as the last element of ``np.add.accumulate``, which is a
    strictly sequential reduction; ``np.sum``'s pairwise re-association
    would differ in the final ulps and is banned from every objective.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.accumulate(values)[-1])


def average_response_time_columns(columns: ResultColumns) -> float:
    """ART over columns; equals ``objectives.average_response_time`` exactly."""
    n = len(columns)
    if n == 0:
        return 0.0
    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    return exact_sum(end - submit) / n


def average_weighted_response_time_columns(columns: ResultColumns) -> float:
    """AWRT (area weights) over columns; equals the scalar loop exactly."""
    n = len(columns)
    if n == 0:
        return 0.0
    end = np.frombuffer(columns.end, dtype=np.float64)
    submit = np.frombuffer(columns.submit, dtype=np.float64)
    area = np.frombuffer(columns.area, dtype=np.float64)
    return exact_sum((end - submit) * area) / n
