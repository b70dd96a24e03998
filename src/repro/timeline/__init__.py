"""Periodic-day timeline algebra.

This subpackage provides the exact interval arithmetic that every metric in
the study is built on: daily online schedules are
:class:`~repro.timeline.intervals.IntervalSet` values on the periodic
``[0, 86 400)``-second day.
"""

from repro.timeline.day import (
    DAY_HOURS,
    DAY_MINUTES,
    DAY_SECONDS,
    HOUR_SECONDS,
    MINUTE_SECONDS,
    format_clock,
    hours_to_seconds,
    seconds_to_hours,
    time_of_day,
)
from repro.timeline.intervals import IntervalSet
from repro.timeline.minutegrid import MinuteGrid, availability_matrix
from repro.timeline.packed import PackedSchedules

__all__ = [
    "DAY_HOURS",
    "DAY_MINUTES",
    "DAY_SECONDS",
    "HOUR_SECONDS",
    "MINUTE_SECONDS",
    "IntervalSet",
    "MinuteGrid",
    "PackedSchedules",
    "availability_matrix",
    "format_clock",
    "hours_to_seconds",
    "seconds_to_hours",
    "time_of_day",
]
