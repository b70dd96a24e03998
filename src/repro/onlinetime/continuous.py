"""Continuous online-time models (paper §IV-C2, §IV-C3).

``FixedLength``: every user is online during one continuous daily window
of a fixed length (the paper uses 2, 4, 6 and 8 hours), positioned
"centered around the majority of their activity times".

``RandomLength``: identical, except each user draws his own window length
uniformly from [2, 8] hours.

Window placement is the circular max-coverage problem: among all windows
of the given length on the periodic day, pick the one covering the largest
number of the user's created-activity instants (earliest window on ties,
for determinism).  That is the literal reading of "the majority of their
activity times"; the window is then reported by its position, which also
fixes its centre.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel, user_rng
from repro.timeline.day import DAY_SECONDS, HOUR_SECONDS
from repro.timeline.intervals import IntervalSet

#: Window lengths the paper evaluates for FixedLength.
FIXED_LENGTH_CHOICES_HOURS = (2, 4, 6, 8)

#: RandomLength draws per-user lengths uniformly from this range (hours).
RANDOM_LENGTH_RANGE_HOURS = (2.0, 8.0)

#: Fallback window start for a user with no recorded activity: an evening
#: window (the population's peak region).  Filtered datasets guarantee
#: >= 10 activities per user, so this only matters for hand-built inputs.
_FALLBACK_CENTER = 20 * HOUR_SECONDS


def best_window_start(instants: Sequence[float], length: float) -> float:
    """Start of the window of ``length`` seconds covering the most instants.

    Instants are seconds-of-day; the day is circular.  Scores the
    candidate windows anchored at each instant (some optimal window can
    always be shifted left until its start hits an instant), counting
    each window's instants with one bisection of the unrolled circle.
    Ties resolve to the earliest anchored window; an empty instant list
    yields a window centred on the evening fallback.
    """
    if not instants:
        return (_FALLBACK_CENTER - length / 2) % DAY_SECONDS
    points = sorted(x % DAY_SECONDS for x in instants)
    n = len(points)
    # Unroll the circle: a window starting at points[i] covers points in
    # [points[i], points[i] + length], where indices j >= n wrap by +DAY.
    # ``extended`` is sorted, so the covered indices run from i up to the
    # bisection point of the window's end, capped at one full turn.
    extended = points + [p + DAY_SECONDS for p in points]
    best_start, best_count = points[0], 0
    for i, start in enumerate(points):
        count = bisect_right(extended, start + length, i, i + n) - i
        if count > best_count:
            best_count = count
            best_start = start
    return best_start


def _window_schedule(user: UserId, dataset: Dataset, length: float) -> IntervalSet:
    """The daily window of ``length`` seconds covering the most of
    ``user``'s created activities (the whole day from one day up)."""
    if length >= DAY_SECONDS:
        return IntervalSet.full_day()
    # ``timestamp % DAY_SECONDS`` is ``Activity.second_of_day`` without
    # the property call.
    instants = [
        act.timestamp % DAY_SECONDS for act in dataset.trace.created_by(user)
    ]
    start = best_window_start(instants, length)
    return IntervalSet.from_interval(start, start + length)


class FixedLengthModel(OnlineTimeModel):
    """One continuous daily window of a fixed length for every user."""

    def __init__(self, hours: float = 8.0):
        if not 0 < hours <= 24:
            raise ValueError("hours must be in (0, 24]")
        self.hours = hours
        self.name = f"fixedlength-{hours:g}h"

    def schedule(self, user: UserId, dataset: Dataset, seed: int) -> IntervalSet:
        return _window_schedule(user, dataset, self.hours * HOUR_SECONDS)

    def describe(self) -> str:
        return f"fixedlength({self.hours:g}h)"


class RandomLengthModel(OnlineTimeModel):
    """Per-user window length drawn uniformly from [2, 8] hours."""

    def __init__(
        self,
        min_hours: float = RANDOM_LENGTH_RANGE_HOURS[0],
        max_hours: float = RANDOM_LENGTH_RANGE_HOURS[1],
    ):
        if not 0 < min_hours <= max_hours <= 24:
            raise ValueError("need 0 < min_hours <= max_hours <= 24")
        self.min_hours = min_hours
        self.max_hours = max_hours
        self.name = "randomlength"

    def schedule(self, user: UserId, dataset: Dataset, seed: int) -> IntervalSet:
        rng = user_rng(seed, user)
        hours = rng.uniform(self.min_hours, self.max_hours)
        return _window_schedule(user, dataset, hours * HOUR_SECONDS)

    def describe(self) -> str:
        return f"randomlength([{self.min_hours:g}, {self.max_hours:g}]h)"
