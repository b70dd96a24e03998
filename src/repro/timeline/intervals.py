"""Exact interval-set algebra on the periodic day.

An :class:`IntervalSet` is an immutable set of half-open intervals
``[start, end)`` with ``0 <= start < end <= DAY_SECONDS``, kept sorted,
disjoint and merged (touching intervals are coalesced).  It models one
user's daily online schedule, the union of a replica group's schedules,
the coverage universe of the MaxAv set-cover instance, and so on.

The day is *periodic*: ``contains``/``wait_until`` treat the timeline as a
circle, and raw input intervals whose ``start > end`` are interpreted as
wrapping past midnight and split at the boundary.  Durations (``measure``,
``overlap``) are plain within-day quantities.

Everything is exact arithmetic on the endpoint values supplied (ints stay
ints); there is no discretisation grid, which lets the Sporadic
session-length sweep go down to 100-second sessions without loss.

The scans behind ``overlap``, ``overlaps``, ``intersection`` and
``union``/``union_all`` are the hot loops of every metric, so they are
written as tight local-variable loops under one exactness rule, which
keeps every float and every int/float endpoint type fixed:

* each kernel emits the same pieces, in the same time order, and
  accumulates an overlap with the same ``+=`` sequence;
* a conditional expression stands in for ``min``/``max`` and picks the
  same object on ties — the first argument, as the builtins do;
* a set's ``measure`` is the builtin ``sum`` over its interval tuple
  (Python 3.12's float ``sum`` is compensated and 3.11's is not, so a
  hand-rolled loop would change the floats on one of them).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, List, Tuple

from repro.timeline.day import DAY_SECONDS

Pair = Tuple[float, float]


def _normalise(pairs: Iterable[Pair], wrap: bool) -> Tuple[Pair, ...]:
    """Sort, clip to the day, split wrapping intervals, and merge."""
    flat: List[Pair] = []
    for start, end in pairs:
        if start == end:
            continue
        if wrap:
            # An interval of a full day or more covers everything.
            if end > start and end - start >= DAY_SECONDS:
                return ((0, DAY_SECONDS),)
            start %= DAY_SECONDS
            end %= DAY_SECONDS
            if end == 0:
                end = DAY_SECONDS
            if start < end:
                flat.append((start, end))
            else:  # wraps midnight
                flat.append((start, DAY_SECONDS))
                flat.append((0, end))
        else:
            if start < 0 or end > DAY_SECONDS or start > end:
                raise ValueError(
                    f"interval [{start}, {end}) outside [0, {DAY_SECONDS}]"
                )
            flat.append((start, end))
    return _coalesce(flat)


def _coalesce(flat: List[Pair]) -> Tuple[Pair, ...]:
    """Sort in-day pairs in place (a stable tuple sort) and merge the
    overlapping or touching ones."""
    if not flat:
        return ()
    flat.sort()
    merged: List[Pair] = []
    append = merged.append
    cur_start, cur_end = flat[0]
    for start, end in flat:
        if start <= cur_end:  # overlapping or touching: coalesce
            if end > cur_end:
                cur_end = end
        else:
            append((cur_start, cur_end))
            cur_start = start
            cur_end = end
    append((cur_start, cur_end))
    return tuple(merged)


def _from_canonical(intervals: Tuple[Pair, ...]) -> "IntervalSet":
    """Wrap an already canonical interval tuple, measured by builtin
    ``sum`` over it as every constructor does."""
    out = IntervalSet.__new__(IntervalSet)
    out._intervals = intervals
    out._measure = sum([end - start for start, end in intervals])
    out._hash = None
    return out


class IntervalSet:
    """An immutable union of half-open intervals on the periodic day.

    Instances are value objects: hashable, comparable by value, and safe to
    share.  Use the set operators (``|``, ``&``, ``-``, ``~``) or their
    named equivalents.

    Construction::

        IntervalSet([(3600, 7200)])            # online 01:00-02:00
        IntervalSet([(82800, 3600)])           # wraps midnight: 23:00-01:00
        IntervalSet.empty()
        IntervalSet.full_day()
        IntervalSet.union_all(schedules)       # k-way union
    """

    __slots__ = ("_intervals", "_measure", "_hash")

    def __init__(self, pairs: Iterable[Pair] = (), *, wrap: bool = True):
        self._intervals = _normalise(pairs, wrap)
        self._measure = sum(end - start for start, end in self._intervals)
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty schedule (a user that is never online)."""
        return _EMPTY

    @classmethod
    def full_day(cls) -> "IntervalSet":
        """The schedule covering the whole day."""
        return _FULL

    @classmethod
    def from_interval(cls, start: float, end: float) -> "IntervalSet":
        """A single interval, wrapping midnight when ``start > end``."""
        return cls([(start, end)])

    @classmethod
    def union_all(cls, sets: Iterable["IntervalSet"]) -> "IntervalSet":
        """Union of many sets (one pass over all endpoints).

        The inputs are canonical, so no pair needs wrapping or checking
        (:func:`_normalise`'s per-pair branch): one sort of all pairs and
        one coalescing pass produce the same intervals, endpoint objects
        included.
        """
        flat: List[Pair] = []
        for s in sets:
            flat += s._intervals
        return _from_canonical(_coalesce(flat))

    # -- basic introspection ----------------------------------------------

    @property
    def intervals(self) -> Tuple[Pair, ...]:
        """The canonical sorted, disjoint, merged intervals."""
        return self._intervals

    @property
    def measure(self) -> float:
        """Total covered duration in seconds (0..86400)."""
        return self._measure

    @property
    def is_empty(self) -> bool:
        return not self._intervals

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        # Computed lazily on first use: intermediate sets from the hot
        # algebra (intersection/complement/union_all) are rarely hashed.
        h = self._hash
        if h is None:
            h = self._hash = hash(self._intervals)
        return h

    def __repr__(self) -> str:
        body = ", ".join(f"[{s:g}, {e:g})" for s, e in self._intervals)
        return f"IntervalSet({body})"

    # -- point queries ------------------------------------------------------

    def contains(self, t: float) -> bool:
        """Whether instant ``t`` (any absolute time; projected onto the
        periodic day) is covered."""
        t %= DAY_SECONDS
        idx = bisect_right(self._intervals, (t, math.inf)) - 1
        if idx < 0:
            return False
        start, end = self._intervals[idx]
        return start <= t < end

    __contains__ = contains

    def wait_until(self, t: float) -> float:
        """Seconds from instant ``t`` until the set is next active.

        Returns ``0`` when ``t`` is already covered, and ``math.inf`` for
        the empty set.  The day is periodic, so the wait is always
        ``< DAY_SECONDS`` for a non-empty set.  O(log n) in the number of
        intervals: the bisection locating ``t`` also locates the next
        interval (the canonical form is sorted and disjoint, so the
        successor of the interval starting at or before ``t`` is the
        first one starting after it).
        """
        if not self._intervals:
            return math.inf
        t %= DAY_SECONDS
        idx = bisect_right(self._intervals, (t, math.inf)) - 1
        if idx >= 0 and t < self._intervals[idx][1]:
            return 0.0  # intervals[idx].start <= t by the bisection
        nxt = idx + 1
        if nxt < len(self._intervals):
            return self._intervals[nxt][0] - t
        # Wrap to the first interval of the next day.
        return DAY_SECONDS - t + self._intervals[0][0]

    def next_online(self, t: float) -> float:
        """Absolute time (``>= t``) at which the set is next active."""
        return t + self.wait_until(t)

    # -- set algebra ---------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other._intervals:
            return self
        if not self._intervals:
            return other
        return IntervalSet.union_all((self, other))

    __or__ = union

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._intervals, other._intervals
        na, nb = len(a), len(b)
        if not na or not nb:
            return _EMPTY
        pairs: List[Pair] = []
        append = pairs.append
        i = j = 0
        a_start, a_end = a[0]
        b_start, b_end = b[0]
        while True:
            start = b_start if b_start > a_start else a_start
            end = b_end if b_end < a_end else a_end
            if start < end:
                append((start, end))
            if a_end <= b_end:
                i += 1
                if i == na:
                    break
                a_start, a_end = a[i]
            else:
                j += 1
                if j == nb:
                    break
                b_start, b_end = b[j]
        return _from_canonical(tuple(pairs))

    __and__ = intersection

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    __sub__ = difference

    def complement(self) -> "IntervalSet":
        """The day minus this set."""
        pairs: List[Pair] = []
        cursor = 0.0
        for start, end in self._intervals:
            if start > cursor:
                pairs.append((cursor, start))
            cursor = end
        if cursor < DAY_SECONDS:
            pairs.append((cursor, DAY_SECONDS))
        out = IntervalSet.__new__(IntervalSet)
        out._intervals = tuple(pairs)
        out._measure = DAY_SECONDS - self._measure
        out._hash = None
        return out

    __invert__ = complement

    # -- measures -----------------------------------------------------------

    def overlap(self, other: "IntervalSet") -> float:
        """Duration of the intersection, in seconds, without materialising
        the intersection set (hot path of ConRep candidate filtering)."""
        total = 0.0
        a, b = self._intervals, other._intervals
        na, nb = len(a), len(b)
        if not na or not nb:
            return total
        i = j = 0
        a_start, a_end = a[0]
        b_start, b_end = b[0]
        while True:
            start = b_start if b_start > a_start else a_start
            end = b_end if b_end < a_end else a_end
            if start < end:
                total += end - start
            if a_end <= b_end:
                i += 1
                if i == na:
                    return total
                a_start, a_end = a[i]
            else:
                j += 1
                if j == nb:
                    return total
                b_start, b_end = b[j]

    def overlaps(self, other: "IntervalSet") -> bool:
        """Whether the two sets are *connected in time* (positive overlap)."""
        a, b = self._intervals, other._intervals
        na, nb = len(a), len(b)
        if not na or not nb:
            return False
        i = j = 0
        a_start, a_end = a[0]
        b_start, b_end = b[0]
        while True:
            # max(starts) < min(ends), given start < end on both sides.
            if a_start < b_end and b_start < a_end:
                return True
            if a_end <= b_end:
                i += 1
                if i == na:
                    return False
                a_start, a_end = a[i]
            else:
                j += 1
                if j == nb:
                    return False
                b_start, b_end = b[j]

    def coverage_added(self, covered: "IntervalSet") -> float:
        """How much of this set lies *outside* ``covered`` — the greedy
        set-cover gain of adding this schedule to an existing union."""
        return self._measure - self.overlap(covered)

    def measure_in_span(self, begin: float, end: float) -> float:
        """Covered duration within the absolute (multi-day) span
        ``[begin, end)``.

        The set is daily-periodic, so a span of ``k`` whole days contributes
        ``k * measure``; the partial days at the edges are computed exactly.
        Used for *observed* propagation delays, where a friend's offline
        time inside the propagation window must be excluded.
        """
        if end <= begin:
            return 0.0
        span = end - begin
        full_days, remainder = divmod(span, DAY_SECONDS)
        total = full_days * self._measure
        if remainder:
            lo = begin % DAY_SECONDS
            hi = lo + remainder
            # Direct clipped scan (no throwaway window IntervalSet).  The
            # partial day may wrap midnight; the wrapped part lies before
            # ``lo``, so accumulating it first reproduces the old merge
            # scan's time order — and thereby its floats — exactly.
            extra = 0.0
            if hi > DAY_SECONDS:
                extra = self._clipped_overlap(0.0, hi - DAY_SECONDS, extra)
                extra = self._clipped_overlap(lo, DAY_SECONDS, extra)
            else:
                extra = self._clipped_overlap(lo, hi, extra)
            total += extra
        return total

    def _clipped_overlap(self, lo: float, hi: float, total: float) -> float:
        """Accumulate the overlap with the single span ``[lo, hi)`` onto
        ``total``, contribution by contribution in time order (the same
        float operations the merge scan in :meth:`overlap` performs)."""
        intervals = self._intervals
        idx = bisect_right(intervals, (lo, math.inf)) - 1
        if idx < 0:
            idx = 0
        for i in range(idx, len(intervals)):
            a_start, a_end = intervals[i]
            if a_start >= hi:
                break
            start = max(a_start, lo)
            clipped = min(a_end, hi)
            if start < clipped:
                total += clipped - start
        return total

    # -- transforms -----------------------------------------------------------

    def shift(self, dt: float) -> "IntervalSet":
        """Rotate the schedule around the day by ``dt`` seconds."""
        dt %= DAY_SECONDS
        if dt == 0:
            return self
        return IntervalSet(
            [(start + dt, end + dt) for start, end in self._intervals]
        )

    def clip(self, start: float, end: float) -> "IntervalSet":
        """Intersection with the single interval ``[start, end)`` (which may
        wrap midnight)."""
        return self.intersection(IntervalSet.from_interval(start, end))


_EMPTY = IntervalSet(())
_FULL = IntervalSet([(0, DAY_SECONDS)], wrap=False)
