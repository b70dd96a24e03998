"""Greedy set-cover primitives used by the MaxAv placement policy.

The paper models replica selection for maximum availability as a set-cover
instance (§III-A): the universe is the union of the friends' online times
(or their activity instants, for the on-demand-activity variant) and each
friend's schedule is a candidate subset.  Optimal cover is NP-hard, so the
paper — and this module — uses the standard greedy rule: at each step take
the candidate adding the most uncovered mass.

Two universe flavours are supported:

* :class:`IntervalUniverse` — continuous time mass (seconds of the day);
* :class:`PointUniverse` — discrete instants (activity timestamps).

Both expose ``gain(candidate_schedule)`` and ``commit(candidate_schedule)``
so a selection loop can interleave cover bookkeeping with its own
constraints (ConRep's connectivity filter).

The MaxAv time objective's universe is, by construction, the union of
the candidates' schedules: :meth:`IntervalUniverse.over` builds it from
those member schedules, and its ``gain``/``commit`` then take each
member as it is instead of first intersecting it with the universe.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.timeline.day import time_of_day
from repro.timeline.intervals import IntervalSet


class IntervalUniverse:
    """Set-cover state over continuous daily time.

    The covered set is kept a subset of the universe (intersected at
    construction, unioned with ``s ∩ universe`` on commit), so a gain is
    the part of ``s ∩ universe`` that ``covered`` does not hold yet.

    A universe built by :meth:`over` skips the ``s ∩ universe`` step of
    ``gain`` and ``commit``.  For a member ``s`` that intersection is the
    identity, bit for bit: each of ``s``'s intervals lies inside one
    merged universe interval, so the merge scan emits exactly ``s``'s
    pairs, and the intersection's measure sums the same differences in
    the same order as ``s``'s own.
    """

    def __init__(self, universe: IntervalSet, covered: IntervalSet = None):
        self._universe = universe
        #: Whether gain/commit intersect a schedule with the universe
        #: first (``False`` only for :meth:`over` universes).
        self._clip = True
        self._covered = (
            covered.intersection(universe)
            if covered is not None
            else IntervalSet.empty()
        )

    @classmethod
    def over(
        cls, members: Iterable[IntervalSet], covered: IntervalSet = None
    ) -> "IntervalUniverse":
        """The universe ``union_all(members)``, whose ``gain`` and
        ``commit`` accept only schedules inside it — any member, or a
        union of members — and take them without the intersection."""
        universe = cls(IntervalSet.union_all(members), covered)
        universe._clip = False
        return universe

    @property
    def covered_measure(self) -> float:
        return self._covered.measure

    @property
    def total_measure(self) -> float:
        return self._universe.measure

    @property
    def remaining_measure(self) -> float:
        return self._universe.measure - self._covered.measure

    def gain(self, schedule: IntervalSet) -> float:
        """Uncovered universe mass that ``schedule`` would add."""
        if self._clip:
            schedule = schedule.intersection(self._universe)
        return schedule.coverage_added(self._covered)

    def commit(self, schedule: IntervalSet) -> None:
        """Mark ``schedule``'s portion of the universe as covered."""
        add = schedule.intersection(self._universe) if self._clip else schedule
        self._covered = self._covered.union(add)


class PointUniverse:
    """Set-cover state over discrete instants (projected onto the day);
    gains are integer counts of the still-uncovered instants."""

    def __init__(self, instants: Iterable[float], covered: IntervalSet = None):
        all_points = [time_of_day(t) for t in instants]
        self._total = len(all_points)
        if covered is not None:
            self._points: List[float] = [
                p for p in all_points if not covered.contains(p)
            ]
        else:
            self._points = all_points

    @property
    def covered_measure(self) -> float:
        return self._total - len(self._points)

    @property
    def total_measure(self) -> float:
        return self._total

    @property
    def remaining_measure(self) -> float:
        return len(self._points)

    def gain(self, schedule: IntervalSet) -> float:
        return sum(1 for p in self._points if schedule.contains(p))

    def commit(self, schedule: IntervalSet) -> None:
        self._points = [p for p in self._points if not schedule.contains(p)]


def greedy_cover(
    universe,
    candidates: Dict[Hashable, IntervalSet],
    *,
    max_picks: Optional[int] = None,
) -> Tuple[Hashable, ...]:
    """Unconstrained greedy set cover.

    Repeatedly picks the candidate with the largest gain (ties broken by
    candidate key, for determinism) until the universe is covered, gains
    vanish, or ``max_picks`` choices were made.  Returns keys in selection
    order.  The constrained (ConRep) variant lives in the placement policy,
    which drives the same ``gain``/``commit`` interface directly.

    The candidate keys are sorted once up front; each round scans that
    fixed order and skips keys already picked.  Scanning ascending keys
    with a strict ``>`` comparison picks the smallest key among the
    maximal gains — exactly the tie-break the old per-round
    ``sorted(remaining)`` produced, so selection order is unchanged.
    """
    remaining = dict(candidates)
    order = sorted(remaining)
    picked: List[Hashable] = []
    limit = len(remaining) if max_picks is None else max_picks
    while remaining and len(picked) < limit:
        best_key = None
        best_gain = 0.0
        for key in order:
            schedule = remaining.get(key)
            if schedule is None:
                continue  # already picked in an earlier round
            g = universe.gain(schedule)
            if g > best_gain:
                best_gain = g
                best_key = key
        if best_key is None:
            break  # nothing improves coverage
        universe.commit(remaining.pop(best_key))
        picked.append(best_key)
    return tuple(picked)
