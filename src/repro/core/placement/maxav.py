"""MaxAv: availability-maximising greedy set-cover placement (paper §III-A).

The maximum availability achievable for a user in an F2F system is the
union of his friends' online times; MaxAv greedily picks the friends that
cover the most of that union.  Two objectives:

* ``time`` (default) — the universe is the union of the candidates'
  schedules, targeting availability / availability-on-demand-time;
* ``activity`` — the universe is the set of activity instants on the
  user's profile in the trace window, targeting
  availability-on-demand-activity.

Under ConRep, each greedy step only considers candidates connected in time
to the already-chosen group (owner-seeded); selection stops as soon as no
admissible candidate improves coverage.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.placement.base import (
    CONREP,
    ConnectivityTracker,
    PlacementContext,
    PlacementPolicy,
)
from repro.core.setcover import IntervalUniverse, PointUniverse
from repro.graph.social_graph import UserId
from repro.timeline.intervals import IntervalSet

_OBJECTIVES = ("time", "activity")


class MaxAvPlacement(PlacementPolicy):
    """Greedy set-cover placement."""

    def __init__(self, objective: str = "time"):
        if objective not in _OBJECTIVES:
            raise ValueError(
                f"objective must be one of {_OBJECTIVES}, got {objective!r}"
            )
        self.objective = objective
        self.name = "maxav" if objective == "time" else "maxav-activity"

    def _universe(self, ctx: PlacementContext):
        """Build the set-cover universe, pre-covered by the owner himself.

        The owner always hosts his profile, so time (or instants) he covers
        personally adds no gain to any candidate.
        """
        own = ctx.schedule_of(ctx.user)
        if self.objective == "time":
            return IntervalUniverse.over(
                [ctx.schedule_of(c) for c in ctx.candidates] + [own],
                covered=own,
            )
        instants = [
            act.second_of_day for act in ctx.dataset.trace.received_by(ctx.user)
        ]
        return PointUniverse(instants, covered=own)

    def select(self, ctx: PlacementContext, k: int) -> Tuple[UserId, ...]:
        self._check_k(k)
        if k == 0:
            return ()
        universe = self._universe(ctx)
        tracker = ConnectivityTracker(ctx) if ctx.mode == CONREP else None
        # ctx.candidates is already sorted; scanning that fixed order with a
        # strict ``>`` reproduces the per-round sorted() tie-break exactly.
        order = ctx.candidates
        remaining: Dict[UserId, IntervalSet] = {
            c: ctx.schedule_of(c) for c in order
        }
        chosen: List[UserId] = []
        while remaining and len(chosen) < k:
            best_key = None
            best_gain = 0.0
            for key in order:
                schedule = remaining.get(key)
                if schedule is None:
                    continue  # already chosen in an earlier round
                if tracker is not None and not tracker.is_connected(key):
                    continue
                gain = universe.gain(schedule)
                if gain > best_gain:
                    best_gain = gain
                    best_key = key
            if best_key is None:
                break  # no admissible candidate improves coverage
            schedule = remaining.pop(best_key)
            universe.commit(schedule)
            if tracker is not None:
                tracker.admit(best_key)
            chosen.append(best_key)
        return tuple(chosen)
