"""Hybrid placement: MostActive's ranking, MaxAv's usefulness filter.

An extension beyond the paper's three policies, motivated directly by its
discussion (§V-C): MostActive is "computationally simpler and does not
require knowledge of the user online times", but it can waste replicas on
active friends whose online time adds nothing; MaxAv maximises coverage
but needs full schedule knowledge and picks low-overlap replicas that
inflate the propagation delay.

The hybrid keeps MostActive's local, history-based ranking and adds the
one bit of schedule information a client can cheaply estimate: whether a
candidate would add *any* new coverage.  At each step it takes the
most-active (ConRep-admissible) candidate whose schedule still adds
coverage, skipping useless picks; when no ranked candidate adds coverage,
it stops — so it never exceeds MaxAv's replica count for the same
coverage reason.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.placement.base import (
    CONREP,
    ConnectivityTracker,
    PlacementContext,
    PlacementPolicy,
)
from repro.core.placement.most_active import MostActivePlacement
from repro.core.setcover import IntervalUniverse
from repro.graph.social_graph import UserId


class HybridPlacement(PlacementPolicy):
    """Most-active-first selection, filtered by positive coverage gain."""

    name = "hybrid"

    def __init__(self, window: Tuple[float, float] = None):
        self._ranker = MostActivePlacement(window=window)

    def cache_key(self) -> Tuple[object, ...]:
        # Delegate to the ranker's key: the window rides along with it.
        return super().cache_key() + (self._ranker.cache_key(),)

    def picks(self, ctx: PlacementContext) -> Iterator[UserId]:
        pool = self._ranker.ranking(ctx)
        own = ctx.schedule_of(ctx.user)
        universe = IntervalUniverse.over(
            [ctx.schedule_of(c) for c in ctx.candidates] + [own],
            covered=own,
        )
        tracker = ConnectivityTracker(ctx) if ctx.mode == CONREP else None
        while pool:
            pick = None
            for candidate in pool:
                if tracker is not None and not tracker.is_connected(candidate):
                    continue
                if universe.gain(ctx.schedule_of(candidate)) > 0:
                    pick = candidate
                    break
            if pick is None:
                return  # nothing admissible adds coverage
            pool.remove(pick)
            universe.commit(ctx.schedule_of(pick))
            if tracker is not None:
                tracker.admit(pick)
            yield pick
