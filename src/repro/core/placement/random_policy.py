"""Random: uniformly random friends host replicas (paper §III-C).

The naïve baseline.  Under UnconRep a uniform ``k``-subset of the
candidates is drawn; under ConRep the pick at each step is uniform over
the candidates currently connected in time to the group, stopping when
none remains.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.core.placement.base import (
    CONREP,
    ConnectivityTracker,
    PlacementContext,
    PlacementPolicy,
)
from repro.graph.social_graph import UserId


class RandomPlacement(PlacementPolicy):
    """Uniformly random replica selection."""

    name = "random"

    def picks(self, ctx: PlacementContext) -> Iterator[UserId]:
        pool: List[UserId] = list(ctx.candidates)
        if ctx.mode != CONREP:
            ctx.rng.shuffle(pool)
            yield from pool
            return
        tracker = ConnectivityTracker(ctx)
        while pool:
            connected = tracker.filter_connected(pool)
            if not connected:
                return
            pick = ctx.rng.choice(connected)
            pool.remove(pick)
            tracker.admit(pick)
            yield pick
