"""MostActive: the top-k most interactive friends host replicas (§III-B).

"The top-k most active friends, where the activity is measured as the
number of times interaction happened between the user and his friend in a
pre-defined time frame in the past, are chosen as replicas.  In case there
are no sufficient number of friends with non-zero activity, random friends
are chosen."

The ranking signal is how many activities each candidate created on the
user's profile (the paper's reading for both datasets: the friend "who
created most of a user's received activity").  Zero-activity candidates
are appended in random order to fill the quota.  Under ConRep the
best-ranked *connected* candidate is taken at each step.

The attraction of this policy (paper §V-C) is that it needs no knowledge
of online times — the ranking is computable locally from history — yet it
tends to maximise availability-on-demand as a side effect.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.core.placement.base import (
    CONREP,
    ConnectivityTracker,
    PlacementContext,
    PlacementPolicy,
)
from repro.graph.social_graph import UserId


class MostActivePlacement(PlacementPolicy):
    """Rank candidates by interactions created on the user's profile."""

    name = "mostactive"

    def __init__(self, window: Tuple[float, float] = None):
        #: Optional (begin, end) restriction of the history used for
        #: ranking — the paper's "pre-defined time frame in the past".
        self.window = window

    def cache_key(self) -> Tuple[object, ...]:
        # The window changes the ranking, so it must change the key.
        return super().cache_key() + (self.window,)

    def ranking(self, ctx: PlacementContext) -> List[UserId]:
        """All candidates, best first: by interaction count descending
        (ties by id), then zero-activity candidates shuffled."""
        trace = ctx.dataset.trace
        if self.window is not None:
            trace = trace.window(*self.window)
        counts = trace.interaction_counts(ctx.user)
        active = [c for c in ctx.candidates if counts.get(c, 0) > 0]
        inactive = [c for c in ctx.candidates if counts.get(c, 0) == 0]
        active.sort(key=lambda c: (-counts[c], c))
        ctx.rng.shuffle(inactive)
        return active + inactive

    def picks(self, ctx: PlacementContext) -> Iterator[UserId]:
        pool = self.ranking(ctx)
        if ctx.mode != CONREP:
            yield from pool
            return
        tracker = ConnectivityTracker(ctx)
        while pool:
            pick = next((c for c in pool if tracker.is_connected(c)), None)
            if pick is None:
                return
            pool.remove(pick)
            tracker.admit(pick)
            yield pick
