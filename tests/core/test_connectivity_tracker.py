"""The ConRep connectivity memo against a brute-force scan.

:class:`ConnectivityTracker` remembers connected candidates and, for the
others, how many members they were checked against.  After every
``admit`` its answer for any candidate — queried before, after, or
repeatedly around the moment it becomes connected — must equal
``any(overlaps(candidate, member))`` over all current members, with and
without an overlap cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CONREP, OverlapCache, PlacementContext
from repro.core.placement import ConnectivityTracker
from repro.datasets import ActivityTrace, Dataset
from repro.graph import SocialGraph
from repro.timeline import DAY_SECONDS, IntervalSet

_NUM_FRIENDS = 9


@st.composite
def tracker_instances(draw):
    """A star graph, random schedules, an admit order and query rounds."""
    g = SocialGraph()
    for f in range(1, _NUM_FRIENDS + 1):
        g.add_edge(0, f)
    dataset = Dataset("t", "facebook", g, ActivityTrace([]))
    integral = draw(st.booleans())
    schedules = {}
    for u in range(_NUM_FRIENDS + 1):
        pairs = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            start = draw(st.integers(min_value=0, max_value=DAY_SECONDS - 2))
            length = draw(st.integers(min_value=1, max_value=6 * 3600))
            if not integral:
                start += draw(st.floats(0.0, 1.0, exclude_max=True))
            pairs.append((start, min(start + length, DAY_SECONDS)))
        schedules[u] = IntervalSet(pairs, wrap=False)
    friends = list(range(1, _NUM_FRIENDS + 1))
    order = draw(st.permutations(friends))
    admitted = order[: draw(st.integers(min_value=0, max_value=len(order)))]
    queries = [
        draw(st.lists(st.sampled_from(friends), max_size=2 * _NUM_FRIENDS))
        for _ in range(len(admitted) + 1)
    ]
    return dataset, schedules, admitted, queries


def _brute(schedules, members, candidate) -> bool:
    sched = schedules[candidate]
    return any(sched.overlaps(schedules[m]) for m in members)


@settings(max_examples=150, deadline=None)
@given(
    instance=tracker_instances(),
    cached=st.booleans(),
)
def test_is_connected_equals_brute_force_after_every_admit(instance, cached):
    dataset, schedules, admitted, queries = instance
    overlap_cache = OverlapCache(schedules) if cached else None
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=CONREP,
        overlap_cache=overlap_cache,
    )
    tracker = ConnectivityTracker(ctx)
    members = [0]
    for step, round_queries in enumerate(queries):
        # Every candidate each round, plus the drawn (repeated) queries.
        for c in list(range(1, _NUM_FRIENDS + 1)) + round_queries:
            assert tracker.is_connected(c) == _brute(schedules, members, c)
        assert tracker.filter_connected(round_queries) == [
            c for c in round_queries if _brute(schedules, members, c)
        ]
        if step < len(admitted):
            tracker.admit(admitted[step])
            members.append(admitted[step])


def test_late_connection_is_found_after_an_unconnected_query():
    # 2 overlaps only member 1; it is queried (unconnected) before 1 is
    # admitted, so the memo must scan the new member on the next query.
    g = SocialGraph()
    for f in (1, 2):
        g.add_edge(0, f)
    schedules = {
        0: IntervalSet([(0, 3600)], wrap=False),
        1: IntervalSet([(1800, 7200)], wrap=False),
        2: IntervalSet([(5400, 9000)], wrap=False),
    }
    ctx = PlacementContext(
        dataset=Dataset("t", "facebook", g, ActivityTrace([])),
        schedules=schedules,
        user=0,
    )
    tracker = ConnectivityTracker(ctx)
    assert not tracker.is_connected(2)
    assert tracker.is_connected(1)
    tracker.admit(1)
    assert tracker.is_connected(2)
    assert tracker.is_connected(2)
