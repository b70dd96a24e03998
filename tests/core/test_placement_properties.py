"""Property-based invariants of placement and metric computation.

These are the contracts the evaluation pipeline silently relies on:
selections are valid subsets, ConRep groups are genuinely time-connected,
coverage is monotone in the allowed degree, the metric values respect
their definitional bounds, and a pick stream resumed in any increments
is the selection a fresh context makes at every degree (the query plane
keeps streams suspended between requests on that contract).
"""

import random
from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONREP,
    ReplicaGroup,
    UNCONREP,
    evaluate_user,
    is_connected,
    make_policy,
    PlacementContext,
)
from repro.core.connectivity import OverlapCache
from repro.datasets import Activity, ActivityTrace, Dataset
from repro.graph import SocialGraph
from repro.seeding import derive_rng
from repro.timeline import DAY_SECONDS, IntervalSet

_NUM_FRIENDS = 8


@st.composite
def placement_instances(draw):
    """A star dataset, random schedules, and some profile activity."""
    g = SocialGraph()
    for f in range(1, _NUM_FRIENDS + 1):
        g.add_edge(0, f)
    acts = []
    n_acts = draw(st.integers(min_value=0, max_value=12))
    for _ in range(n_acts):
        acts.append(
            Activity(
                timestamp=draw(
                    st.integers(min_value=0, max_value=DAY_SECONDS - 1)
                ),
                creator=draw(st.integers(min_value=1, max_value=_NUM_FRIENDS)),
                receiver=0,
            )
        )
    dataset = Dataset("t", "facebook", g, ActivityTrace(acts))

    schedules = {}
    for u in range(_NUM_FRIENDS + 1):
        # 0-2 random intervals per user; empty schedules allowed.
        n = draw(st.integers(min_value=0, max_value=2))
        pairs = []
        for _ in range(n):
            start = draw(st.integers(min_value=0, max_value=DAY_SECONDS - 2))
            length = draw(st.integers(min_value=1, max_value=8 * 3600))
            pairs.append((start, min(start + length, DAY_SECONDS)))
        schedules[u] = IntervalSet(pairs, wrap=False)
    return dataset, schedules


@settings(max_examples=40, deadline=None)
@given(
    instance=placement_instances(),
    policy_name=st.sampled_from(["maxav", "mostactive", "random"]),
    mode=st.sampled_from([CONREP, UNCONREP]),
    k=st.integers(min_value=0, max_value=_NUM_FRIENDS + 2),
    seed=st.integers(min_value=0, max_value=100),
)
def test_selection_is_valid_subset(instance, policy_name, mode, k, seed):
    dataset, schedules = instance
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=mode,
        rng=random.Random(seed),
    )
    selection = make_policy(policy_name).select(ctx, k)
    assert len(selection) <= k
    assert len(set(selection)) == len(selection)  # no duplicates
    assert set(selection) <= set(dataset.replica_candidates(0))
    assert 0 not in selection  # owner never selects himself


@settings(max_examples=40, deadline=None)
@given(
    instance=placement_instances(),
    policy_name=st.sampled_from(["maxav", "mostactive", "random"]),
    k=st.integers(min_value=0, max_value=_NUM_FRIENDS),
    seed=st.integers(min_value=0, max_value=100),
)
def test_conrep_group_is_connected(instance, policy_name, k, seed):
    """Whatever a policy selects under ConRep must form a time-connected
    group seeded at the owner — unless the owner is never online, in which
    case nothing can be selected at all."""
    dataset, schedules = instance
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=CONREP,
        rng=random.Random(seed),
    )
    selection = make_policy(policy_name).select(ctx, k)
    if schedules[0].is_empty:
        assert selection == ()
        return
    group = ReplicaGroup(
        owner=0,
        replicas=selection,
        schedules={m: schedules[m] for m in (0,) + selection},
    )
    assert is_connected(group)


@settings(max_examples=30, deadline=None)
@given(
    instance=placement_instances(),
    policy_name=st.sampled_from(["maxav", "mostactive", "random"]),
    mode=st.sampled_from([CONREP, UNCONREP]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_availability_monotone_in_allowed_degree(
    instance, policy_name, mode, seed
):
    dataset, schedules = instance
    policy = make_policy(policy_name)
    prev = -1.0
    for k in range(_NUM_FRIENDS + 1):
        ctx = PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=0,
            mode=mode,
            rng=random.Random(seed),
        )
        selection = policy.select(ctx, k)
        m = evaluate_user(dataset, schedules, 0, selection, mode=mode)
        assert m.availability >= prev - 1e-12
        prev = m.availability


@settings(max_examples=40, deadline=None)
@given(
    instance=placement_instances(),
    k=st.integers(min_value=0, max_value=_NUM_FRIENDS),
    seed=st.integers(min_value=0, max_value=100),
)
def test_metric_bounds(instance, k, seed):
    dataset, schedules = instance
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=UNCONREP,
        rng=random.Random(seed),
    )
    selection = make_policy("random").select(ctx, k)
    m = evaluate_user(dataset, schedules, 0, selection, mode=UNCONREP)
    assert 0.0 <= m.availability <= 1.0
    assert 0.0 <= m.aod_time <= 1.0 + 1e-12
    assert 0.0 <= m.aod_activity <= 1.0
    assert 0.0 <= m.expected_activity_fraction <= 1.0
    # Availability can never exceed the F2F ceiling (owner + all friends).
    assert m.availability <= m.max_achievable_availability + 1e-12
    # Observed delay never exceeds the actual delay.
    assert m.delay_hours_observed <= m.delay_hours_actual + 1e-12
    assert m.replication_degree == len(selection)


#: Every registered policy and objective, as ``(name, kwargs)``.
_STREAM_POLICIES = (
    ("maxav", {}),
    ("maxav", {"objective": "activity"}),
    ("mostactive", {}),
    ("random", {}),
    ("hybrid", {}),
)


@settings(max_examples=120, deadline=None)
@given(
    instance=placement_instances(),
    spec=st.sampled_from(_STREAM_POLICIES),
    mode=st.sampled_from([CONREP, UNCONREP]),
    increments=st.lists(
        st.integers(min_value=0, max_value=3), max_size=_NUM_FRIENDS
    ),
    shared_overlaps=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
def test_stream_in_increments_equals_fresh_select(
    instance, spec, mode, increments, shared_overlaps, seed
):
    """Drawing ``picks`` a few at a time, suspended in between, gives
    exactly ``select`` on a fresh context (its own fresh RNG) at every
    requested depth, including depths past the stream's end, and the
    whole stream's ``k``-prefix is ``select`` at every ``k``."""
    dataset, schedules = instance
    name, kwargs = spec
    policy = make_policy(name, **kwargs)

    def fresh():
        return PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=0,
            mode=mode,
            rng=derive_rng(seed, policy.name, 0),
            overlap_cache=OverlapCache(schedules) if shared_overlaps else None,
        )

    stream = policy.picks(fresh())
    drawn = ()
    for step in increments:
        depth = len(drawn) + step
        drawn += tuple(islice(stream, step))
        assert drawn == policy.select(fresh(), depth)
    drawn += tuple(stream)
    for k in range(_NUM_FRIENDS + 2):
        assert drawn[:k] == policy.select(fresh(), k)
