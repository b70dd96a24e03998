"""The member-set universe of MaxAv and Hybrid is exact.

``IntervalUniverse.over(members)`` skips the ``schedule ∩ universe`` step
of ``gain`` and ``commit``, because for a member that intersection is the
identity.  These tests hold it to bit equality (``==``, never approx)
with the intersecting path of a plain ``IntervalUniverse`` over the same
union, on random schedules with non-integral and midnight-wrapping
endpoints, and check that MaxAv, MaxAv-activity and Hybrid select exactly
what they select over the intersecting universe.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CONREP,
    UNCONREP,
    IntervalUniverse,
    MaxAvPlacement,
    PlacementContext,
    make_policy,
)
from repro.datasets import synthetic_facebook
from repro.onlinetime import FixedLengthModel, SporadicModel, compute_schedules
from repro.timeline import DAY_SECONDS, IntervalSet

endpoints = st.one_of(
    st.integers(min_value=0, max_value=DAY_SECONDS),
    st.floats(min_value=0, max_value=DAY_SECONDS, allow_nan=False),
    st.integers(min_value=0, max_value=7 * DAY_SECONDS).map(lambda n: n / 7),
)

#: Pairs with ``start > end`` wrap midnight.
schedules = st.lists(st.tuples(endpoints, endpoints), max_size=4).map(IntervalSet)


@settings(max_examples=200, deadline=None)
@given(
    members=st.lists(schedules, min_size=1, max_size=6),
    covered_index=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    picks=st.lists(st.integers(min_value=0, max_value=5), max_size=6),
)
def test_member_gain_and_commit_equal_the_intersecting_path(
    members, covered_index, picks
):
    covered = None
    if covered_index is not None:
        covered = members[covered_index % len(members)]
    clipped = IntervalUniverse(IntervalSet.union_all(members), covered)
    member = IntervalUniverse.over(members, covered)
    assert member.total_measure == clipped.total_measure
    for pick in picks + [None]:
        assert member.covered_measure == clipped.covered_measure
        assert member.remaining_measure == clipped.remaining_measure
        for schedule in members:
            assert member.gain(schedule) == clipped.gain(schedule)
        if pick is not None:
            schedule = members[pick % len(members)]
            member.commit(schedule)
            clipped.commit(schedule)


def _clipping_over(cls, members, covered=None):
    """The pre-``over`` universe: same union, intersecting gain/commit."""
    return cls(IntervalSet.union_all(members), covered)


def _selections(dataset, schedules, policy, mode):
    out = {}
    for user in sorted(dataset.graph.users()):
        ctx = PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=user,
            mode=mode,
            rng=random.Random(user),
        )
        out[user] = policy.select(ctx, 10)
    return out


@pytest.mark.parametrize(
    "model", [SporadicModel(), FixedLengthModel(8)], ids=lambda m: m.describe()
)
@pytest.mark.parametrize("mode", [CONREP, UNCONREP])
def test_selections_unchanged(monkeypatch, model, mode):
    dataset = synthetic_facebook(150, seed=4)
    schedules = compute_schedules(dataset, model, seed=2)
    policies = [
        make_policy("maxav"),
        MaxAvPlacement(objective="activity"),
        make_policy("hybrid"),
    ]
    got = [_selections(dataset, schedules, p, mode) for p in policies]
    monkeypatch.setattr(IntervalUniverse, "over", classmethod(_clipping_over))
    want = [_selections(dataset, schedules, p, mode) for p in policies]
    assert got == want
    assert any(any(seq) for seq in got[0].values())
