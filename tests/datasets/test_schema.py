"""Unit tests for Activity / ActivityTrace / Dataset."""

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.schema as schema
from repro.datasets import Activity, ActivityTrace, Dataset
from repro.graph import FollowerGraph, SocialGraph
from repro.timeline import DAY_SECONDS


def _act(t, creator, receiver):
    return Activity(timestamp=t, creator=creator, receiver=receiver)


class TestActivity:
    def test_second_of_day(self):
        assert _act(DAY_SECONDS + 42, 1, 2).second_of_day == 42

    def test_ordering_by_timestamp(self):
        acts = [_act(50, 1, 2), _act(10, 3, 4)]
        assert sorted(acts)[0].timestamp == 10

    def test_frozen(self):
        act = _act(1, 2, 3)
        with pytest.raises(AttributeError):
            act.timestamp = 5


class TestNewActivity:
    """``new_activity`` must build exactly what ``Activity(...)`` builds."""

    CASES = [
        (1.5, 3, 4),
        (0.0, 0, 0),
        (-0.0, 7, 7),
        (86399.99999999999, 12, 1),
        (42, 2, 9),  # an int timestamp is stored as given, as __init__ does
        (float("inf"), -1, 2**70),
    ]

    @pytest.mark.parametrize("args", CASES)
    def test_equals_dataclass_construction(self, args):
        fast, slow = schema.new_activity(*args), Activity(*args)
        assert type(fast) is Activity
        assert fast == slow
        for name in ("timestamp", "creator", "receiver"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert type(a) is type(b)
            assert repr(a) == repr(b)
        assert hash(fast) == hash(slow)
        assert repr(fast) == repr(slow)
        assert not fast < slow and not slow < fast and fast <= slow
        clone = pickle.loads(pickle.dumps(fast))
        assert clone == slow and type(clone) is Activity
        assert pickle.dumps(fast) == pickle.dumps(slow)

    def test_orders_like_dataclass(self):
        args = [(5.0, 2, 1), (5.0, 1, 9), (1.0, 9, 9), (5.0, 1, 3)]
        fast = sorted(schema.new_activity(*a) for a in args)
        slow = sorted(Activity(*a) for a in args)
        assert fast == slow
        assert [repr(a) for a in fast] == [repr(a) for a in slow]

    def test_stays_frozen_and_slotted(self):
        act = schema.new_activity(1.0, 2, 3)
        for name in ("timestamp", "creator", "receiver"):
            with pytest.raises(FrozenInstanceError):
                setattr(act, name, 5)
        with pytest.raises(FrozenInstanceError):
            del act.creator
        assert not hasattr(act, "__dict__")
        assert act == Activity(1.0, 2, 3)


class TestActivityTrace:
    def test_empty(self):
        trace = ActivityTrace([])
        assert len(trace) == 0
        assert not trace
        assert trace.begin == 0.0
        assert trace.end == 0.0
        assert trace.span_seconds == 0.0
        assert trace.created_by(1) == []
        assert trace.activity_count(1) == 0

    def test_sorted_on_construction(self):
        trace = ActivityTrace([_act(50, 1, 2), _act(10, 2, 1)])
        assert [a.timestamp for a in trace] == [10, 50]
        assert trace.begin == 10
        assert trace.end == 50
        assert trace.span_seconds == 40

    def test_created_and_received_indexes(self):
        trace = ActivityTrace([_act(1, 1, 2), _act(2, 1, 3), _act(3, 2, 1)])
        assert [a.timestamp for a in trace.created_by(1)] == [1, 2]
        assert [a.timestamp for a in trace.received_by(1)] == [3]
        assert trace.activity_count(1) == 2
        assert trace.activity_count(3) == 0

    def test_interaction_counts(self):
        trace = ActivityTrace(
            [_act(1, 2, 1), _act(2, 2, 1), _act(3, 3, 1), _act(4, 1, 2)]
        )
        assert trace.interaction_counts(1) == {2: 2, 3: 1}
        assert trace.interaction_counts(2) == {1: 1}
        assert trace.interaction_counts(9) == {}

    def test_interaction_counts_ignore_self_posts(self):
        trace = ActivityTrace([_act(1, 1, 1), _act(2, 2, 1)])
        assert trace.interaction_counts(1) == {2: 1}

    def test_window(self):
        trace = ActivityTrace([_act(t, 1, 2) for t in (0, 10, 20, 30)])
        windowed = trace.window(10, 30)
        assert [a.timestamp for a in windowed] == [10, 20]

    def test_restricted_to(self):
        trace = ActivityTrace([_act(1, 1, 2), _act(2, 1, 3), _act(3, 3, 2)])
        restricted = trace.restricted_to({1, 2})
        assert len(restricted) == 1
        assert restricted.activities[0].creator == 1


# Narrow ranges so timestamp ties, creator ties and exact duplicates are
# common.
_activities = st.lists(
    st.builds(
        Activity,
        timestamp=st.sampled_from([0.0, 1.0, 1.5, 7.0]),
        creator=st.integers(0, 3),
        receiver=st.integers(0, 3),
    ),
    max_size=40,
)


class TestTraceOrder:
    @settings(max_examples=200, deadline=None)
    @given(_activities)
    def test_key_sort_is_the_dataclass_order(self, acts):
        # Same total order and a stable sort: the same permutation, so
        # even equal activities sit at the same positions.
        want = sorted(acts)
        got = ActivityTrace(acts).activities
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))

    def test_ties_break_by_creator_then_receiver(self):
        acts = [_act(5, 2, 1), _act(5, 1, 3), _act(5, 1, 2), _act(4, 9, 9)]
        trace = ActivityTrace(acts)
        assert [(a.timestamp, a.creator, a.receiver) for a in trace] == [
            (4, 9, 9),
            (5, 1, 2),
            (5, 1, 3),
            (5, 2, 1),
        ]

    @settings(max_examples=100, deadline=None)
    @given(_activities, st.sets(st.integers(0, 3)))
    def test_restrictions_keep_order_without_sorting(self, acts, keep):
        trace = ActivityTrace(acts)

        def no_sort(*args, **kwargs):
            raise AssertionError("a restriction sorted the trace again")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schema, "sorted", no_sort, raising=False)
            restricted = trace.restricted_to(keep)
            windowed = trace.window(1.0, 7.0)
        assert restricted.activities == tuple(
            a for a in trace if a.creator in keep and a.receiver in keep
        )
        assert windowed.activities == tuple(
            a for a in trace if 1.0 <= a.timestamp < 7.0
        )
        for sub in (restricted, windowed):
            assert list(sub) == sorted(sub)
            created = [a for a in sub if a.creator == 0]
            assert list(sub.created_by(0)) == created


class TestDataset:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            Dataset("x", "myspace", SocialGraph(), ActivityTrace([]))

    def test_graph_direction_must_match_kind(self):
        with pytest.raises(ValueError):
            Dataset("x", "facebook", FollowerGraph(), ActivityTrace([]))
        with pytest.raises(ValueError):
            Dataset("x", "twitter", SocialGraph(), ActivityTrace([]))

    def test_facebook_candidates_are_friends(self):
        g = SocialGraph()
        g.add_edge(1, 2)
        ds = Dataset("x", "facebook", g, ActivityTrace([]))
        assert ds.replica_candidates(1) == frozenset({2})
        assert ds.degree(1) == 1
        assert ds.num_users == 2

    def test_twitter_candidates_are_followers(self):
        g = FollowerGraph()
        g.add_follow(1, 2)
        ds = Dataset("x", "twitter", g, ActivityTrace([]))
        assert ds.replica_candidates(2) == frozenset({1})
        assert ds.replica_candidates(1) == frozenset()
