"""The §IV-A filter kernel against its round-by-round reference.

``filter_dataset`` builds CSR arrays once, resolves the fixed point with
``surviving_mask`` and restricts the graph and the trace once; the
reference in ``tests/datasets/filter_reference.py`` restricts them every
round.  Both must give the same dataset, with no round cap on either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    Activity,
    ActivityTrace,
    Dataset,
    SyntheticSpec,
    filter_dataset,
    synthesize_tweet_trace,
    synthesize_wall_trace,
)
from repro.graph import FollowerGraph, SocialGraph
from tests.datasets.filter_reference import reference_filter


def _act(t, creator, receiver):
    return Activity(timestamp=t, creator=creator, receiver=receiver)


def _content(ds):
    """Everything a dataset holds: users, edges, trace and labels."""
    return (
        ds.name,
        ds.kind,
        ds.notes,
        sorted(ds.graph.users()),
        sorted(ds.graph.edges()),
        ds.trace.activities,
    )


def _filters(ds, min_activities):
    require = ds.kind == "twitter"
    return (
        filter_dataset(
            ds, min_activities=min_activities, require_candidates=require
        ),
        reference_filter(
            ds, min_activities=min_activities, require_candidates=require
        ),
    )


@st.composite
def _datasets(draw):
    """Small graphs over sparse user ids, with a trace among them."""
    kind = draw(st.sampled_from(["facebook", "twitter"]))
    users = draw(
        st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True)
    )
    pairs = st.tuples(st.sampled_from(users), st.sampled_from(users))
    graph = SocialGraph() if kind == "facebook" else FollowerGraph()
    for user in users:
        graph.add_user(user)
    for u, v in draw(st.lists(pairs, max_size=30)):
        if u == v:
            continue
        if kind == "facebook":
            graph.add_edge(u, v)
        else:
            graph.add_follow(u, v)
    acts = [
        _act(t, c, r)
        for t, (c, r) in enumerate(draw(st.lists(pairs, max_size=60)))
    ]
    return Dataset("h", kind, graph, ActivityTrace(acts), notes="n")


def _chain(kind, length, min_activities, core=False):
    """A cascade: user ``i`` posts only to ``i + 1``, and the last user
    is under the threshold, so each round drops one more user.

    With ``core``, two users that post to each other are linked to the
    chain's first user; they survive the cascade.
    """
    graph = SocialGraph() if kind == "facebook" else FollowerGraph()
    acts = []
    t = 0
    link = graph.add_edge if kind == "facebook" else graph.add_follow
    first = 2 if core else 0
    for user in range(first, first + length):
        # Under the threshold at the end of the chain, exactly on it
        # elsewhere.
        last = user == first + length - 1
        target = user - 1 if last else user + 1
        link(target, user)
        for _ in range(min_activities - 1 if last else min_activities):
            acts.append(_act(t, user, target))
            t += 1
    if core:
        link(0, 1)
        link(1, 0)
        link(0, first)
        for _ in range(min_activities):
            acts.extend([_act(t, 0, 1), _act(t, 1, 0)])
            t += 1
    return Dataset("chain", kind, graph, ActivityTrace(acts))


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(_datasets(), st.integers(0, 3))
    def test_random_datasets(self, ds, min_activities):
        got, (want, _) = _filters(ds, min_activities)
        assert _content(got) == _content(want)

    @settings(max_examples=100, deadline=None)
    @given(_datasets(), st.integers(0, 3))
    def test_idempotent(self, ds, min_activities):
        once, _ = _filters(ds, min_activities)
        twice, _ = _filters(once, min_activities)
        # Only the notes grow: each pass appends its filter label.
        assert _content(twice)[3:] == _content(once)[3:]

    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    def test_cascade_longer_than_the_old_cap_empties(self, kind):
        ds = _chain(kind, 60, min_activities=3)
        got, (want, rounds) = _filters(ds, 3)
        # One user per round: past the 50 rounds the filter was capped at.
        assert rounds == 60
        assert got.graph.num_users == 0
        assert not got.trace
        assert _content(got) == _content(want)

    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    def test_cascade_ends_on_a_surviving_core(self, kind):
        ds = _chain(kind, 55, min_activities=2, core=True)
        got, (want, rounds) = _filters(ds, 2)
        assert rounds == 55
        assert sorted(got.graph.users()) == [0, 1]
        assert len(got.trace) == 4
        assert _content(got) == _content(want)


class TestUsersOutsideTheGraph:
    """Activities naming a user the graph lacks never count, and the
    result never holds them — however many rounds the filter runs."""

    def _dataset(self, acts):
        g = SocialGraph()
        g.add_edge(1, 2)
        return Dataset("t", "facebook", g, ActivityTrace(acts))

    def test_do_not_count_towards_the_threshold(self):
        acts = (
            [_act(i, 1, 2) for i in range(5)]
            + [_act(i, 1, 99) for i in range(5, 15)]
            + [_act(i, 2, 1) for i in range(15, 25)]
        )
        filtered = filter_dataset(self._dataset(acts), min_activities=10)
        # 1 has only 5 activities inside the graph; then 2's posts to 1
        # no longer count either.
        assert filtered.graph.num_users == 0
        assert not filtered.trace

    def test_are_dropped_when_nobody_is_removed(self):
        acts = (
            [_act(i, 1, 2) for i in range(10)]
            + [_act(i, 2, 1) for i in range(10, 20)]
            + [_act(20, 1, 99), _act(21, 99, 2)]
        )
        ds = self._dataset(acts)
        filtered = filter_dataset(ds, min_activities=10)
        assert sorted(filtered.graph.users()) == [1, 2]
        assert filtered.trace.activities == ds.trace.activities[:20]


# The builders' sizes and seeds across the suites: bench scale (1,500
# users), the e2e datasets (500 and 2,000 users) and the seeds the
# benchmark and its references use.
_SUITE_BUILDS = [
    (kind, users, seed)
    for kind in ("facebook", "twitter")
    for users in (500, 1500, 2000)
    for seed in (42, 7, 401)
]


def _raw(spec):
    """The builder's dataset before the filter (legacy layout)."""
    graph = spec.build_graph()
    synthesize = (
        synthesize_wall_trace
        if spec.kind == "facebook"
        else synthesize_tweet_trace
    )
    trace = synthesize(graph, spec.resolved_params(), spec.seed)
    return Dataset(f"raw-{spec.kind}", spec.kind, graph, trace)


@pytest.mark.parametrize("kind,users,seed", _SUITE_BUILDS)
def test_suite_builds_never_reached_the_old_round_cap(kind, users, seed):
    spec = SyntheticSpec(kind=kind, num_users=users, seed=seed)
    raw = _raw(spec)
    got, (want, rounds) = _filters(raw, spec.min_activities)
    # The old filters stopped after 50 rounds whether or not the set
    # was a fixed point; fewer than 50 dropping rounds means they always
    # returned the fixed point.
    assert rounds < 50
    if (kind, users, seed) == ("twitter", 500, 401):
        assert rounds == 14 and got.graph.num_users == 0
    assert _content(got) == _content(want)
    # The user order the graph iterates in is the reference's too.
    assert list(got.graph.users()) == list(want.graph.users())
