"""Equivalence contract of the incremental prefix-evaluation engine.

The engine promises that one forward pass over a selection sequence
produces, for every prefix degree, *float-identical* metrics to the naive
per-degree :func:`evaluate_user` oracle (``tests/oracle.py``).  These tests exercise that
promise on randomized datasets (schedules with non-representable float
endpoints, empty schedules, both regimes, every policy, degrees past the
end of the sequence, infinite delays) with exact — not approximate —
field-for-field equality.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.incremental as incremental
from repro.core import (
    CONREP,
    IncrementalGroupEvaluator,
    PlacementContext,
    UNCONREP,
    UserMetrics,
    evaluate_user,
    make_policy,
    select_cohort,
    sweep_replication_degree,
)
from repro.datasets import Activity, ActivityTrace, Dataset, synthetic_facebook
from repro.graph import SocialGraph
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel.worker import SweepPayload, evaluate_users_chunk
from repro.timeline import DAY_SECONDS, IntervalSet
from tests.oracle import naive_user_cell, oracle_sweeps

_NUM_FRIENDS = 8
_POLICIES = ["maxav", "mostactive", "random", "hybrid"]


def _sevenths(draw, lo, hi):
    """A float in [lo, hi] on a 1/7-second grid — deliberately not
    representable in binary, so float addition is non-associative and any
    operation-order drift between engine and oracle would show up."""
    return draw(st.integers(min_value=lo * 7, max_value=hi * 7)) / 7.0


@st.composite
def engine_instances(draw):
    """A star dataset with float schedules (empties allowed) + activity."""
    g = SocialGraph()
    for f in range(1, _NUM_FRIENDS + 1):
        g.add_edge(0, f)
    acts = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        acts.append(
            Activity(
                timestamp=_sevenths(draw, 0, 3 * DAY_SECONDS),
                creator=draw(st.integers(min_value=1, max_value=_NUM_FRIENDS)),
                receiver=0,
            )
        )
    dataset = Dataset("t", "facebook", g, ActivityTrace(acts))

    schedules = {}
    for u in range(_NUM_FRIENDS + 1):
        # 0-2 intervals per user; empty schedules allowed (never online).
        pairs = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            start = _sevenths(draw, 0, DAY_SECONDS - 2)
            length = _sevenths(draw, 1, 8 * 3600)
            pairs.append((start, min(start + length, DAY_SECONDS)))
        schedules[u] = IntervalSet(pairs, wrap=False)
    return dataset, schedules


def _assert_identical(got: UserMetrics, want: UserMetrics) -> None:
    for f in dataclasses.fields(UserMetrics):
        g, w = getattr(got, f.name), getattr(want, f.name)
        assert g == w, f"{f.name}: engine={g!r} naive={w!r}"


@settings(max_examples=60, deadline=None)
@given(
    instance=engine_instances(),
    policy_name=st.sampled_from(_POLICIES),
    mode=st.sampled_from([CONREP, UNCONREP]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_engine_equals_naive_field_for_field(
    instance, policy_name, mode, seed
):
    """The core contract: every prefix degree, exactly the oracle's floats.

    Degrees run past the sequence length (the allowed degree keeps growing
    while the prefix saturates), and the placement uses the evaluator's
    own overlap cache — the production wiring.
    """
    dataset, schedules = instance
    evaluator = IncrementalGroupEvaluator(dataset, schedules, 0, mode=mode)
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=mode,
        rng=random.Random(seed),
        overlap_cache=evaluator.overlap_cache,
    )
    sequence = make_policy(policy_name).select(ctx, _NUM_FRIENDS)
    degrees = tuple(range(_NUM_FRIENDS + 3))
    for k, got in zip(degrees, evaluator.evaluate_prefixes(sequence, degrees)):
        want = evaluate_user(
            dataset,
            schedules,
            0,
            sequence[:k],
            allowed_degree=k,
            mode=mode,
        )
        _assert_identical(got, want)


@settings(max_examples=40, deadline=None)
@given(
    instance=engine_instances(),
    policy_name=st.sampled_from(_POLICIES),
    mode=st.sampled_from([CONREP, UNCONREP]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_overlap_cache_does_not_change_selection(
    instance, policy_name, mode, seed
):
    """Routing ConRep filtering through the shared cache must be invisible
    to the policies — same RNG stream, same selection."""
    dataset, schedules = instance
    policy = make_policy(policy_name)

    def run(cache):
        ctx = PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=0,
            mode=mode,
            rng=random.Random(seed),
            overlap_cache=cache,
        )
        return policy.select(ctx, _NUM_FRIENDS)

    evaluator = IncrementalGroupEvaluator(dataset, schedules, 0, mode=mode)
    assert run(evaluator.overlap_cache) == run(None)


@settings(max_examples=30, deadline=None)
@given(
    instance=engine_instances(),
    mode=st.sampled_from([CONREP, UNCONREP]),
    degrees=st.lists(
        st.integers(min_value=0, max_value=_NUM_FRIENDS + 2),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(min_value=0, max_value=50),
)
def test_arbitrary_degree_requests(instance, mode, degrees, seed):
    """Unordered/duplicated degree lists come back in request order and
    match the single-degree ``evaluate`` helper."""
    dataset, schedules = instance
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=mode,
        rng=random.Random(seed),
    )
    sequence = make_policy("random").select(ctx, _NUM_FRIENDS)
    evaluator = IncrementalGroupEvaluator(dataset, schedules, 0, mode=mode)
    batch = evaluator.evaluate_prefixes(sequence, degrees)
    assert len(batch) == len(degrees)
    for k, got in zip(degrees, batch):
        assert got.allowed_degree == k
        _assert_identical(got, evaluator.evaluate(sequence, k))


@settings(max_examples=40, deadline=None)
@given(
    instance=engine_instances(),
    policy_name=st.sampled_from(_POLICIES),
    mode=st.sampled_from([CONREP, UNCONREP]),
    seed=st.integers(min_value=0, max_value=50),
)
def test_single_degree_walk_equals_sweep_and_oracle(
    instance, policy_name, mode, seed
):
    """The single-degree path folds every member into the group union at
    its one snapshot; the sweep folds one member per degree.  A *fresh*
    evaluator per degree (no memo to hide the walk) must agree with both
    the sweep and the oracle, field for field."""
    dataset, schedules = instance
    ctx = PlacementContext(
        dataset=dataset,
        schedules=schedules,
        user=0,
        mode=mode,
        rng=random.Random(seed),
    )
    sequence = make_policy(policy_name).select(ctx, _NUM_FRIENDS)

    def fresh():
        return IncrementalGroupEvaluator(dataset, schedules, 0, mode=mode)

    for k in range(_NUM_FRIENDS + 2):
        got = fresh().evaluate(sequence, k)
        _assert_identical(
            got, fresh().evaluate_prefixes(sequence, range(k + 1))[k]
        )
        _assert_identical(
            got,
            evaluate_user(
                dataset,
                schedules,
                0,
                sequence[:k],
                allowed_degree=k,
                mode=mode,
            ),
        )


def _count_walks(monkeypatch) -> list:
    """Count ``_WalkState`` constructions from now on (one per walk)."""
    calls = [0]
    init = incremental._WalkState.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(incremental._WalkState, "__init__", counting_init)
    return calls


class TestPrefixMemo:
    """Single-degree answers are memoized by the ordered replica prefix."""

    def _star(self):
        g = SocialGraph()
        for f in range(1, 5):
            g.add_edge(0, f)
        acts = [
            Activity(timestamp=100.0 + 900 * f, creator=f, receiver=0)
            for f in range(1, 5)
        ]
        ds = Dataset("t", "facebook", g, ActivityTrace(acts))
        schedules = {
            u: IntervalSet([(u * 1800, u * 1800 + 7200 + u / 7.0)])
            for u in range(5)
        }
        return ds, schedules

    @pytest.mark.parametrize("mode", [CONREP, UNCONREP])
    def test_shared_prefix_costs_one_walk(self, monkeypatch, mode):
        ds, schedules = self._star()
        walks = _count_walks(monkeypatch)
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0, mode=mode)
        # Two policies' sequences agreeing on the first two replicas.
        first = evaluator.evaluate((1, 2, 3), 2)
        second = evaluator.evaluate((1, 2, 4), 2)
        assert walks[0] == 1
        assert second == first
        # Degrees past an exhausted sequence share its whole prefix.
        answers = {k: evaluator.evaluate((3, 1), k) for k in (2, 4, 7)}
        assert walks[0] == 2
        # The prefix is ordered: the same members in another order walk.
        evaluator.evaluate((1, 3), 2)
        assert walks[0] == 3
        for k, got in answers.items():
            assert got.allowed_degree == k
            assert got.replicas == (3, 1)
            cold = IncrementalGroupEvaluator(ds, schedules, 0, mode=mode)
            _assert_identical(got, cold.evaluate((3, 1), k))
            _assert_identical(
                got,
                evaluate_user(
                    ds, schedules, 0, (3, 1), allowed_degree=k, mode=mode
                ),
            )

    def test_multi_degree_requests_keep_one_walk(self, monkeypatch):
        ds, schedules = self._star()
        walks = _count_walks(monkeypatch)
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        evaluator.evaluate_prefixes((1, 2, 3, 4), range(5))
        evaluator.evaluate_prefixes((1, 2, 3, 4), (4, 2, 4))
        assert walks[0] == 2

    def test_owner_in_sequence_rejected_on_memo_path(self):
        ds, schedules = self._star()
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        evaluator.evaluate((1, 2), 1)
        with pytest.raises(ValueError):
            evaluator.evaluate((1, 0), 1)

    def test_negative_degree_rejected_on_memo_path(self):
        ds, schedules = self._star()
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        evaluator.evaluate((1, 2), 1)
        with pytest.raises(ValueError):
            evaluator.evaluate((1, 2), -1)


class TestEdgeCases:
    def _star(self, schedules, acts=()):
        g = SocialGraph()
        for f in range(1, len(schedules)):
            g.add_edge(0, f)
        ds = Dataset("t", "facebook", g, ActivityTrace(list(acts)))
        return ds, dict(enumerate(schedules))

    def test_unconrep_infinite_delay_member(self):
        """A never-online replica makes the UnconRep delay infinite — in
        both engines, at exactly the degree it joins."""
        ds, schedules = self._star(
            [
                IntervalSet([(0, 3600)]),
                IntervalSet([(3600, 7200)]),
                IntervalSet.empty(),
            ]
        )
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0, mode=UNCONREP)
        m1, m2 = evaluator.evaluate_prefixes((1, 2), (1, 2))
        assert m1.delay_hours_actual < float("inf")
        assert m2.delay_hours_actual == float("inf")
        assert m2.delay_hours_observed == float("inf")
        for k, got in ((1, m1), (2, m2)):
            want = evaluate_user(
                ds, schedules, 0, (1, 2)[:k], allowed_degree=k, mode=UNCONREP
            )
            _assert_identical(got, want)

    def test_conrep_disconnected_pair_is_inf(self):
        ds, schedules = self._star(
            [IntervalSet([(0, 3600)]), IntervalSet([(7200, 10800)])]
        )
        got = IncrementalGroupEvaluator(ds, schedules, 0).evaluate((1,), 1)
        assert got.delay_hours_actual == float("inf")
        _assert_identical(
            got, evaluate_user(ds, schedules, 0, (1,), allowed_degree=1)
        )

    def test_empty_owner_schedule(self):
        ds, schedules = self._star(
            [IntervalSet.empty(), IntervalSet([(0, 7200)])],
            acts=[Activity(timestamp=100.0, creator=1, receiver=0)],
        )
        for mode in (CONREP, UNCONREP):
            evaluator = IncrementalGroupEvaluator(ds, schedules, 0, mode=mode)
            for k, got in zip(
                (0, 1), evaluator.evaluate_prefixes((1,), (0, 1))
            ):
                want = evaluate_user(
                    ds, schedules, 0, (1,)[:k], allowed_degree=k, mode=mode
                )
                _assert_identical(got, want)

    def test_owner_in_sequence_rejected(self):
        ds, schedules = self._star([IntervalSet([(0, 3600)])] * 2)
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        with pytest.raises(ValueError):
            evaluator.evaluate_prefixes((0, 1), (1,))

    def test_negative_degree_rejected(self):
        ds, schedules = self._star([IntervalSet([(0, 3600)])] * 2)
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        with pytest.raises(ValueError):
            evaluator.evaluate_prefixes((1,), (-1, 0))

    def test_empty_degree_request(self):
        ds, schedules = self._star([IntervalSet([(0, 3600)])] * 2)
        evaluator = IncrementalGroupEvaluator(ds, schedules, 0)
        assert evaluator.evaluate_prefixes((1,), ()) == ()

    def test_unknown_mode_rejected(self):
        ds, schedules = self._star([IntervalSet([(0, 3600)])] * 2)
        with pytest.raises(ValueError):
            IncrementalGroupEvaluator(ds, schedules, 0, mode="bogus")


class TestEngineIntegration:
    """The production worker kernel and sweep harness against the oracle."""

    def _payload(self):
        ds = synthetic_facebook(400, seed=11)
        schedules = compute_schedules(ds, SporadicModel(), seed=11)
        return (
            SweepPayload(
                dataset=ds,
                schedules=schedules,
                policies=tuple(make_policy(p) for p in _POLICIES),
                mode=CONREP,
                degrees=tuple(range(5)),
                max_degree=4,
                seed=11,
            ),
            select_cohort(ds, 10, max_users=6),
        )

    def test_worker_chunk_engines_identical(self):
        payload, users = self._payload()
        assert evaluate_users_chunk(payload, users) == [
            naive_user_cell(payload, user) for user in users
        ]

    def test_sweep_engines_identical(self):
        ds = synthetic_facebook(400, seed=3)

        def sweep():
            return sweep_replication_degree(
                ds,
                SporadicModel(),
                [make_policy("maxav"), make_policy("random")],
                degrees=list(range(4)),
                users=select_cohort(ds, 10, max_users=5),
                seed=7,
                repeats=2,
            )

        production = sweep()
        with oracle_sweeps():
            oracle = sweep()
        assert oracle == production  # exact, all floats
