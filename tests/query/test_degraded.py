"""Degraded serving: deadlines, fallback, stale-if-error.

The contract: degradation changes *which path runs* or *which stored
answer is served*, never any float.  A fallback answer equals the
primary answer bit for bit (it recomputes from the same schedules
without the warm state); a stale answer equals
the stored lower-degree answer exactly; and every degraded answer is
flagged — never silently substituted.
"""

import functools

import pytest

from repro.cache import SweepCache
from repro.core import make_policy
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel
from repro.parallel import FaultInjector, InjectedFault
from repro.query import QueryPlane
from repro.resilience import Deadline, DeadlineExceeded, DegradationPolicy

SEED = 5


@functools.lru_cache(maxsize=1)
def _dataset():
    return synthetic_facebook(300, seed=9)


def _users(n):
    return sorted(_dataset().graph.users())[:n]


def _plane(mode="refuse", **kwargs):
    return QueryPlane(
        _dataset(),
        SporadicModel(),
        seed=SEED,
        degradation=DegradationPolicy(mode=mode),
        **kwargs,
    )


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now


class TestFallbackServing:
    def test_transient_poison_recovers_on_fallback_bit_identically(self):
        user = _users(1)[0]
        clean = _plane().evaluate(user, make_policy("maxav"), 3)
        plane = _plane(
            mode="fallback",
            fault_injector=FaultInjector.poison_queries([user], times=1),
        )
        outcome = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert outcome.ok and outcome.degraded
        assert outcome.reason == "fallback"
        assert "InjectedFault" in outcome.detail
        assert outcome.value == clean
        assert plane.stats()["fallback_served"] == 1

    def test_refuse_mode_raises_the_original_error(self):
        user = _users(1)[0]
        plane = _plane(
            mode="refuse",
            fault_injector=FaultInjector.poison_queries([user], times=1),
        )
        outcome = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert not outcome.ok
        with pytest.raises(InjectedFault):
            outcome.unwrap()
        assert plane.stats()["failed"] == 1

    def test_fallback_answer_lands_in_the_caches(self):
        # A fallback-computed answer is a real answer: the next query
        # for the same key is a fresh hit.
        user = _users(1)[0]
        plane = _plane(
            mode="fallback",
            fault_injector=FaultInjector.poison_queries([user], times=1),
        )
        first = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert first.reason == "fallback"
        second = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert not second.degraded
        assert second.value == first.value


class TestStaleServing:
    def test_poisoned_query_serves_stored_lower_degree_answer(self):
        user = _users(1)[0]
        policy = make_policy("maxav")
        store = SweepCache()
        # Prime degree-2 through a healthy plane sharing the store.
        healthy = QueryPlane(
            _dataset(), SporadicModel(), seed=SEED, cache=store
        )
        stored = healthy.evaluate(user, policy, 2)
        # A fresh plane (cold LRUs) with a fully poisoned query can only
        # serve from the store — and must flag what it served.
        plane = _plane(
            mode="stale",
            cache=store,
            fault_injector=FaultInjector.poison_queries([user], times=None),
        )
        outcome = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert outcome.ok and outcome.degraded
        assert outcome.reason == "stale"
        assert "degree-2" in outcome.detail and "degree-3" in outcome.detail
        assert outcome.value == stored
        assert plane.stats()["stale_served"] == 1

    def test_stale_mode_without_any_stored_answer_fails(self):
        user = _users(1)[0]
        plane = _plane(
            mode="stale",
            fault_injector=FaultInjector.poison_queries([user], times=None),
        )
        outcome = plane.evaluate_resilient(user, make_policy("maxav"), 3)
        assert not outcome.ok
        assert plane.stats()["stale_served"] == 0
        assert plane.stats()["failed"] == 1

    def test_full_poison_beats_fallback_but_stale_still_serves(self):
        # times=None poisons the fallback retry too: only the store wins.
        user = _users(1)[0]
        store = SweepCache()
        QueryPlane(
            _dataset(), SporadicModel(), seed=SEED, cache=store
        ).evaluate(user, make_policy("maxav"), 3)
        plane = _plane(
            mode="fallback",
            cache=store,
            fault_injector=FaultInjector.poison_queries([user], times=None),
        )
        # The exact-k store hit would serve fresh; query k+1 so compute
        # actually runs (and fails twice), degrading to the k=3 answer.
        outcome = plane.evaluate_resilient(user, make_policy("maxav"), 4)
        assert outcome.reason == "stale"
        assert "degree-3" in outcome.detail


class TestDeadlines:
    def test_expired_deadline_refuses_or_serves_stale(self):
        user = _users(1)[0]
        policy = make_policy("maxav")
        clock = FakeClock()
        expired = Deadline(0.0, clock=clock)
        plane = _plane(mode="refuse")
        outcome = plane.evaluate_resilient(
            user, policy, 3, deadline=expired
        )
        assert not outcome.ok
        with pytest.raises(DeadlineExceeded):
            outcome.unwrap()
        # With a store and stale mode, the same blown deadline serves
        # the stored lower-degree answer (degree 4 itself is unstored,
        # so the lookup misses and the deadline check fires).
        store = SweepCache()
        QueryPlane(
            _dataset(), SporadicModel(), seed=SEED, cache=store
        ).evaluate(user, policy, 3)
        stale_plane = _plane(mode="stale", cache=store)
        outcome = stale_plane.evaluate_resilient(
            user, make_policy("maxav"), 4, deadline=Deadline(0.0, clock=clock)
        )
        assert outcome.ok and outcome.reason == "stale"
        assert "DeadlineExceeded" in outcome.detail

    def test_generous_deadline_changes_nothing(self):
        user = _users(1)[0]
        clean = _plane().evaluate(user, make_policy("maxav"), 3)
        outcome = _plane(mode="fallback").evaluate_resilient(
            user, make_policy("maxav"), 3, deadline=Deadline.after_ms(60000)
        )
        assert not outcome.degraded
        assert outcome.value == clean

    def test_cache_hit_beats_an_expired_deadline(self):
        # The lookup costs nothing; deadlines gate *compute* stages.
        user = _users(1)[0]
        plane = _plane(mode="refuse")
        clean = plane.evaluate(user, make_policy("maxav"), 3)
        outcome = plane.evaluate_resilient(
            user, make_policy("maxav"), 3, deadline=Deadline(0.0)
        )
        assert outcome.ok and not outcome.degraded
        assert outcome.value == clean
