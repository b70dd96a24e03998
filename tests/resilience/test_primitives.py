"""Unit behaviour of the resilience primitives.

Deadlines take an injectable clock, so every timing property here is
driven deterministically — no sleeps, no flakes.
"""

import pickle

import pytest

from repro.resilience import (
    FALLBACK,
    REFUSE,
    STALE,
    Deadline,
    DeadlineExceeded,
    DegradationPolicy,
    DegradedResult,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = float(now)

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestDeadline:
    def test_remaining_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        clock.advance(0.4)
        assert deadline.remaining() == pytest.approx(0.6)
        deadline.check("mid-flight")  # still within budget
        clock.advance(0.6)
        assert deadline.expired

    def test_check_raises_with_stage_and_budget(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(50.0, clock=clock)
        clock.advance(0.075)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("replica selection")
        message = str(excinfo.value)
        assert "replica selection" in message
        assert "25.000 ms" in message  # overshoot
        assert "50.000 ms" in message  # budget

    def test_deadline_exceeded_is_a_timeout(self):
        # Callers catching TimeoutError must see deadline misses.
        assert issubclass(DeadlineExceeded, TimeoutError)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(-0.1)

    def test_zero_budget_expires_immediately(self):
        deadline = Deadline(0.0, clock=FakeClock())
        assert deadline.expired
        with pytest.raises(DeadlineExceeded):
            deadline.check()


class TestDegradationPolicy:
    def test_mode_permissions_are_ordered(self):
        refuse = DegradationPolicy(REFUSE)
        stale = DegradationPolicy(STALE)
        fallback = DegradationPolicy(FALLBACK)
        assert not refuse.allow_stale and not refuse.allow_fallback
        assert stale.allow_stale and not stale.allow_fallback
        assert fallback.allow_stale and fallback.allow_fallback

    def test_default_is_refuse(self):
        assert DegradationPolicy().mode == REFUSE

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            DegradationPolicy("yolo")


class TestDegradedResult:
    def test_fresh_is_unflagged(self):
        result = DegradedResult.fresh(42)
        assert result.ok
        assert not result.degraded
        assert result.reason is None
        assert result.unwrap() == 42

    def test_stale_and_fallback_carry_provenance(self):
        stale = DegradedResult.stale(1, "stored degree-2 answer")
        assert stale.degraded and stale.reason == STALE
        assert "degree-2" in stale.detail
        fallback = DegradedResult.fallback(2, "scalar retry")
        assert fallback.degraded and fallback.reason == FALLBACK
        assert stale.unwrap() == 1 and fallback.unwrap() == 2

    def test_failed_unwrap_reraises_the_original(self):
        error = ValueError("boom")
        result = DegradedResult.failed(error)
        assert not result.ok
        assert result.degraded and result.reason == "error"
        with pytest.raises(ValueError, match="boom"):
            result.unwrap()

    def test_results_compare_ignoring_error_identity(self):
        # Two failures with distinct exception objects of the same shape
        # still compare equal (error is compare=False) — what matters
        # for identity assertions is the served value and flags.
        a = DegradedResult.failed(ValueError("x"))
        b = DegradedResult.failed(ValueError("y"))
        assert a == b
        assert DegradedResult.fresh(1) != DegradedResult.stale(1)


class TestInjectorPicklability:
    def test_query_fault_injector_pickles(self):
        # The injector ships to pool workers at fork time and to the
        # query plane; a poisoned-query plan must survive the round trip.
        from repro.parallel import FaultInjector, InjectedFault

        injector = FaultInjector.poison_queries([3], times=1, seed=2)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector
        with pytest.raises(InjectedFault):
            clone.apply_query(3, 0)
        clone.apply_query(3, 1)  # times=1: the fallback retry is clean
