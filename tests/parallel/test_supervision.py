"""Tests for the supervised execution path: crash/hang/error recovery,
retry/backoff, bisection, quarantine, and strict fail-fast."""

import time

import pytest

from repro.parallel import (
    ParallelExecutor,
    FaultInjector,
    InjectedFault,
    QUARANTINED,
    RetryPolicy,
    fork_available,
    is_quarantined,
)
from repro.parallel.faults import CRASH, ERROR, HANG
from repro.parallel.supervise import (
    ChunkFailureError,
    FailureReport,
    KIND_ERROR,
    KIND_TIMEOUT,
    KIND_WORKER_LOST,
)


def _square_chunk(payload, chunk):
    """Top-level worker (process pools resolve it by module path)."""
    return [payload * item * item for item in chunk]


def _slow_first_square_chunk(payload, chunk):
    """Like :func:`_square_chunk`, but item 0 takes half a second, so its
    chunk is still in flight when a poison chunk beside it crashes."""
    if 0 in chunk:
        time.sleep(0.5)
    return _square_chunk(payload, chunk)


#: Fast schedule for tests: no real sleeping between retries.
FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)

ITEMS = list(range(12))
EXPECT = [2 * i * i for i in ITEMS]

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_delay_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.35, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped
        assert policy.delay(9) == pytest.approx(0.35)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.5)
        a = policy.delay(1, token=3)
        assert a == policy.delay(1, token=3)
        assert 0.1 <= a <= 0.15
        assert policy.delay(1, token=4) != a


class TestFailureReport:
    def test_snapshot_and_since(self):
        report = FailureReport()
        assert not report
        mark = report.snapshot()
        from repro.parallel.supervise import ChunkFailure, QuarantinedItem

        report.chunk_failures.append(
            ChunkFailure("p", 0, 2, 0, KIND_ERROR, "boom")
        )
        report.quarantined.append(QuarantinedItem("p", 7, KIND_ERROR, "boom"))
        delta = report.since(mark)
        assert len(delta.chunk_failures) == 1
        assert delta.quarantined_items() == [7]
        assert bool(report)
        blob = report.as_dict()
        assert blob["quarantined"][0]["item"] == 7


@needs_fork
class TestCrashRecovery:
    def test_crash_once_recovers_identically(self):
        # Every chunk's first attempt kills its worker: the whole first
        # round dies, the pool is rebuilt, the retries succeed.
        injector = FaultInjector.once(any_chunk=CRASH)
        with ParallelExecutor(
            jobs=3, retry=FAST, fault_injector=injector
        ) as ex:
            assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
            assert ex.pool_stats.rebuilds >= 1
            assert ex.pool_stats.retries >= 1
            assert ex.pool_stats.quarantined == 0
        kinds = {f.kind for f in ex.failures.chunk_failures}
        assert KIND_WORKER_LOST in kinds

    def test_crash_on_one_item_recovers(self):
        injector = FaultInjector.once(crash={5})
        with ParallelExecutor(
            jobs=2, chunk_size=3, retry=FAST, fault_injector=injector
        ) as ex:
            assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
            assert ex.pool_stats.rebuilds >= 1

    def test_crash_poison_is_quarantined(self):
        injector = FaultInjector.poison(CRASH, [5])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with ParallelExecutor(
            jobs=2, chunk_size=3, retry=policy, fault_injector=injector
        ) as ex:
            with pytest.warns(RuntimeWarning, match="quarantined item 5"):
                out = ex.map_shared(_square_chunk, 2, ITEMS)
        assert out[5] is QUARANTINED
        assert [r for r in out if not is_quarantined(r)] == [
            v for i, v in enumerate(EXPECT) if i != 5
        ]
        assert ex.pool_stats.quarantined == 1
        assert ex.failures.quarantined_items() == [5]
        assert ex.failures.quarantined[0].kind == KIND_WORKER_LOST

    def test_crash_never_charges_a_chunk_in_flight_beside_it(self):
        # Item 1 kills its worker on every attempt while item 0's chunk
        # is still running; the death breaks both futures.  Only the
        # chunk that kills a pool on its own may spend an attempt.
        injector = FaultInjector.poison(CRASH, [1])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with ParallelExecutor(
            jobs=2, chunk_size=1, retry=policy, fault_injector=injector
        ) as ex:
            with pytest.warns(RuntimeWarning, match="quarantined item 1"):
                out = ex.map_shared(_slow_first_square_chunk, 2, [0, 1, 2])
        assert out == [0, QUARANTINED, 8]
        assert ex.failures.quarantined_items() == [1]
        assert {f.start for f in ex.failures.chunk_failures} == {1}
        assert ex.pool_stats.rebuilds >= 2


@needs_fork
class TestErrorRecovery:
    def test_error_once_retries_without_rebuild(self):
        injector = FaultInjector.once(error={4})
        with ParallelExecutor(
            jobs=2, chunk_size=4, retry=FAST, fault_injector=injector
        ) as ex:
            assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
            # An ordinary exception never kills the pool.
            assert ex.pool_stats.rebuilds == 0
            assert ex.pool_stats.starts == 1
        failure = ex.failures.chunk_failures[0]
        assert failure.kind == KIND_ERROR
        assert "InjectedFault" in failure.error
        assert "InjectedFault" in failure.traceback

    def test_error_poison_bisected_down_to_item(self):
        injector = FaultInjector.poison(ERROR, [7])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with ParallelExecutor(
            jobs=2, chunk_size=6, retry=policy, fault_injector=injector
        ) as ex:
            with pytest.warns(RuntimeWarning):
                out = ex.map_shared(_square_chunk, 2, ITEMS)
        assert out[7] is QUARANTINED
        assert all(
            out[i] == EXPECT[i] for i in range(len(ITEMS)) if i != 7
        )
        # Bisection narrowed a 6-item chunk to the single poison item.
        assert ex.failures.quarantined_items() == [7]
        sizes = {f.size for f in ex.failures.chunk_failures}
        assert 1 in sizes and max(sizes) > 1


@needs_fork
class TestHangRecovery:
    def test_hang_once_recovers_via_deadline(self):
        injector = FaultInjector.once(hang={3}, hang_seconds=30)
        with ParallelExecutor(
            jobs=2,
            chunk_size=3,
            retry=FAST,
            chunk_timeout=0.4,
            fault_injector=injector,
        ) as ex:
            assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
            assert ex.pool_stats.timeouts >= 1
            assert ex.pool_stats.rebuilds >= 1
        kinds = {f.kind for f in ex.failures.chunk_failures}
        assert KIND_TIMEOUT in kinds

    def test_hang_poison_quarantined(self):
        injector = FaultInjector.poison(HANG, [3], hang_seconds=30)
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with ParallelExecutor(
            jobs=2,
            chunk_size=2,
            retry=policy,
            chunk_timeout=0.3,
            fault_injector=injector,
        ) as ex:
            with pytest.warns(RuntimeWarning):
                out = ex.map_shared(_square_chunk, 2, list(range(6)))
        assert out[3] is QUARANTINED
        assert ex.failures.quarantined[0].kind == KIND_TIMEOUT


@needs_fork
class TestStrictMode:
    def test_strict_reraises_worker_exception(self):
        injector = FaultInjector.once(error={4})
        with ParallelExecutor(
            jobs=2, strict=True, retry=FAST, fault_injector=injector
        ) as ex:
            with pytest.raises(InjectedFault):
                ex.map_shared(_square_chunk, 2, ITEMS)
        assert len(ex.failures.chunk_failures) == 1

    def test_strict_raises_on_worker_loss(self):
        injector = FaultInjector.once(crash={4})
        with ParallelExecutor(
            jobs=2, strict=True, retry=FAST, fault_injector=injector
        ) as ex:
            with pytest.raises(ChunkFailureError) as info:
                ex.map_shared(_square_chunk, 2, ITEMS)
        assert info.value.failure.kind == KIND_WORKER_LOST


class TestSerialSupervision:
    def test_error_once_recovers_inline(self):
        injector = FaultInjector.once(error={4})
        ex = ParallelExecutor(jobs=1, retry=FAST, fault_injector=injector)
        assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
        assert ex.failures.chunk_failures
        assert not ex.failures.quarantined

    def test_error_poison_quarantined_inline(self):
        injector = FaultInjector.poison(ERROR, [4])
        ex = ParallelExecutor(jobs=1, retry=FAST, fault_injector=injector)
        with pytest.warns(RuntimeWarning, match="quarantined item 4"):
            out = ex.map_shared(_square_chunk, 2, ITEMS)
        assert out[4] is QUARANTINED
        assert all(
            out[i] == EXPECT[i] for i in range(len(ITEMS)) if i != 4
        )
        assert ex.pool_stats.quarantined == 1

    def test_crash_and_hang_rules_inert_inline(self):
        # jobs=1 has no process boundary: crash/hang rules must not fire.
        injector = FaultInjector.once(crash={1}, hang={2}, hang_seconds=60)
        ex = ParallelExecutor(jobs=1, retry=FAST, fault_injector=injector)
        assert ex.map_shared(_square_chunk, 2, ITEMS) == EXPECT
        assert not ex.failures

    def test_strict_propagates_inline(self):
        injector = FaultInjector.once(error={4})
        ex = ParallelExecutor(
            jobs=1, strict=True, retry=FAST, fault_injector=injector
        )
        with pytest.raises(InjectedFault):
            ex.map_shared(_square_chunk, 2, ITEMS)


class TestValidation:
    def test_chunk_timeout_validated(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, chunk_timeout=0)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, chunk_timeout=-1.0)
        ParallelExecutor(jobs=1, chunk_timeout=5.0)  # legal
