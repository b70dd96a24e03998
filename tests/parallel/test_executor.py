"""Tests for the shared-payload process-pool executor."""

import multiprocessing

import pytest

from repro.parallel import (
    FaultInjector,
    InjectedFault,
    ParallelExecutor,
    RetryPolicy,
    fork_available,
    resolve_jobs,
)


def _square_chunk(payload, chunk):
    """Top-level worker (process pools resolve it by module path)."""
    return [payload * item * item for item in chunk]


def _bad_chunk(payload, chunk):
    return chunk[:-1]  # drops one result


class TestResolveJobs:
    def test_defaults(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=-2)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, chunk_size=0)


class TestSerialPath:
    def test_identity_and_order(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.is_serial
        assert ex.map_shared(_square_chunk, 3, [1, 2, 3]) == [3, 12, 27]

    def test_empty_items(self):
        assert ParallelExecutor(jobs=1).map_shared(_square_chunk, 1, []) == []

    def test_result_count_mismatch_detected(self):
        with pytest.raises(RuntimeError):
            ParallelExecutor(jobs=1).map_shared(_bad_chunk, None, [1, 2])

    def test_timings_accumulate(self):
        ex = ParallelExecutor(jobs=1)
        ex.map_shared(_square_chunk, 1, [1, 2], phase="p")
        ex.map_shared(_square_chunk, 1, [3], phase="p")
        timing = ex.timings["p"]
        assert timing.items == 3
        assert timing.calls == 2
        assert timing.seconds >= 0
        as_dict = ex.timings_dict()["p"]
        assert set(as_dict) == {"seconds", "items", "calls", "items_per_second"}


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestParallelPath:
    def test_matches_serial_in_order(self):
        items = list(range(23))
        serial = ParallelExecutor(jobs=1).map_shared(_square_chunk, 2, items)
        parallel = ParallelExecutor(jobs=3).map_shared(_square_chunk, 2, items)
        assert parallel == serial

    def test_explicit_chunk_size(self):
        ex = ParallelExecutor(jobs=2, chunk_size=1)
        assert ex.map_shared(_square_chunk, 1, [4, 5]) == [16, 25]

    def test_more_jobs_than_items(self):
        ex = ParallelExecutor(jobs=8)
        assert ex.map_shared(_square_chunk, 1, [2]) == [4]

    def test_jobs_zero_uses_all_cpus(self):
        ex = ParallelExecutor(jobs=0)
        assert ex.effective_jobs >= 1
        assert ex.map_shared(_square_chunk, 1, [1, 2, 3]) == [1, 4, 9]


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestPersistentPool:
    """Pool starts: one per parallel call, since no pool outlives one."""

    def test_pool_restarted_on_payload_change(self):
        with ParallelExecutor(jobs=2) as ex:
            assert ex.map_shared(_square_chunk, 1, [2]) == [4]
            assert ex.map_shared(_square_chunk, 3, [2]) == [12]
            assert ex.pool_stats.starts == 2

    def test_pool_restarted_on_worker_change(self):
        with ParallelExecutor(jobs=2) as ex:
            ex.map_shared(_square_chunk, 1, [1])
            with pytest.raises(RuntimeError):
                ex.map_shared(_bad_chunk, 1, [1, 2])
            assert ex.pool_stats.starts == 2

    def test_close_is_idempotent_and_allows_restart(self):
        ex = ParallelExecutor(jobs=2)
        ex.map_shared(_square_chunk, 1, [3])
        ex.close()
        ex.close()
        assert ex.map_shared(_square_chunk, 1, [3]) == [9]
        assert ex.pool_stats.starts == 2
        ex.close()

    def test_serial_path_never_starts_a_pool(self):
        ex = ParallelExecutor(jobs=1)
        ex.map_shared(_square_chunk, 2, [1, 2])
        assert ex.pool_stats.starts == 0


#: No real sleeping between retries.
_FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)
_ITEMS = list(range(12))


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
class TestPoolLifecycle:
    """No worker process outlives a ``map_shared`` call, however it ends."""

    def test_no_worker_outlives_a_call(self):
        ex = ParallelExecutor(jobs=2)
        assert ex.map_shared(_square_chunk, 2, _ITEMS) == [
            2 * i * i for i in _ITEMS
        ]
        assert multiprocessing.active_children() == []

    def test_consecutive_calls_start_one_pool_each(self):
        ex = ParallelExecutor(jobs=2)
        ex.map_shared(_square_chunk, 2, _ITEMS)
        ex.map_shared(_square_chunk, 2, _ITEMS)
        assert ex.pool_stats.starts == 2
        assert ex.pool_stats.rebuilds == 0
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_strict_raise(self):
        ex = ParallelExecutor(
            jobs=2,
            strict=True,
            retry=_FAST,
            fault_injector=FaultInjector.once(error={4}),
        )
        with pytest.raises(InjectedFault):
            ex.map_shared(_square_chunk, 2, _ITEMS)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_crash_recovery(self):
        ex = ParallelExecutor(
            jobs=2,
            chunk_size=3,
            retry=_FAST,
            fault_injector=FaultInjector.once(crash={5}),
        )
        assert ex.map_shared(_square_chunk, 2, _ITEMS) == [
            2 * i * i for i in _ITEMS
        ]
        assert ex.pool_stats.rebuilds >= 1
        assert ex.pool_stats.starts == 1 + ex.pool_stats.rebuilds
        assert multiprocessing.active_children() == []


class TestTimingDeltas:
    def test_timings_since_reports_only_new_activity(self):
        ex = ParallelExecutor(jobs=1)
        ex.map_shared(_square_chunk, 1, [1, 2], phase="a")
        mark = ex.snapshot_timings()
        ex.map_shared(_square_chunk, 1, [3, 4, 5], phase="a")
        ex.map_shared(_square_chunk, 1, [6], phase="b")
        deltas = ex.timings_since(mark)
        assert deltas["a"]["items"] == 3
        assert deltas["a"]["calls"] == 1
        assert deltas["b"]["items"] == 1
        mark2 = ex.snapshot_timings()
        assert ex.timings_since(mark2) == {}

    def test_pool_stats_since(self):
        ex = ParallelExecutor(jobs=1)
        mark = ex.pool_stats.snapshot()
        ex.pool_stats.starts += 2
        ex.pool_stats.retries += 1
        assert ex.pool_stats.since(mark) == {
            "starts": 2,
            "rebuilds": 0,
            "retries": 1,
            "timeouts": 0,
            "quarantined": 0,
        }
