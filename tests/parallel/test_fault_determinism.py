"""Determinism under failure (satellite of the fault-tolerance PR).

A sweep whose workers crash/hang/error once and are retried must return
floats identical to an uninterrupted run — across jobs counts, with the
clean run computed by the production engine or by the per-degree oracle (``tests/oracle.py``).  Quarantining a
poison user must equal running the sweep over the cohort without them.
"""

import functools

import pytest

from repro.core import CONREP, make_policy, select_cohort, sweep_replication_degree
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel
from repro.parallel import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    fork_available,
)
from repro.parallel.faults import CRASH, ERROR, HANG
from tests.oracle import oracle_sweeps

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)


@functools.lru_cache(maxsize=1)
def _dataset():
    return synthetic_facebook(420, seed=7)


@functools.lru_cache(maxsize=8)
def _baseline(reference="incremental", drop_user=None):
    """The clean serial run, computed by the production engine
    (``"incremental"``) or by the per-degree oracle (``"naive"``)."""
    ds = _dataset()
    users = select_cohort(ds, 6, max_users=10)
    if drop_user is not None:
        users = [u for u in users if u != drop_user]
    with oracle_sweeps(reference == "naive"):
        return _sweep(None, users=users)


def _sweep(executor, *, users=None):
    ds = _dataset()
    if users is None:
        users = select_cohort(ds, 6, max_users=10)
    return sweep_replication_degree(
        ds,
        SporadicModel(),
        [make_policy("maxav"), make_policy("random")],
        mode=CONREP,
        degrees=[0, 2, 4],
        users=list(users),
        seed=3,
        executor=executor,
    )


def _cohort():
    return select_cohort(_dataset(), 6, max_users=10)


@needs_fork
class TestFaultedSweepsMatchClean:
    @pytest.mark.parametrize("reference", ["incremental", "naive"])
    def test_crash_retry_is_float_identical(self, reference):
        clean = _baseline(reference=reference)
        victim = _cohort()[0]
        injector = FaultInjector.once(crash={victim})
        with ParallelExecutor(
            jobs=4, chunk_size=2, retry=FAST, fault_injector=injector
        ) as ex:
            faulted = _sweep(ex)
            assert ex.pool_stats.rebuilds >= 1
        assert faulted == clean

    def test_error_retry_is_float_identical(self):
        clean = _baseline()
        injector = FaultInjector.once(error={_cohort()[1]})
        with ParallelExecutor(
            jobs=4, chunk_size=2, retry=FAST, fault_injector=injector
        ) as ex:
            faulted = _sweep(ex)
            assert ex.pool_stats.retries >= 1
        assert faulted == clean

    def test_hang_recovery_is_float_identical(self):
        clean = _baseline()
        injector = FaultInjector.once(hang={_cohort()[2]}, hang_seconds=30)
        with ParallelExecutor(
            jobs=4,
            chunk_size=2,
            retry=FAST,
            chunk_timeout=2.0,
            fault_injector=injector,
        ) as ex:
            faulted = _sweep(ex)
            assert ex.pool_stats.timeouts >= 1
        assert faulted == clean

    def test_faulted_parallel_matches_clean_serial(self):
        # jobs=4 with a crash == jobs=1 with no executor at all.
        serial = _sweep(ParallelExecutor(jobs=1))
        injector = FaultInjector.once(crash={_cohort()[0]})
        with ParallelExecutor(
            jobs=4, chunk_size=3, retry=FAST, fault_injector=injector
        ) as ex:
            assert _sweep(ex) == serial


@needs_fork
class TestQuarantineEqualsExclusion:
    def test_poison_user_aggregate_matches_reduced_cohort(self):
        victim = _cohort()[3]
        reduced = _baseline(drop_user=victim)
        injector = FaultInjector.poison(ERROR, [victim])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with ParallelExecutor(
            jobs=2, chunk_size=2, retry=policy, fault_injector=injector
        ) as ex:
            with pytest.warns(RuntimeWarning):
                quarantined = _sweep(ex)
            assert ex.failures.quarantined_items() == [victim]
        assert quarantined == reduced

    def test_serial_quarantine_matches_reduced_cohort(self):
        victim = _cohort()[3]
        reduced = _baseline(drop_user=victim)
        injector = FaultInjector.poison(ERROR, [victim])
        ex = ParallelExecutor(jobs=1, retry=FAST, fault_injector=injector)
        with pytest.warns(RuntimeWarning):
            assert _sweep(ex) == reduced
