"""Parallel sweeps must be bit-identical to serial ones.

This is the determinism contract of the whole engine: ``jobs=N`` only
changes where per-user work runs, never what is computed.  Equality is
checked on the frozen ``AggregateMetrics`` dataclasses, i.e. exact float
equality — not approximate.
"""

import functools

import pytest

from repro.core import (
    make_policy,
    placement_sequences,
    select_cohort,
    sweep_replication_degree,
)
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


@functools.lru_cache(maxsize=1)
def _dataset():
    return synthetic_facebook(600, seed=5)


def _sweep(executor):
    ds = _dataset()
    users = select_cohort(ds, 10, max_users=10)
    return sweep_replication_degree(
        ds,
        SporadicModel(),
        [make_policy("maxav"), make_policy("mostactive"), make_policy("random")],
        degrees=list(range(6)),
        users=users,
        seed=0,
        repeats=2,
        executor=executor,
    )


class TestSweepBitIdentity:
    def test_jobs2_equals_serial(self):
        serial = _sweep(ParallelExecutor(jobs=1))
        parallel = _sweep(ParallelExecutor(jobs=2))
        assert parallel == serial  # exact dataclass equality, all floats

    def test_jobs4_chunked_equals_serial(self):
        serial = _sweep(ParallelExecutor(jobs=1))
        parallel = _sweep(ParallelExecutor(jobs=4, chunk_size=1))
        assert parallel == serial

    def test_default_executor_is_serial(self):
        baseline = _sweep(None)
        assert baseline == _sweep(ParallelExecutor(jobs=1))

    def test_jobs2_equals_serial_oracle(self):
        # The pool runs the production engine; the serial reference is
        # the per-degree oracle.
        with oracle_sweeps():
            oracle = _sweep(ParallelExecutor(jobs=1))
        with ParallelExecutor(jobs=2) as executor:
            assert _sweep(executor) == oracle


class TestPlacementSequencesParallel:
    def test_sequences_identical_and_ordered(self):
        ds = _dataset()
        users = select_cohort(ds, 10, max_users=10)
        schedules = compute_schedules(ds, SporadicModel(), seed=1)
        policy = make_policy("random")
        serial = placement_sequences(
            ds, schedules, users, policy, max_degree=5, seed=1
        )
        parallel = placement_sequences(
            ds,
            schedules,
            users,
            policy,
            max_degree=5,
            seed=1,
            executor=ParallelExecutor(jobs=2),
        )
        assert parallel == serial
        assert list(parallel) == list(users)  # keyed in cohort order


class TestSweepTimings:
    def test_phases_recorded(self):
        cohort = select_cohort(_dataset(), 10, max_users=10)
        ex = ParallelExecutor(jobs=2)
        _sweep(ex)
        timing = ex.timings["sweep[sporadic]"]
        assert timing.calls == 2  # one per repeat
        assert timing.items == 2 * len(cohort)
        assert timing.seconds > 0
