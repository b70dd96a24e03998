"""Sharded sweeps: a ShardedDataset source is an execution choice.

Streaming a dataset shard by shard changes how much of it is in memory
at once — never what is computed.  Each shard view's per-user cells are
the eager dataset's, and the sweep aggregates them in cohort order with
the eager arithmetic, so every driver's series over
``ShardedDataset(spec, k)`` must equal the eager ``spec.eager()`` sweep
on exact float equality, for every shard count — the same contract
``jobs`` and the per-degree oracle obey.  ``AggregateMetrics.merge``
(a weighted rollup of disjoint cohorts, which no sweep uses) is
exercised separately, approximately.
"""

import dataclasses
import functools
import math

import pytest

from repro.core import (
    AggregateMetrics,
    evaluate_user,
    make_policy,
    placement_sequences,
    select_cohort,
    sweep_replication_degree,
    sweep_session_length,
    sweep_user_degree,
)
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps

SPEC = SyntheticSpec("facebook", 600, seed=5)


@functools.lru_cache(maxsize=1)
def _dataset():
    return SPEC.eager()


@functools.lru_cache(maxsize=None)
def _sharded(shards):
    return ShardedDataset(SPEC, shards)


def _source(shards):
    """The eager dataset for ``shards=None``, else a sharded source."""
    return _dataset() if shards is None else _sharded(shards)


def _replication_degree(source, users=None, **knobs):
    return sweep_replication_degree(
        source,
        SporadicModel(),
        [make_policy("maxav"), make_policy("random")],
        degrees=list(range(5)),
        users=users or select_cohort(_dataset(), 10, max_users=9),
        seed=0,
        repeats=2,
        **knobs,
    )


def _session_length(source, **knobs):
    return sweep_session_length(
        source,
        (1000, 10000),
        [make_policy("random")],
        mode="conrep",
        k=2,
        users=select_cohort(_dataset(), 10, max_users=6),
        seed=0,
        repeats=2,
        **knobs,
    )


def _user_degree(source, **knobs):
    return sweep_user_degree(
        source,
        SporadicModel(),
        [make_policy("maxav")],
        mode="conrep",
        user_degrees=[2, 3],
        max_users_per_degree=6,
        seed=0,
        repeats=2,
        **knobs,
    )


_DRIVERS = {
    "replication_degree": _replication_degree,
    "session_length": _session_length,
    "user_degree": _user_degree,
}


def _sweep(*, shards, executor=None):
    return _replication_degree(_source(shards), executor=executor)


class TestShardedSweepBitIdentity:
    def test_sharded_equals_unsharded(self):
        users = select_cohort(_dataset(), 10, max_users=9)
        owners = {u for u in users if u in _sharded(3).shard_users(0)}
        assert 0 < len(owners) < len(users)  # the cohort spans shards
        assert _sweep(shards=3) == _sweep(shards=None)

    def test_more_shards_than_users_equals_unsharded(self):
        # 9 cohort users, 50 shards: most shards own none and build no
        # view.
        assert _sweep(shards=50) == _sweep(shards=None)

    def test_sharded_equals_unsharded_naive(self):
        baseline = _sweep(shards=None)
        with oracle_sweeps():
            assert _sweep(shards=3) == baseline

    @pytest.mark.skipif(not fork_available(), reason="needs fork pools")
    def test_sharded_equals_unsharded_across_jobs(self):
        baseline = _sweep(shards=None)
        with ParallelExecutor(jobs=2) as executor:
            assert _sweep(shards=3, executor=executor) == baseline

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            _sweep(shards=0)

    def test_session_length_sweep_sharded(self):
        assert _session_length(_sharded(2)) == _session_length(_dataset())

    def test_user_degree_sweep_sharded(self):
        assert _user_degree(_sharded(2)) == _user_degree(_dataset())

    def test_unsorted_cohort_aggregates_in_cohort_order(self):
        # Views hand back cells shard by shard; the rollup must still
        # follow the caller's cohort order, as the eager sweep does.
        users = select_cohort(_dataset(), 10, max_users=9)[::-1]
        assert _replication_degree(_sharded(3), users) == (
            _replication_degree(_dataset(), users)
        )

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    @pytest.mark.parametrize("driver", sorted(_DRIVERS))
    @pytest.mark.parametrize(
        "jobs,oracle",
        [(1, False), (1, True), (2, False), (2, True)],
        ids=["serial", "serial-oracle", "jobs2", "jobs2-oracle"],
    )
    def test_every_driver_equals_eager(self, jobs, oracle, driver, shards):
        if jobs > 1 and not fork_available():
            pytest.skip("needs fork pools")
        sweep = _DRIVERS[driver]
        eager = sweep(_dataset())
        with ParallelExecutor(jobs=jobs) as executor:
            with oracle_sweeps(oracle):
                got = sweep(_sharded(shards), executor=executor)
        assert got == eager


class TestAggregateMerge:
    def _per_user(self):
        ds = _dataset()
        users = select_cohort(ds, 10, max_users=8)
        schedules = compute_schedules(ds, SporadicModel(), seed=0)
        sequences = placement_sequences(
            ds, schedules, users, make_policy("maxav"), max_degree=3, seed=0
        )
        return [
            evaluate_user(ds, schedules, u, sequences[u]) for u in users
        ]

    def test_merge_matches_single_pass_approximately(self):
        metrics = self._per_user()
        whole = AggregateMetrics.from_users(metrics)
        parts = [
            AggregateMetrics.from_users(metrics[:3]),
            AggregateMetrics.from_users(metrics[3:5]),
            AggregateMetrics.from_users(metrics[5:]),
        ]
        merged = AggregateMetrics.merge(parts)
        assert merged.num_users == whole.num_users
        assert merged.num_infinite_delay == whole.num_infinite_delay
        assert (
            merged.num_infinite_delay_observed
            == whole.num_infinite_delay_observed
        )
        for field in dataclasses.fields(AggregateMetrics):
            got = getattr(merged, field.name)
            want = getattr(whole, field.name)
            assert got == pytest.approx(want, rel=1e-12), field.name

    def test_merge_weights_by_cohort_size(self):
        metrics = self._per_user()
        big = AggregateMetrics.from_users(metrics[:6])
        small = AggregateMetrics.from_users(metrics[6:])
        merged = AggregateMetrics.merge([big, small])
        # Equal-weight averaging (what .mean does for repeats) would be
        # wrong here unless the parts happen to agree.
        expected = (
            big.availability * big.num_users
            + small.availability * small.num_users
        ) / (big.num_users + small.num_users)
        assert merged.availability == pytest.approx(expected, rel=1e-12)

    def test_merge_single_part_is_identity(self):
        whole = AggregateMetrics.from_users(self._per_user())
        assert AggregateMetrics.merge([whole]) == whole

    def test_merge_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            AggregateMetrics.merge([])

    def test_merge_all_infinite_delay_part(self):
        base = AggregateMetrics.from_users(self._per_user()[:2])
        # A part whose every user had infinite delay reports 0.0 over a
        # zero-weight sample; it must not drag the merged delay down.
        inf_part = dataclasses.replace(
            base,
            delay_hours_actual=0.0,
            num_infinite_delay=base.num_users,
        )
        merged = AggregateMetrics.merge([base, inf_part])
        assert merged.delay_hours_actual == pytest.approx(
            base.delay_hours_actual
        )
        assert merged.num_infinite_delay == base.num_infinite_delay + (
            base.num_users
        )
        assert not math.isinf(merged.delay_hours_actual)
