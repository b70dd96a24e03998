"""Cohort-sharded sweeps: ``shards=`` is an execution knob.

Splitting a sweep cohort into contiguous slices changes how much work
is in flight at once — never what is computed.  The per-user cells of
all slices are concatenated before the rollup, so the sharded series
must equal the unsharded one on exact float equality, the same
contract ``jobs`` and the per-degree oracle obey.
``AggregateMetrics.merge`` (the cross-shard-*dataset* rollup, which is
weighted rather than cell-concatenated) is exercised separately,
approximately.
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
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps


@functools.lru_cache(maxsize=1)
def _dataset():
    return synthetic_facebook(600, seed=5)


def _sweep(*, shards, executor=None):
    ds = _dataset()
    users = select_cohort(ds, 10, max_users=9)
    return sweep_replication_degree(
        ds,
        SporadicModel(),
        [make_policy("maxav"), make_policy("random")],
        degrees=list(range(5)),
        users=users,
        seed=0,
        repeats=2,
        shards=shards,
        executor=executor,
    )


class TestShardedSweepBitIdentity:
    def test_sharded_equals_unsharded(self):
        assert _sweep(shards=3) == _sweep(shards=1)

    def test_more_shards_than_users_equals_unsharded(self):
        # 9 cohort users, 50 shards: most slices are empty and skipped.
        assert _sweep(shards=50) == _sweep(shards=1)

    def test_sharded_equals_unsharded_naive(self):
        baseline = _sweep(shards=1)
        with oracle_sweeps():
            assert _sweep(shards=3) == baseline

    @pytest.mark.skipif(not fork_available(), reason="needs fork pools")
    def test_sharded_equals_unsharded_across_jobs(self):
        baseline = _sweep(shards=1)
        with ParallelExecutor(jobs=2) as executor:
            assert _sweep(shards=3, executor=executor) == baseline

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            _sweep(shards=0)

    def test_session_length_sweep_sharded(self):
        ds = _dataset()
        users = select_cohort(ds, 10, max_users=6)
        kwargs = dict(
            mode="conrep", k=2, users=users, seed=0, repeats=1
        )
        policies = [make_policy("random")]
        a = sweep_session_length(ds, (1000, 10000), policies, **kwargs)
        b = sweep_session_length(
            ds, (1000, 10000), policies, shards=2, **kwargs
        )
        assert a == b

    def test_user_degree_sweep_sharded(self):
        ds = _dataset()
        kwargs = dict(
            mode="conrep",
            user_degrees=[2, 3],
            max_users_per_degree=6,
            seed=0,
            repeats=1,
        )
        policies = [make_policy("maxav")]
        a = sweep_user_degree(ds, SporadicModel(), policies, **kwargs)
        b = sweep_user_degree(
            ds, SporadicModel(), policies, shards=2, **kwargs
        )
        assert a == b


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
