"""Tests for replica stores and anti-entropy, incl. convergence property."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import (
    ProfileReplication,
    ReplicaStore,
    SimulationStats,
    Update,
    finalize_replication_stats,
)
from repro.timeline import DAY_SECONDS, IntervalSet


def _update(profile=1, origin=2, seq=1, t=0.0):
    return Update(profile=profile, origin=origin, seq=seq, created_at=t)


class TestReplicaStore:
    def test_apply_new(self):
        store = ReplicaStore(profile=1, host=5)
        assert store.apply(_update(), now=3.0)
        assert len(store) == 1
        assert (2, 1) in store
        assert store.arrival_times[(2, 1)] == 3.0

    def test_apply_duplicate_is_noop(self):
        store = ReplicaStore(profile=1, host=5)
        store.apply(_update(), now=3.0)
        assert not store.apply(_update(), now=9.0)
        assert store.arrival_times[(2, 1)] == 3.0  # first arrival kept

    def test_apply_wrong_profile_rejected(self):
        store = ReplicaStore(profile=1, host=5)
        with pytest.raises(ValueError):
            store.apply(_update(profile=2), now=0.0)

    def test_updates_sorted_by_creation(self):
        store = ReplicaStore(profile=1, host=5)
        store.apply(_update(seq=2, t=10.0), now=11.0)
        store.apply(_update(seq=1, t=5.0), now=12.0)
        assert [u.seq for u in store.updates] == [1, 2]

    def test_version_vector_counts_per_origin(self):
        store = ReplicaStore(profile=1, host=5)
        store.apply(_update(origin=2, seq=1), now=0)
        store.apply(_update(origin=2, seq=2), now=0)
        store.apply(_update(origin=3, seq=3), now=0)
        assert store.version_vector() == {2: 2, 3: 1}

    def test_missing_from(self):
        a = ReplicaStore(profile=1, host=5)
        b = ReplicaStore(profile=1, host=6)
        u1, u2 = _update(seq=1), _update(seq=2)
        a.apply(u1, now=0)
        b.apply(u1, now=0)
        b.apply(u2, now=0)
        assert a.missing_from(b) == [u2]
        assert b.missing_from(a) == []

    def test_synchronized_with(self):
        a = ReplicaStore(profile=1, host=5)
        b = ReplicaStore(profile=1, host=6)
        assert a.synchronized_with(b)
        a.apply(_update(), now=0)
        assert not a.synchronized_with(b)


class TestProfileReplication:
    def test_seq_monotonic(self):
        group = ProfileReplication(1, hosts=[1, 2])
        assert group.next_seq() < group.next_seq()

    def test_sync_pair_bidirectional(self):
        group = ProfileReplication(1, hosts=[1, 2])
        group.store_of(1).apply(_update(seq=1), now=0)
        group.store_of(2).apply(_update(seq=2), now=0)
        moved = group.sync_pair(1, 2, now=5.0)
        assert moved == 2
        assert group.is_consistent()

    def test_is_consistent_initially(self):
        assert ProfileReplication(1, hosts=[1, 2, 3]).is_consistent()


def test_finalize_duplicate_id_takes_last_store_object_at_first_position():
    """Two stores hold different updates with one ``(origin, seq)``.

    Finalize lists the update where the first store (the owner's) holds
    it in creation order, but measures it from the last store's object:
    its ``created_at`` is the one every delay is taken from.
    """
    group = ProfileReplication(1, hosts=[1, 2])
    early, late = _update(seq=2, t=3.0), _update(seq=1, t=5.0)
    # Store 1 orders (2, 2)@3 before (2, 1)@5; store 2's (2, 1) is
    # created at 1.0, so the creation order of its object alone would
    # put it first.
    group.store_of(1).apply(early, now=4.0)
    group.store_of(1).apply(late, now=6.0)
    group.store_of(2).apply(_update(seq=1, t=1.0), now=2.0)
    group.store_of(2).apply(early, now=8.0)
    stats = SimulationStats()
    always = IntervalSet([(0, DAY_SECONDS)])
    finalize_replication_stats(stats, {1: group}, {1}, lambda host: always)
    hour = 3600.0
    assert stats.owner_delay_by_profile[1] == [
        (4.0 - 3.0) / hour,
        (6.0 - 1.0) / hour,
    ]
    assert stats.propagation_by_profile[1] == [
        (8.0 - 3.0) / hour,
        (6.0 - 1.0) / hour,
    ]
    assert stats.observed_by_profile[1] == [
        (4.0 - 3.0) / hour,
        (8.0 - 3.0) / hour,
        (6.0 - 1.0) / hour,
        (2.0 - 1.0) / hour,
    ]
    assert (stats.incomplete_updates, stats.consistent_profiles) == (0, 1)


class TestEventualConsistency:
    """Property: any sequence of writes followed by enough pairwise syncs
    along a connected sync topology converges every store."""

    @settings(max_examples=40, deadline=None)
    @given(
        num_hosts=st.integers(min_value=2, max_value=5),
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # host index
                st.integers(min_value=0, max_value=100),  # pseudo time
            ),
            max_size=15,
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_chain_sync_converges(self, num_hosts, writes, seed):
        hosts = list(range(1, num_hosts + 1))
        group = ProfileReplication(profile=1, hosts=hosts)
        for host_idx, t in writes:
            host = hosts[host_idx % num_hosts]
            u = Update(
                profile=1, origin=host, seq=group.next_seq(), created_at=t
            )
            group.store_of(host).apply(u, now=t)
        # A forward then backward sweep along a chain topology guarantees
        # full convergence (left- and right-propagation respectively).
        rng = random.Random(seed)
        order = hosts[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            group.sync_pair(a, b, now=1000.0)
        backward = list(reversed(order))
        for a, b in zip(backward, backward[1:]):
            group.sync_pair(a, b, now=1001.0)
        assert group.is_consistent()

    def test_sync_idempotent(self):
        group = ProfileReplication(1, hosts=[1, 2])
        group.store_of(1).apply(_update(seq=1), now=0)
        group.sync_pair(1, 2, now=1.0)
        assert group.sync_pair(1, 2, now=2.0) == 0
