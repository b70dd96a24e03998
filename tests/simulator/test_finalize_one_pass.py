"""Property suite: the one-pass finalize against the finalize it replaced.

:func:`finalize_replication_stats` builds each group's update union
from creation-ordered stores and reads every update's arrival in every
store once; from that one row it derives the owner delay, completeness,
the full-replication time and the per-host observed delays.  The
reference below is a verbatim copy of the finalize it replaced, with
the per-store sort of ``ReplicaStore.updates`` and the per-update scan
of every store (``ProfileReplication.full_replication_time``) it
called.  The contract is bit identity: the same ``json.dumps(to_dict())``
*without* ``sort_keys``, on whole replays of both engines and on
hand-built groups with arbitrary arrival maps.
"""

import json
from typing import Callable, Dict, Mapping, Optional, Set, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.social_graph import UserId
from repro.simulator import (
    DecentralizedOSN,
    ProfileReplication,
    SimulationStats,
    Update,
    VectorizedReplay,
    finalize_replication_stats,
)
from repro.simulator import osn as osn_module
from repro.simulator import vectorized as vectorized_module
from repro.timeline import IntervalSet
from repro.timeline.day import DAY_SECONDS, HOUR_SECONDS

from tests.simulator.test_demand_driven_replay import scenarios


def _sorted_updates(store):
    """``ReplicaStore.updates`` as it was."""
    return sorted(
        store._updates.values(), key=lambda u: (u.created_at, u.uid)
    )


def _full_replication_time(
    group: ProfileReplication, uid: Tuple[UserId, int]
) -> Optional[float]:
    """``ProfileReplication.full_replication_time`` as it was."""
    times = []
    for store in group.stores.values():
        t = store.arrival_times.get(uid)
        if t is None:
            return None
        times.append(t)
    return max(times)


def _reference_finalize(
    stats: SimulationStats,
    replication: Mapping[UserId, ProfileReplication],
    tracked: Set[UserId],
    schedule_of: Callable[[UserId], IntervalSet],
) -> None:
    """``finalize_replication_stats`` as it was."""
    for profile in sorted(replication):
        group = replication[profile]
        is_tracked = profile in tracked
        all_updates = {}
        for store in group.stores.values():
            for update in _sorted_updates(store):
                all_updates[update.uid] = update
        owner_store = group.stores.get(profile)
        for uid, update in all_updates.items():
            if is_tracked and owner_store is not None:
                owner_arrival = owner_store.arrival_times.get(uid)
                if owner_arrival is None:
                    stats.undelivered_to_owner += 1
                else:
                    stats.add_owner_delay(
                        profile,
                        (owner_arrival - update.created_at) / HOUR_SECONDS,
                    )
            done_at = _full_replication_time(group, uid)
            if done_at is None:
                stats.incomplete_updates += 1
                continue
            if not is_tracked:
                continue
            delay = done_at - update.created_at
            stats.add_propagation(profile, delay / HOUR_SECONDS)
            for host, store in group.stores.items():
                arrived = store.arrival_times.get(uid)
                if arrived is None or arrived == update.created_at:
                    continue
                online_inside = schedule_of(host).measure_in_span(
                    update.created_at, arrived
                )
                stats.add_observed(profile, online_inside / HOUR_SECONDS)
        stats.tracked_profiles += 1
        if group.is_consistent():
            stats.consistent_profiles += 1


def _replay_json(engine_cls, scenario) -> str:
    dataset, schedules, placements, tracked, config = scenario
    engine = engine_cls(
        dataset, schedules, placements, config=config, tracked_profiles=tracked
    )
    return json.dumps(engine.run().to_dict())


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_replays_finalize_as_before_on_both_engines(scenario):
    for engine_cls, module in (
        (DecentralizedOSN, osn_module),
        (VectorizedReplay, vectorized_module),
    ):
        got = _replay_json(engine_cls, scenario)
        with mock.patch.object(
            module, "finalize_replication_stats", _reference_finalize
        ):
            ref = _replay_json(engine_cls, scenario)
        assert got == ref


#: One stored copy: ``(origin, seq, created_at, arrival delay)``.  The
#: small id range makes stores share ids, with equal or different
#: creation times (a hand-made duplicate id); delay 0 is an arrival
#: equal to creation, and a negative one an arrival before it.
_copy = st.tuples(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(0, 40).map(float),
    st.sampled_from([0.0, -5.0, 1.0, 3600.0, 90000.0, 200000.5]),
)
_schedule = st.lists(
    st.tuples(st.integers(0, 23), st.integers(1, 6)), max_size=3
).map(
    lambda pairs: IntervalSet(
        [
            (h * HOUR_SECONDS, min(DAY_SECONDS, (h + n) * HOUR_SECONDS))
            for h, n in pairs
        ]
    )
)


@st.composite
def groups(draw):
    """Replica groups of up to four hosts with arbitrary store contents.

    The owner's store is usually first, sometimes elsewhere and
    sometimes absent; stores receive their copies in draw order, so a
    store's insertion order is not its creation order.
    """
    replication: Dict[UserId, ProfileReplication] = {}
    schedules: Dict[UserId, IntervalSet] = {}
    for profile in draw(st.lists(st.integers(1, 9), unique=True, max_size=4)):
        others = draw(
            st.lists(st.integers(10, 14), unique=True, min_size=0, max_size=3)
        )
        hosts = [profile] + others
        if draw(st.booleans()):
            hosts = draw(st.permutations(hosts))
        if draw(st.integers(0, 4)) == 0:
            hosts.remove(profile)
        group = ProfileReplication(profile, hosts)
        for host in hosts:
            schedules[host] = draw(_schedule)
            copies = draw(st.lists(_copy, max_size=6))
            for origin, seq, created, delay in copies:
                update = Update(profile, origin, seq, created)
                group.store_of(host).apply(update, created + delay)
        replication[profile] = group
    tracked = set(draw(st.lists(st.sampled_from(sorted(replication) or [0]))))
    return replication, tracked, schedules


@settings(max_examples=400, deadline=None)
@given(groups())
def test_hand_built_groups_finalize_as_before(world):
    replication, tracked, schedules = world
    got, ref = SimulationStats(), SimulationStats()
    schedule_of = schedules.__getitem__
    finalize_replication_stats(got, replication, tracked, schedule_of)
    _reference_finalize(ref, replication, tracked, schedule_of)
    assert json.dumps(got.to_dict()) == json.dumps(ref.to_dict())


def test_full_replication_waits_for_every_replica():
    """An update counts as replicated once the last store holds it, at
    that store's arrival time (the old ``full_replication_time``)."""
    group = ProfileReplication(1, hosts=[1, 2])
    u = Update(profile=1, origin=2, seq=1, created_at=0.0)
    group.store_of(1).apply(u, now=0.0)
    assert _full_replication_time(group, u.uid) is None
    never = IntervalSet.empty()
    stats = SimulationStats()
    finalize_replication_stats(stats, {1: group}, {1}, lambda host: never)
    assert (stats.incomplete_updates, stats.propagation_by_profile) == (1, {})
    group.sync_pair(1, 2, now=7.0)
    assert _full_replication_time(group, u.uid) == 7.0
    stats = SimulationStats()
    finalize_replication_stats(stats, {1: group}, {1}, lambda host: never)
    assert stats.incomplete_updates == 0
    assert stats.propagation_by_profile == {1: [7.0 / HOUR_SECONDS]}
