"""Property suite: anti-entropy's fast paths against a set-difference model.

:meth:`ProfileReplication.sync_pair` returns at once for a pair of
stores that each hold every update the group admitted, and
:meth:`ReplicaStore.missing_from` answers ``[]`` from a key-subset check
before its ordered scan.  The model below keeps each store as a plain
insertion-ordered dict and syncs by scanning both ways, always.  After
every step of a random interleaving of writes (sequenced and hand-made,
including ones that reuse an id), single deliveries and syncs, the
stores must match the model in contents, insertion order and arrival
times, and every sync must report the same ``moved`` count.
"""

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import ProfileReplication, ReplicaStore, Update

PROFILE = 1

#: One step on a group of up to four hosts (indices wrap):
#: ``("write", host, created_at)`` — a sequenced write at a host;
#: ``("hand", host, origin, seq, created_at)`` — a hand-made update;
#: ``("deliver", src, dst, k)`` — ``dst`` applies ``src``'s k-th update;
#: ``("sync", a, b)`` — anti-entropy between two hosts.
_host = st.integers(0, 3)
_time = st.integers(0, 50).map(float)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _host, _time),
        st.tuples(
            st.just("hand"), _host, st.integers(1, 3), st.integers(1, 6), _time
        ),
        st.tuples(st.just("deliver"), _host, _host, st.integers(0, 20)),
        st.tuples(st.just("sync"), _host, _host),
    ),
    max_size=60,
)


class _Model:
    """Each store as ``uid -> (update, arrival)`` in insertion order."""

    def __init__(self, hosts: List[int]):
        self.stores: Dict[int, Dict[Tuple[int, int], Tuple[Update, float]]] = {
            h: {} for h in hosts
        }

    def apply(self, host: int, update: Update, now: float) -> bool:
        store = self.stores[host]
        if update.uid in store:
            return False
        store[update.uid] = (update, now)
        return True

    def missing(self, mine: int, theirs: int) -> List[Update]:
        held = self.stores[mine]
        return [u for uid, (u, _t) in self.stores[theirs].items() if uid not in held]

    def sync(self, a: int, b: int, now: float) -> int:
        moved = 0
        for update in self.missing(a, b):
            moved += self.apply(a, update, now)
        for update in self.missing(b, a):
            moved += self.apply(b, update, now)
        return moved


def _assert_matches(group: ProfileReplication, model: _Model) -> None:
    for host, expected in model.stores.items():
        store = group.store_of(host)
        assert len(store) == len(expected)
        assert list(store.arrival_times.items()) == [
            (uid, t) for uid, (_u, t) in expected.items()
        ]
        assert store.updates == sorted(
            (u for u, _t in expected.values()),
            key=lambda u: (u.created_at, u.uid),
        )
    for a in model.stores:
        for b in model.stores:
            assert group.store_of(a).missing_from(group.store_of(b)) == (
                model.missing(a, b)
            )


@settings(max_examples=200, deadline=None)
@given(num_hosts=st.integers(1, 4), program=steps)
def test_sync_pair_matches_set_difference_model(num_hosts, program):
    hosts = list(range(10, 10 + num_hosts))
    group = ProfileReplication(PROFILE, hosts)
    model = _Model(hosts)
    now = 0.0
    for step in program:
        now += 1.0
        kind = step[0]
        if kind == "write":
            host = hosts[step[1] % num_hosts]
            update = Update(PROFILE, host, group.next_seq(), step[2])
            assert group.store_of(host).apply(update, now) == model.apply(
                host, update, now
            )
        elif kind == "hand":
            _, host, origin, seq, created = step
            host = hosts[host % num_hosts]
            update = Update(PROFILE, origin, seq, created, payload="hand")
            assert group.store_of(host).apply(update, now) == model.apply(
                host, update, now
            )
        elif kind == "deliver":
            _, src, dst, k = step
            src, dst = hosts[src % num_hosts], hosts[dst % num_hosts]
            held = list(model.stores[src].values())
            if held:
                update = held[k % len(held)][0]
                assert group.store_of(dst).apply(update, now) == model.apply(
                    dst, update, now
                )
        else:
            a, b = hosts[step[1] % num_hosts], hosts[step[2] % num_hosts]
            assert group.sync_pair(a, b, now) == model.sync(a, b, now)
        _assert_matches(group, model)


@settings(max_examples=100, deadline=None)
@given(
    held=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8)), max_size=12),
    other=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8)), max_size=12),
)
def test_missing_from_on_stores_outside_a_group(held, other):
    mine, theirs = ReplicaStore(PROFILE, 1), ReplicaStore(PROFILE, 2)
    for origin, seq in held:
        mine.apply(Update(PROFILE, origin, seq, 0.0), 0.0)
    for origin, seq in other:
        theirs.apply(Update(PROFILE, origin, seq, 1.0), 1.0)
    expected = [u for u in theirs.arrival_times if u not in mine]
    assert [u.uid for u in mine.missing_from(theirs)] == expected
