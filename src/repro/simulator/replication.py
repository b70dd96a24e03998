"""Profile replicas: update logs, version vectors, eventual consistency.

Each user's profile is an append-only log of updates (wall posts / tweets
landing on the profile).  Every replica — including the owner's own copy —
holds a :class:`ReplicaStore` with the subset of updates it has seen,
summarised by a version vector (origin → highest contiguous sequence
number).  Anti-entropy between two online replicas exchanges exactly the
missing updates in both directions, which gives eventual consistency: once
every pair of replicas has shared an online window after the last write,
all stores converge (property-tested in the suite).

Most anti-entropy rounds find nothing to move, so a group counts the
distinct updates its stores have admitted: a store that holds that many
holds every one of them, and a pair of such stores is converged without
a scan.  Where a scan is needed, a subset check of the key views runs
before the ordered scan, whose order fixes the order of the transfers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.social_graph import UserId


@dataclass(frozen=True)
class Update:
    """One profile update: ``origin``'s ``seq``-th write to ``profile``."""

    profile: UserId
    origin: UserId
    seq: int
    created_at: float
    payload: str = ""

    @property
    def uid(self) -> Tuple[UserId, int]:
        """Identity of the update within its profile's log."""
        return (self.origin, self.seq)


#: Creation order of updates: by time, then identity ``(origin, seq)``.
_CREATION_ORDER = attrgetter("created_at", "origin", "seq")


class ReplicaStore:
    """One node's copy of one profile."""

    def __init__(
        self,
        profile: UserId,
        host: UserId,
        admitted: Optional[Set[Tuple[UserId, int]]] = None,
    ):
        self.profile = profile
        self.host = host
        self._updates: Dict[Tuple[UserId, int], Update] = {}
        #: When each update arrived at this store (simulation time).
        self.arrival_times: Dict[Tuple[UserId, int], float] = {}
        #: Ids of every update admitted by any store sharing this set:
        #: :class:`ProfileReplication` passes one set to all its stores.
        self._admitted = set() if admitted is None else admitted

    def __len__(self) -> int:
        return len(self._updates)

    def __contains__(self, uid: Tuple[UserId, int]) -> bool:
        return uid in self._updates

    @property
    def updates(self) -> List[Update]:
        """All stored updates, ordered by creation time then identity."""
        return sorted(self._updates.values(), key=_CREATION_ORDER)

    def version_vector(self) -> Dict[UserId, int]:
        """origin → number of updates held from that origin.

        Anti-entropy exchanges by set difference of update ids, so gaps
        from out-of-order arrival are harmless; the vector is a summary
        used for cheap convergence checks.
        """
        vv: Dict[UserId, int] = {}
        for origin, _seq in self._updates:
            vv[origin] = vv.get(origin, 0) + 1
        return vv

    def apply(self, update: Update, now: float) -> bool:
        """Store ``update`` if new; returns whether it was new."""
        if update.profile != self.profile:
            raise ValueError(
                f"update for profile {update.profile} offered to store of "
                f"profile {self.profile}"
            )
        uid = update.uid
        if uid in self._updates:
            return False
        self._updates[uid] = update
        self.arrival_times[uid] = now
        self._admitted.add(uid)
        return True

    def missing_from(self, other: "ReplicaStore") -> List[Update]:
        """Updates ``other`` holds that this store lacks, in ``other``'s
        arrival order."""
        mine = self._updates
        theirs = other._updates
        if theirs.keys() <= mine.keys():
            return []
        return [u for uid, u in theirs.items() if uid not in mine]

    def synchronized_with(self, other: "ReplicaStore") -> bool:
        return set(self._updates) == set(other._updates)


class ProfileReplication:
    """All replica stores of one profile plus its write sequencing."""

    def __init__(self, profile: UserId, hosts: Iterable[UserId]):
        self.profile = profile
        #: Every update id any store has admitted.  A store of this
        #: size holds them all, which is what :meth:`sync_pair` checks.
        self._admitted: Set[Tuple[UserId, int]] = set()
        self.stores: Dict[UserId, ReplicaStore] = {
            host: ReplicaStore(profile, host, self._admitted) for host in hosts
        }
        self._hosts_sorted = sorted(self.stores)
        self._seq = itertools.count(1)

    @property
    def hosts(self) -> List[UserId]:
        """Hosts in sorted order (membership is fixed at construction)."""
        return self._hosts_sorted

    def next_seq(self) -> int:
        return next(self._seq)

    def store_of(self, host: UserId) -> ReplicaStore:
        return self.stores[host]

    def is_consistent(self) -> bool:
        """Whether every replica holds the same update set."""
        stores = list(self.stores.values())
        return all(
            stores[0].synchronized_with(other) for other in stores[1:]
        )

    def sync_pair(self, a: UserId, b: UserId, now: float) -> int:
        """Bidirectional anti-entropy between two hosts; returns the number
        of updates transferred.

        Two stores that each hold every admitted update are converged
        and exchange nothing, so the pair returns before any scan.
        """
        sa, sb = self.stores[a], self.stores[b]
        admitted = len(self._admitted)
        if len(sa._updates) == admitted and len(sb._updates) == admitted:
            return 0
        moved = 0
        for update in sa.missing_from(sb):
            sa.apply(update, now)
            moved += 1
        for update in sb.missing_from(sa):
            sb.apply(update, now)
            moved += 1
        return moved
