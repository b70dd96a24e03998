"""Placement-policy interface and the ConRep/UnconRep machinery.

A placement policy chooses, for one user, up to ``k`` replica locations
among his replica candidates (friends on Facebook, followers on Twitter).
Two regimes (paper §II-A):

* **ConRep** — the chosen replicas must form a time-connected component
  seeded at the owner: the first replica must overlap the owner's
  schedule, each subsequent one must overlap some already-chosen member.
  A privacy-conscious decentralized OSN needs this, since replicas can
  then exchange updates without third-party storage.
* **UnconRep** — no connectivity constraint (replicas sync via CDN/DHT).

Policies are stateless; all inputs arrive through
:class:`PlacementContext`, and randomness flows through an explicit
``random.Random`` derived from the experiment seed.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.connectivity import OverlapCache
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules
from repro.timeline.intervals import IntervalSet

_EMPTY = IntervalSet.empty()

#: Regime names.
CONREP = "conrep"
UNCONREP = "unconrep"


@dataclass
class PlacementContext:
    """Everything a policy may consult when placing one user's replicas."""

    dataset: Dataset
    schedules: Schedules
    user: UserId
    mode: str = CONREP
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    #: Optional per-user memoized pairwise overlap matrix.  When set, the
    #: ConRep connectivity filter routes its overlap scans through it, so
    #: the scans are shared with (and reused by) the incremental
    #: evaluation engine; selections are identical either way.
    overlap_cache: Optional[OverlapCache] = None

    def __post_init__(self) -> None:
        if self.mode not in (CONREP, UNCONREP):
            raise ValueError(f"unknown placement mode {self.mode!r}")

    @property
    def candidates(self) -> Tuple[UserId, ...]:
        """The user's replica candidates, sorted for determinism."""
        return tuple(sorted(self.dataset.replica_candidates(self.user)))

    def schedule_of(self, user: UserId) -> IntervalSet:
        # ``[]``, not ``get``: a ScheduleMemo computes on a miss.
        try:
            return self.schedules[user]
        except KeyError:
            return _EMPTY


class ConnectivityTracker:
    """Incremental ConRep constraint: which candidates touch the group.

    A candidate is *connected* iff his schedule overlaps at least one
    member's (owner-seeded) — equivalently, overlaps the union of the
    members' schedules.  With a :class:`PlacementContext`
    ``overlap_cache`` each pairwise check goes through the cache, so
    every overlap scan lands in the matrix shared with the incremental
    evaluation engine; otherwise the two schedules are scanned directly.

    Connectivity only grows as members are admitted, so the tracker
    remembers which candidates were found connected and, for each one
    that was not, how many members it has been checked against: a later
    query scans only the members admitted since.  Each (candidate,
    member) pair is tested at most once per selection, and every answer
    equals a full scan over the current members.
    """

    def __init__(self, ctx: PlacementContext):
        self._ctx = ctx
        self._cache = ctx.overlap_cache
        self._members: List[UserId] = [ctx.user]
        self._connected: Set[UserId] = set()
        #: Unconnected candidate -> members checked so far (a prefix).
        self._checked: Dict[UserId, int] = {}

    def is_connected(self, candidate: UserId) -> bool:
        if candidate in self._connected:
            return True
        members = self._members
        new = members[self._checked.get(candidate, 0):]
        if self._cache is not None:
            overlaps = self._cache.overlaps
            hit = any(overlaps(candidate, m) for m in new)
        else:
            schedule_of = self._ctx.schedule_of
            schedule = schedule_of(candidate)
            hit = any(schedule.overlaps(schedule_of(m)) for m in new)
        if hit:
            self._connected.add(candidate)
        else:
            self._checked[candidate] = len(members)
        return hit

    def admit(self, candidate: UserId) -> None:
        self._members.append(candidate)

    def filter_connected(self, candidates: Sequence[UserId]) -> List[UserId]:
        return [c for c in candidates if self.is_connected(c)]


class PlacementPolicy(ABC):
    """Chooses replica locations for one user."""

    #: Registry/report name.
    name: str = "abstract"

    @abstractmethod
    def select(self, ctx: PlacementContext, k: int) -> Tuple[UserId, ...]:
        """Choose up to ``k`` replicas for ``ctx.user``.

        Under ConRep the result may be shorter than ``k`` ("the actual
        number of replicas chosen may be much lower than the maximum
        allowed replication degree, as enough connected replicas can not
        always be found" — §V-A1); UnconRep policies may also stop early
        when no candidate improves their objective.
        """

    def _check_k(self, k: int) -> None:
        if k < 0:
            raise ValueError("replication degree must be >= 0")

    def cache_key(self) -> Tuple[object, ...]:
        """Value identity for the content-addressed sweep cache.

        Two policy instances with equal cache keys must make identical
        selections for every context.  The default captures the class
        and the registry name, which suffices for parameter-free
        policies (and for MaxAv, whose name encodes its objective);
        policies with extra state — e.g. a history window — override
        and append it.
        """
        return (type(self).__qualname__, self.name)
