"""Replica time-connectivity graph and update-propagation delays.

The paper (§II-C3) defines a weighted graph over a user's replica group:
nodes are the replicas (we include the owner, where updates originate),
with an edge between two replicas that are *connected in time* (their
daily schedules overlap).  The worst case for an update is to just miss a
shared window, waiting a full day minus the overlap, so the edge weight is
``DAY - overlap``; updates travel multi-hop along shortest paths, and the
**update propagation delay** of the group is the weighted diameter — "the
longest of the shortest paths among all pairs" (48 − d₁ − d₂ hours in the
paper's Fig. 1 example).

Two refinements from the paper are also implemented:

* the **observed** delay excludes the time the receiving node is offline
  from the wait (the friend only experiences delay while online);
* the **UnconRep** regime syncs replicas through third-party storage
  (CDN/DHT): the source uploads during its next online window and the
  destination downloads during its own, so the worst-case pair delay is
  the sum of the two nodes' worst-case waits to come online.

The delay functions are built on :class:`IncrementalAPSP`, which maintains
all-pairs shortest paths under one-node-at-a-time insertion in O(n²) per
insert.  That makes the delay of every *prefix* of a replica selection
sequence available along the way: the state after inserting the first
``k+1`` members is exactly the state the full rebuild for that prefix
would produce, operation for operation — which is what lets the
incremental sweep engine (:mod:`repro.core.incremental`) report
float-identical delays for all replication degrees in a single pass.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graph.social_graph import UserId
from repro.timeline.day import DAY_SECONDS, seconds_to_hours
from repro.timeline.intervals import IntervalSet

_EMPTY = IntervalSet.empty()


@dataclass(frozen=True)
class ReplicaGroup:
    """A user's profile replica set, with every member's daily schedule.

    ``members`` is the owner followed by the replicas (selection order);
    ``schedules`` maps each member to his schedule.  The owner always hosts
    his own profile, so a replication degree of 0 is a group of one.
    """

    owner: UserId
    replicas: Tuple[UserId, ...]
    schedules: Mapping[UserId, IntervalSet]

    def __post_init__(self) -> None:
        missing = [m for m in self.members if m not in self.schedules]
        if missing:
            raise ValueError(f"schedules missing for members {missing}")
        if self.owner in self.replicas:
            raise ValueError("owner is implicitly a member; do not list him")

    @property
    def members(self) -> Tuple[UserId, ...]:
        return (self.owner,) + tuple(self.replicas)

    @property
    def replication_degree(self) -> int:
        return len(self.replicas)

    def union_schedule(self) -> IntervalSet:
        """When the profile is reachable: any member online."""
        return IntervalSet.union_all(self.schedules[m] for m in self.members)


class OverlapCache:
    """Memoized symmetric pairwise schedule overlaps, keyed by user id.

    One instance per user under evaluation lets every ``overlap`` scan be
    paid at most once, no matter how many consumers ask: ConRep candidate
    filtering in the placement policies, the connectivity edge weights of
    every prefix degree, and the incremental sweep engine all share the
    same matrix.  Values are exactly ``schedule.overlap(schedule)`` on the
    schedules supplied (users without one count as never online), so
    cached and uncached paths produce identical floats.

    ``max_rows`` bounds the memory of a long-lived instance (the warm
    query plane keeps one per resident user): at most that many pairwise
    entries are retained, least-recently-used evicted first.  Eviction
    only forgets *memoized* values — a later lookup recomputes the
    identical float — so a bounded cache returns the same results as an
    unbounded one, just with more recomputation past the bound.  The
    default (``None``) keeps today's unbounded dict with zero overhead.
    """

    __slots__ = ("_schedules", "_cache", "_max_rows", "evictions")

    def __init__(
        self,
        schedules: Mapping[UserId, IntervalSet],
        *,
        max_rows: Optional[int] = None,
    ):
        if max_rows is not None and max_rows < 1:
            raise ValueError("max_rows must be >= 1 (or None for unbounded)")
        self._schedules = schedules
        self._cache: Dict[Tuple[UserId, UserId], float] = (
            OrderedDict() if max_rows is not None else {}
        )
        self._max_rows = max_rows
        #: Entries dropped by the LRU bound (0 while unbounded).
        self.evictions = 0

    @property
    def max_rows(self) -> Optional[int]:
        """The LRU entry bound (``None`` = unbounded)."""
        return self._max_rows

    def __len__(self) -> int:
        return len(self._cache)

    def schedule_of(self, user: UserId) -> IntervalSet:
        # ``[]``, not ``get``: a ScheduleMemo computes on a miss.
        try:
            return self._schedules[user]
        except KeyError:
            return _EMPTY

    def _touch(self, key: Tuple[UserId, UserId]) -> None:
        if self._max_rows is not None:
            self._cache.move_to_end(key)

    def _store(self, key: Tuple[UserId, UserId], value: float) -> None:
        cache = self._cache
        cache[key] = value
        if self._max_rows is not None:
            cache.move_to_end(key)
            while len(cache) > self._max_rows:
                cache.popitem(last=False)
                self.evictions += 1

    def overlap(self, a: UserId, b: UserId) -> float:
        """Seconds per day both users are online (memoized, symmetric)."""
        key = (a, b) if a <= b else (b, a)
        value = self._cache.get(key)
        if value is None:
            value = self.schedule_of(a).overlap(self.schedule_of(b))
            self._store(key, value)
        else:
            self._touch(key)
        return value

    def overlaps(self, a: UserId, b: UserId) -> bool:
        """Whether the two users are connected in time."""
        return self.overlap(a, b) > 0


class IncrementalAPSP:
    """All-pairs shortest-path distances under one-node-at-a-time insertion.

    Inserting a node ``v`` with its edge weights to the existing nodes
    costs O(n²): first ``d(v, j) = min_u(w(v, u) + d(u, j))`` over ``v``'s
    neighbours (a shortest path leaves ``v`` exactly once, so the ``u → j``
    tail only uses old nodes), then every old pair relaxes through ``v``
    via ``d(i, j) = min(d(i, j), d(i, v) + d(v, j))``.  Unreachable pairs
    hold ``math.inf``.

    The state after ``k`` insertions depends only on the first ``k``
    inserted nodes — rebuilding from scratch for every prefix of a member
    sequence performs the exact same float operations, which is the
    bit-identity contract between the naive per-degree evaluation and the
    incremental sweep engine.

    The distances are symmetric bit for bit: ``insert`` writes
    ``d(i, v) = d(v, i)`` and relaxes both orders of a pair with the same
    commutative sum.  Two ways read the ConRep delay bounds off them.
    :meth:`diameter_seconds` and :meth:`worst_observed_seconds` are the
    reference, one pass each with a ``divmod`` per ordered pair; the
    per-degree oracle (:func:`actual_propagation_delay_hours`,
    :func:`observed_propagation_delay_hours`) uses them.
    :meth:`delay_bounds_seconds` is the fast path the incremental engine
    uses: both bounds in one pass over the receivers, equal to the
    reference pair with ``==``.
    """

    __slots__ = ("_nodes", "_dist")

    def __init__(self) -> None:
        self._nodes: List[UserId] = []
        self._dist: Dict[UserId, Dict[UserId, float]] = {}

    @property
    def nodes(self) -> Tuple[UserId, ...]:
        """Inserted nodes, in insertion order."""
        return tuple(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def distance(self, a: UserId, b: UserId) -> float:
        """Shortest-path distance (``math.inf`` when unreachable)."""
        return self._dist[a][b]

    def insert(self, node: UserId, weights: Mapping[UserId, float]) -> None:
        """Add ``node``; ``weights`` maps existing neighbours to edge cost."""
        if node in self._dist:
            raise ValueError(f"node {node!r} already inserted")
        dist = self._dist
        row: Dict[UserId, float] = {node: 0.0}
        for j in self._nodes:
            best = math.inf
            for u, w in weights.items():
                tail = dist[u][j]
                if tail < math.inf:
                    through = w + tail
                    if through < best:
                        best = through
            row[j] = best
        for i in self._nodes:
            via = row[i]
            row_i = dist[i]
            row_i[node] = via
            if via < math.inf:
                for j in self._nodes:
                    relaxed = via + row[j]
                    if relaxed < row_i[j]:
                        row_i[j] = relaxed
        dist[node] = row
        self._nodes.append(node)

    def diameter_seconds(self) -> float:
        """The weighted diameter: max pair distance, ``inf`` if some pair
        is disconnected, 0 for fewer than two nodes."""
        worst = 0.0
        for i in self._nodes:
            row = self._dist[i]
            for j in self._nodes:
                if row[j] > worst:
                    worst = row[j]
                    if worst == math.inf:
                        return math.inf
        return worst

    def worst_observed_seconds(
        self, schedules: Mapping[UserId, IntervalSet]
    ) -> float:
        """Worst pair wait counting only the receiver's online seconds.

        For each ordered pair the actual shortest-path wait ``d`` spans
        ``k`` full days (each contributing the receiver's daily measure)
        plus a partial day contributing at most ``min(remainder,
        measure)`` — the tight upper bound over window phases.  Returns
        ``inf`` as soon as any pair is disconnected.
        """
        worst = 0.0
        for i in self._nodes:
            row = self._dist[i]
            for j in self._nodes:
                if j == i:
                    continue
                d = row[j]
                if d == math.inf:
                    return math.inf
                sched = schedules[j]
                full_days, remainder = divmod(d, DAY_SECONDS)
                observed = (
                    full_days * sched.measure + min(remainder, sched.measure)
                )
                if observed > worst:
                    worst = observed
        return worst

    def delay_bounds_seconds(
        self, schedules: Mapping[UserId, IntervalSet]
    ) -> Tuple[float, float]:
        """``(diameter_seconds(), worst_observed_seconds(schedules))`` in
        one pass.

        Receiver ``j``'s column equals its row (the matrix is symmetric),
        so its largest wait ``colmax`` is one ``max`` over the row; the
        diagonal 0 never raises it.  The diameter is the largest
        ``colmax``, and an ``inf`` makes both bounds ``inf``.  Below a full
        day every wait in the column has ``full_days == 0`` and
        ``remainder == d``, so the reference's ``0 * measure + min(d,
        measure)`` is exactly ``min(d, measure)``, and ``min`` is monotone:
        the column's observed bound is ``min(colmax, measure)``.  Only a
        column that reaches a full day runs the per-pair formula.
        """
        dist = self._dist
        diameter = observed = 0.0
        for j in self._nodes:
            row = dist[j]
            colmax = max(row.values())
            if colmax == math.inf:
                return math.inf, math.inf
            if colmax > diameter:
                diameter = colmax
            measure = schedules[j].measure
            if colmax < DAY_SECONDS:
                worst = colmax if colmax <= measure else measure
            else:
                worst = 0.0
                for d in row.values():
                    full_days, remainder = divmod(d, DAY_SECONDS)
                    wait = full_days * measure + min(remainder, measure)
                    if wait > worst:
                        worst = wait
            if worst > observed:
                observed = worst
        return diameter, observed


def group_apsp(
    group: ReplicaGroup, cache: Optional[OverlapCache] = None
) -> IncrementalAPSP:
    """Member-order APSP over the group's time-connectivity graph."""
    cache = cache or OverlapCache(group.schedules)
    apsp = IncrementalAPSP()
    for member in group.members:
        apsp.insert(member, member_edge_weights(cache, member, apsp.nodes))
    return apsp


def member_edge_weights(
    cache: OverlapCache, member: UserId, existing: Iterable[UserId]
) -> Dict[UserId, float]:
    """Edge weights ``DAY - overlap`` from ``member`` to the existing
    members it is connected in time with."""
    weights: Dict[UserId, float] = {}
    for other in existing:
        overlap = cache.overlap(member, other)
        if overlap > 0:
            weights[other] = DAY_SECONDS - overlap
    return weights


def connectivity_edges(
    group: ReplicaGroup,
) -> Dict[UserId, Dict[UserId, float]]:
    """The weighted replica time-connectivity graph.

    Edge ``i — j`` exists iff the schedules overlap; its weight is the
    worst-case wait ``DAY_SECONDS - overlap(i, j)`` for an update created
    at ``i`` just after a shared window closes.
    """
    members = group.members
    edges: Dict[UserId, Dict[UserId, float]] = {m: {} for m in members}
    for a_idx in range(len(members)):
        for b_idx in range(a_idx + 1, len(members)):
            a, b = members[a_idx], members[b_idx]
            overlap = group.schedules[a].overlap(group.schedules[b])
            if overlap > 0:
                weight = DAY_SECONDS - overlap
                edges[a][b] = weight
                edges[b][a] = weight
    return edges


def shortest_path_lengths(
    edges: Mapping[UserId, Mapping[UserId, float]], source: UserId
) -> Dict[UserId, float]:
    """Dijkstra from ``source``; unreachable nodes get ``math.inf``."""
    dist = {node: math.inf for node in edges}
    dist[source] = 0.0
    heap: List[Tuple[float, UserId]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for neighbor, weight in edges[node].items():
            nd = d + weight
            if nd < dist[neighbor]:
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return dist


def is_connected(group: ReplicaGroup) -> bool:
    """Whether every member can reach every other through time overlaps."""
    edges = connectivity_edges(group)
    dist = shortest_path_lengths(edges, group.owner)
    return all(d < math.inf for d in dist.values())


def actual_propagation_delay_hours(group: ReplicaGroup) -> float:
    """The paper's Update Propagation Delay: weighted diameter, in hours.

    Returns 0 for a group of one, and ``math.inf`` when some pair of
    members is not connected through overlaps (cannot happen for groups
    built under ConRep).
    """
    if len(group.members) <= 1:
        return 0.0
    return seconds_to_hours(group_apsp(group).diameter_seconds())


def observed_propagation_delay_hours(group: ReplicaGroup) -> float:
    """Worst observed delay: the diameter wait with the *receiver's*
    offline time excluded (§II-C3's second aspect).

    This is always ``<=`` the actual delay (see
    :meth:`IncrementalAPSP.worst_observed_seconds` for the periodic
    bound); the DES simulator measures the exact per-event value
    empirically.
    """
    if len(group.members) <= 1:
        return 0.0
    apsp = group_apsp(group)
    return seconds_to_hours(apsp.worst_observed_seconds(group.schedules))


def unconrep_propagation_delay_hours(group: ReplicaGroup) -> float:
    """Worst-case pair delay when replicas sync via third-party storage.

    An update created at node ``i`` (worst case: the moment ``i`` goes
    offline) is uploaded at ``i``'s next online window — at most
    ``DAY - |OT_i|`` away — and then downloaded by ``j`` at ``j``'s next
    window — at most ``DAY - |OT_j|`` after the upload.  The worst ordered
    pair is just the two largest per-member waits, so a top-2 scan replaces
    the quadratic pair loop.  Members who are never online make the delay
    infinite.
    """
    members = group.members
    if len(members) <= 1:
        return 0.0
    top1 = top2 = -math.inf
    for m in members:
        measure = group.schedules[m].measure
        if measure <= 0:
            return math.inf
        wait = DAY_SECONDS - measure
        if wait >= top1:
            top1, top2 = wait, top1
        elif wait > top2:
            top2 = wait
    return seconds_to_hours(top1 + top2)


def observed_unconrep_delay_hours(
    schedules: Iterable[IntervalSet], actual_hours: float
) -> float:
    """Observed counterpart of the UnconRep delay: cap each receiver's wait
    by his own online time inside the actual window (same periodic bound
    as the ConRep observed delay)."""
    if actual_hours == 0.0:
        return 0.0
    if math.isinf(actual_hours):
        return math.inf
    worst = 0.0
    actual_seconds = actual_hours * 3600.0
    for sched in schedules:
        full_days, remainder = divmod(actual_seconds, DAY_SECONDS)
        observed = full_days * sched.measure + min(remainder, sched.measure)
        worst = max(worst, observed)
    return worst / 3600.0
