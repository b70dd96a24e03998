"""Vectorized DES trace replay over the packed compute plane.

:class:`VectorizedReplay` replays the same trace as the scalar
:class:`~repro.simulator.osn.DecentralizedOSN` oracle, but instead of
running its active nodes' online/offline transitions through the heapq
kernel it derives each replica group's event stream directly from the
schedule arrays:

* **Vectorized event generation** — each participant's absolute
  transition instants come from one outer add of day offsets against the
  ``PackedSchedules`` CSR row (or the ``IntervalSet`` endpoints), and the
  per-group streams of arrival and post events are ordered by a single
  ``np.lexsort`` over ``(time, priority, tie)`` — the exact key the
  kernel's heap would use.  Only genuinely dynamic events (latency-
  delayed deliveries) still go through a heap, a group-local one.
* **Batched state kernels** — "which hosts are online at this event?" is
  answered for the whole stream at once with ``np.searchsorted`` counts
  over the transition arrays, honouring the kernel's priority and
  insertion-order tie-breaking (offline before online before deliveries;
  same-instant online transitions fire in node-attachment order).
  Availability sampling is one batched any-host-online reduction per
  profile.
* **Group decomposition** — replica groups share no state and draw
  latencies from per-profile RNG streams
  (:func:`~repro.simulator.osn.latency_rng`), so groups replay
  independently, which is also what makes sharded replay exact.

Store dynamics reuse the *real* :class:`ProfileReplication` /
:class:`ReplicaStore` objects and the scalar path's finalization
(:func:`~repro.simulator.osn.finalize_replication_stats`), so every
measured field — and every latency draw — is identical to the oracle by
construction.  The equivalence is property-tested field-for-field, the
same pattern as the incremental sweep engine against its per-degree
oracle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.datasets.schema import Activity, Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules
from repro.simulator.network import NoLatency
from repro.simulator.node import transition_event_count
from repro.simulator.osn import (
    Placements,
    ReplayConfig,
    finalize_replication_stats,
    latency_rng,
)
from repro.simulator.replication import ProfileReplication, Update
from repro.simulator.stats import Counter2, SimulationStats
from repro.timeline.day import DAY_SECONDS
from repro.timeline.intervals import IntervalSet
from repro.timeline.packed import PackedSchedules

#: Static-event priorities, matching the kernel's heap keys.
_PRIO_ONLINE = -1
_PRIO_POST = 0


class VectorizedReplay:
    """A replica-group-decomposed, numpy-driven replay of one trace.

    Constructor signature mirrors :class:`DecentralizedOSN`; ``packed``
    optionally supplies the CSR schedule arrays so transition generation
    reads the packed plane directly.
    """

    def __init__(
        self,
        dataset: Dataset,
        schedules: Schedules,
        placements: Placements,
        *,
        config: ReplayConfig = ReplayConfig(),
        tracked_profiles: Optional[Iterable[UserId]] = None,
        packed: Optional[PackedSchedules] = None,
    ):
        self.dataset = dataset
        self.schedules = schedules
        self.config = config
        self.stats = SimulationStats()
        self._latency = config.latency or NoLatency()
        self._instant = isinstance(self._latency, NoLatency)
        self._net_rngs: Dict[UserId, object] = {}
        self.created_updates: Dict[UserId, int] = {}
        self._packed = packed
        self._empty = IntervalSet.empty()

        #: Node attachment order of the oracle — the kernel's insertion-
        #: order tie-break for same-instant online transitions.
        self._pos: Dict[UserId, int] = {
            user: i for i, user in enumerate(dataset.graph.users())
        }

        self._tracked: Set[UserId] = (
            set(tracked_profiles)
            if tracked_profiles is not None
            else set(placements)
        )

        self.replication: Dict[UserId, ProfileReplication] = {}
        for owner, replicas in placements.items():
            hosts = [owner] + [r for r in replicas if r in self._pos]
            self.replication[owner] = ProfileReplication(owner, hosts)

        self._cdn: Dict[UserId, Dict[Tuple[UserId, int], Update]] = {
            owner: {} for owner in self.replication
        }

        self._horizon = config.days * DAY_SECONDS
        self._day_offsets = np.arange(
            config.days + 1, dtype=np.float64
        ) * float(DAY_SECONDS)
        self._transition_cache: Dict[
            UserId, Tuple[np.ndarray, np.ndarray]
        ] = {}
        self._deliveries = 0
        self._sample_ticks = 0
        self.events_replayed = 0

    # -- schedule plane ----------------------------------------------------

    def _schedule_of(self, user: UserId) -> IntervalSet:
        # ``[]``, not ``get``: a ScheduleMemo computes on a miss.
        try:
            return self.schedules[user]
        except KeyError:
            return self._empty

    def _row(self, user: UserId) -> Tuple[np.ndarray, np.ndarray]:
        """One user's daily interval endpoints as float64 arrays."""
        if self._packed is not None:
            return self._packed.row_slice(user)
        intervals = self._schedule_of(user).intervals
        n = len(intervals)
        starts = np.fromiter(
            (s for s, _ in intervals), dtype=np.float64, count=n
        )
        ends = np.fromiter(
            (e for _, e in intervals), dtype=np.float64, count=n
        )
        return starts, ends

    def _transitions(self, user: UserId) -> Tuple[np.ndarray, np.ndarray]:
        """Absolute (online, offline) transition instants over the run.

        ``day * DAY_SECONDS + endpoint`` for every day in ``[0, days]``
        — the same instants, in the same float arithmetic, that
        :func:`repro.simulator.node.day_transitions` feeds the kernel.
        Sorted ascending (per-day blocks cannot interleave because all
        endpoints lie within one day).
        """
        cached = self._transition_cache.get(user)
        if cached is None:
            starts, ends = self._row(user)
            on = (self._day_offsets[:, None] + starts[None, :]).ravel()
            off = (self._day_offsets[:, None] + ends[None, :]).ravel()
            cached = (on, off)
            self._transition_cache[user] = cached
        return cached

    def _online_at(self, user: UserId, time: float) -> bool:
        """Online state as seen by a priority-0 dynamic event at ``time``
        (all transitions at that instant have already fired)."""
        on, off = self._transitions(user)
        return bool(
            np.searchsorted(on, time, "right")
            > np.searchsorted(off, time, "right")
        )

    def _host_online_matrix(
        self,
        hosts: Sequence[UserId],
        times: np.ndarray,
        prios: np.ndarray,
        ties: np.ndarray,
    ) -> np.ndarray:
        """``matrix[i, j]`` — is ``hosts[i]`` online at static event j?

        Replays the kernel's ordering exactly: offline transitions
        (priority -2) and earlier-positioned online transitions at the
        same instant have fired; a host's own online transition at the
        instant of an online event counts iff its attachment position is
        at most the event's tie (the kernel fires equal-time equal-
        priority events in insertion order, and ``_go_online`` flips the
        flag before callbacks run).  Post events (priority 0) see every
        same-instant transition.
        """
        matrix = np.empty((len(hosts), len(times)), dtype=bool)
        for i, host in enumerate(hosts):
            on, off = self._transitions(host)
            on_before = np.searchsorted(on, times, "left")
            on_upto = np.searchsorted(on, times, "right")
            fired_on = np.where(
                prios == _PRIO_POST,
                on_upto,
                on_before
                + ((on_upto > on_before) & (self._pos[host] <= ties)),
            )
            fired_off = np.searchsorted(off, times, "right")
            matrix[i] = fired_on > fired_off
        return matrix

    # -- replica-group dynamics (scalar-oracle semantics) ------------------

    def _rng_of(self, profile: UserId):
        rng = self._net_rngs.get(profile)
        if rng is None:
            rng = latency_rng(self.config.latency_seed, profile)
            self._net_rngs[profile] = rng
        return rng

    def _send(
        self,
        group: ProfileReplication,
        dst: UserId,
        update: Update,
        now: float,
        heap: List,
        seq: "itertools.count",
    ) -> None:
        """One latency draw per transfer (always taken — draw order is
        part of the oracle contract); deliveries beyond the horizon
        would never fire in the kernel, so they are not queued."""
        delay = self._latency.sample(self._rng_of(group.profile))
        arrive = now + delay
        if arrive <= self._horizon:
            heapq.heappush(heap, (arrive, next(seq), dst, update))

    def _sync_hosts(
        self,
        group: ProfileReplication,
        a: UserId,
        b: UserId,
        now: float,
        heap: List,
        seq: "itertools.count",
    ) -> None:
        if self._instant:
            group.sync_pair(a, b, now)
            return
        store_a, store_b = group.store_of(a), group.store_of(b)
        for update in store_a.missing_from(store_b):
            self._send(group, a, update, now, heap, seq)
        for update in store_b.missing_from(store_a):
            self._send(group, b, update, now, heap, seq)

    def _sync_with_cdn(
        self, group: ProfileReplication, host: UserId, now: float
    ) -> None:
        store = group.store_of(host)
        cloud = self._cdn[group.profile]
        for _uid, update in cloud.items():
            store.apply(update, now)
        for update in store.updates:
            cloud.setdefault(update.uid, update)

    def _post(
        self,
        group: ProfileReplication,
        activity: Activity,
        now: float,
        online_hosts: List[UserId],
        heap: List,
        seq: "itertools.count",
    ) -> None:
        profile = group.profile
        served = bool(online_hosts)
        if profile in self._tracked:
            self.stats.writes.setdefault(profile, Counter2()).record(served)
        if not served:
            return
        update = Update(
            profile=profile,
            origin=activity.creator,
            seq=group.next_seq(),
            created_at=now,
        )
        self.created_updates[profile] = (
            self.created_updates.get(profile, 0) + 1
        )
        entry = profile if profile in online_hosts else online_hosts[0]
        group.store_of(entry).apply(update, now)
        for host in online_hosts:
            if host != entry:
                self._sync_hosts(group, entry, host, now, heap, seq)
        if self.config.use_cdn:
            self._sync_with_cdn(group, entry, now)

    def _read(
        self,
        group: ProfileReplication,
        online_hosts: List[UserId],
    ) -> None:
        profile = group.profile
        self.stats.reads.setdefault(profile, Counter2()).record(
            bool(online_hosts)
        )
        if online_hosts:
            best = max(
                online_hosts, key=lambda h: len(group.store_of(h))
            )
            created = self.created_updates.get(profile, 0)
            self.stats.add_staleness(
                profile, created - len(group.store_of(best))
            )

    # -- per-group replay --------------------------------------------------

    def _readers(self, profile: UserId) -> FrozenSet[UserId]:
        graph = self.dataset.graph
        if graph.directed:
            return graph.followers(profile)
        return graph.neighbors(profile)

    def _arrivals(self, user: UserId) -> np.ndarray:
        """The user's online-transition instants within the run."""
        on, _off = self._transitions(user)
        return on[on <= self._horizon]

    def _replay_group(
        self,
        group: ProfileReplication,
        posts: List[Tuple[int, Activity]],
    ) -> None:
        """Replay one replica group's full event stream.

        ``posts`` — this profile's trace activities as ``(global trace
        index, activity)`` in trace order; the index reproduces the
        kernel's insertion-order tie-break among same-instant posts.
        """
        profile = group.profile
        do_reads = (
            self.config.replay_reads and profile in self._tracked
        )
        readers = self._readers(profile) if do_reads else frozenset()
        hosts = group.hosts
        host_set = set(hosts)

        if not posts:
            self._fast_reads(group, readers)
            return

        reader_set = set(readers) & set(self._pos)
        participants = sorted(host_set | reader_set)
        times: List[np.ndarray] = []
        prios: List[np.ndarray] = []
        ties: List[np.ndarray] = []
        payloads: List[np.ndarray] = []
        for ai, user in enumerate(participants):
            arrivals = self._arrivals(user)
            n = len(arrivals)
            if not n:
                continue
            times.append(arrivals)
            prios.append(np.full(n, _PRIO_ONLINE, dtype=np.int64))
            ties.append(np.full(n, self._pos[user], dtype=np.int64))
            payloads.append(np.full(n, ai, dtype=np.int64))
        n_posts = len(posts)
        times.append(
            np.fromiter(
                (act.second_of_day for _idx, act in posts),
                dtype=np.float64,
                count=n_posts,
            )
        )
        prios.append(np.full(n_posts, _PRIO_POST, dtype=np.int64))
        ties.append(
            np.fromiter(
                (idx for idx, _act in posts), dtype=np.int64, count=n_posts
            )
        )
        payloads.append(np.arange(n_posts, dtype=np.int64))

        all_times = np.concatenate(times)
        all_prios = np.concatenate(prios)
        all_ties = np.concatenate(ties)
        all_payloads = np.concatenate(payloads)
        order = np.lexsort((all_ties, all_prios, all_times))
        all_times = all_times[order]
        all_prios = all_prios[order]
        all_ties = all_ties[order]
        all_payloads = all_payloads[order]

        online = self._host_online_matrix(
            hosts, all_times, all_prios, all_ties
        )

        heap: List[Tuple[float, int, UserId, Update]] = []
        seq = itertools.count()
        n_events = len(all_times)
        i = 0
        while i < n_events or heap:
            # The kernel pops by (time, priority, seq); pre-scheduled
            # static events always out-sequence dynamic deliveries, so at
            # an equal instant a static event (priority <= 0) fires
            # before any delivery (priority 0, later seq).
            if i < n_events and (not heap or all_times[i] <= heap[0][0]):
                now = float(all_times[i])
                col = online[:, i]
                if all_prios[i] == _PRIO_ONLINE:
                    user = participants[all_payloads[i]]
                    if user in host_set:
                        if self.config.use_cdn:
                            self._sync_with_cdn(group, user, now)
                        for k, other in enumerate(hosts):
                            if other != user and col[k]:
                                self._sync_hosts(
                                    group, user, other, now, heap, seq
                                )
                    if do_reads and user in reader_set:
                        self._read(
                            group,
                            [h for k, h in enumerate(hosts) if col[k]],
                        )
                else:
                    _idx, act = posts[all_payloads[i]]
                    self._post(
                        group,
                        act,
                        now,
                        [h for k, h in enumerate(hosts) if col[k]],
                        heap,
                        seq,
                    )
                i += 1
            else:
                now, _s, dst, update = heapq.heappop(heap)
                self._deliveries += 1
                if self._online_at(dst, now):
                    group.store_of(dst).apply(update, now)

    def _fast_reads(
        self, group: ProfileReplication, readers: FrozenSet[UserId]
    ) -> None:
        """A group with no posts never mutates its stores, draws no
        latencies, and schedules no deliveries — only the read-service
        counter remains, computed in one batched pass: a read is served
        iff any host is online at the reader's arrival, and every served
        read sees zero staleness."""
        if not readers:
            return
        reader_arrivals = [
            (self._arrivals(user), self._pos[user])
            for user in sorted(set(readers) & set(self._pos))
        ]
        reader_arrivals = [(a, p) for a, p in reader_arrivals if len(a)]
        if not reader_arrivals:
            return
        times = np.concatenate([a for a, _p in reader_arrivals])
        ties = np.concatenate(
            [np.full(len(a), p, dtype=np.int64) for a, p in reader_arrivals]
        )
        prios = np.full(len(times), _PRIO_ONLINE, dtype=np.int64)
        served = self._host_online_matrix(
            group.hosts, times, prios, ties
        ).any(axis=0)
        hits = int(served.sum())
        counter = self.stats.reads.setdefault(group.profile, Counter2())
        counter.hits += hits
        counter.total += len(times)
        if hits:
            self.stats.staleness_by_profile.setdefault(
                group.profile, []
            ).extend([0] * hits)

    # -- availability sampling ---------------------------------------------

    def _sample_availability(self) -> None:
        if self.config.sample_every <= 0:
            return
        instants: List[float] = []
        t = 0.0
        while t < self._horizon:
            instants.append(t)
            t += self.config.sample_every
        self._sample_ticks = len(instants)
        if not instants:
            return
        at = np.asarray(instants, dtype=np.float64)
        for profile in sorted(self._tracked):
            group = self.replication.get(profile)
            if group is None:
                continue
            reachable = np.zeros(len(at), dtype=bool)
            for host in group.hosts:
                on, off = self._transitions(host)
                reachable |= np.searchsorted(
                    on, at, "right"
                ) > np.searchsorted(off, at, "right")
            counter = self.stats.availability.setdefault(
                profile, Counter2()
            )
            counter.hits += int(reachable.sum())
            counter.total += len(at)

    # -- event accounting --------------------------------------------------

    def _transition_event_count(self) -> int:
        """Transition events of every user up to the horizon, in the
        closed form the oracle uses for its idle users."""
        days = self.config.days
        return sum(
            transition_event_count(self._schedule_of(user), days)
            for user in self.dataset.graph.users()
        )

    # -- run ---------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Replay the trace; bit-identical stats to the scalar oracle."""
        posts_by_profile: Dict[UserId, List[Tuple[int, Activity]]] = {}
        n_posts = 0
        for idx, act in enumerate(self.dataset.trace):
            if act.receiver in self.replication:
                posts_by_profile.setdefault(act.receiver, []).append(
                    (idx, act)
                )
                n_posts += 1

        for profile in sorted(self.replication):
            self._replay_group(
                self.replication[profile],
                posts_by_profile.get(profile, []),
            )
        self._sample_availability()

        self.events_replayed = (
            self._transition_event_count()
            + n_posts
            + self._deliveries
            + self._sample_ticks
        )
        finalize_replication_stats(
            self.stats, self.replication, self._tracked, self._schedule_of
        )
        return self.stats
