"""The decentralized F2F OSN runtime: trace replay over peer nodes.

This is the executable counterpart of the analytical metrics: given a
dataset, everyone's daily schedules and a replica placement, it replays
the activity trace as wall-post/tweet *write* events against the
receivers' replica groups, runs owner-seeded anti-entropy whenever
replicas share an online window, and measures empirically what §II-C
defines analytically:

* profile **availability** by periodic sampling;
* **write service rate** — the availability-on-demand-activity analogue
  (was some replica online when an activity landed?);
* **read service rate** — friends attempt a read whenever they come
  online, approximating availability-on-demand-time;
* **update propagation delay** — per update, creation to arrival at the
  last replica (actual) and the receiver's online time inside that window
  (observed).

With ``use_cdn=True`` the replicas additionally sync through an always-on
third-party store — the UnconRep regime.

Only *active* users get a :class:`~repro.simulator.node.PeerNode` on
the kernel: the hosts of a replica group and, with ``replay_reads``,
the readers of a tracked profile.  No measurement looks at anyone
else's online state, so the other users' transitions are counted in
closed form (:func:`~repro.simulator.node.transition_event_count`)
instead of run; :attr:`DecentralizedOSN.events_replayed` is the sum,
the same logical count as one node per user would execute.

The integration tests cross-validate these empirical numbers against the
closed-form metrics of :mod:`repro.core`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.datasets.schema import Activity, Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules, schedule_of
from repro.seeding import derive_rng
from repro.simulator.kernel import Event, Simulator
from repro.simulator.network import LatencyModel, NoLatency
from repro.simulator.node import (
    PRIORITY_DEFAULT,
    PeerNode,
    transition_event_count,
)
from repro.simulator.replication import ProfileReplication, Update
from repro.simulator.stats import Counter2, SimulationStats
from repro.timeline.day import DAY_SECONDS, HOUR_SECONDS
from repro.timeline.intervals import IntervalSet

Placements = Mapping[UserId, Sequence[UserId]]

#: A replica group's members in sorted-host order: each host's node and
#: its store's arrival-time map, which has one entry per held update.
Members = Tuple[Tuple[PeerNode, Mapping[Tuple[UserId, int], float]], ...]


def latency_rng(latency_seed: int, profile: UserId) -> random.Random:
    """The latency-sampling RNG stream of one profile's replica group.

    Derived via :func:`repro.seeding.derive_rng` — fixed SHA-256
    derivation, never ``hash()`` — so draws are identical across
    interpreters and ``PYTHONHASHSEED`` values.  One independent stream
    per profile makes replica groups fully decoupled: a group's draw
    sequence does not depend on which other groups exist or in what
    order their transfers interleave, which is what lets sharded and
    vectorized replay reproduce the scalar oracle bit-for-bit.
    """
    return derive_rng(latency_seed, "simulator", "latency", profile)


def finalize_replication_stats(
    stats: SimulationStats,
    replication: Mapping[UserId, ProfileReplication],
    tracked: Set[UserId],
    schedule_of: Callable[[UserId], IntervalSet],
) -> None:
    """Derive propagation-delay and consistency statistics.

    Shared by the scalar oracle and the vectorized engine so the
    derived measurements are identical by construction.  Groups are
    visited in sorted-profile order — the canonical ordering of
    :class:`SimulationStats` — so shard-merged output matches a
    whole-cohort pass bit-for-bit.

    One pass per group.  The group's updates are the union of its
    stores' updates, each store taken in creation order
    (:attr:`~repro.simulator.replication.ReplicaStore.updates`): an
    update sits where it is first seen, and if hand-made updates share
    an id, the last store's object is the one measured.  Each update's
    arrival in every store is read once; that row gives the owner
    delay, completeness (every store holds it), the full-replication
    time (the row's max) and the per-host observed delays.  A group is
    consistent when every update is complete, since then every store
    holds the whole union.
    """
    for profile in sorted(replication):
        group = replication[profile]
        stores = group.stores
        is_tracked = profile in tracked
        all_updates = {}
        for store in stores.values():
            for update in store.updates:
                all_updates[update.uid] = update
        hosts = list(stores)
        arrival_maps = [store.arrival_times for store in stores.values()]
        owner = -1
        if is_tracked and profile in stores:
            owner = hosts.index(profile)
        spans = None
        incomplete = 0
        for uid, update in all_updates.items():
            created = update.created_at
            row = [times.get(uid) for times in arrival_maps]
            if owner >= 0:
                owner_arrival = row[owner]
                if owner_arrival is None:
                    stats.undelivered_to_owner += 1
                else:
                    stats.add_owner_delay(
                        profile, (owner_arrival - created) / HOUR_SECONDS
                    )
            if None in row:
                incomplete += 1
                continue
            if not is_tracked:
                continue
            stats.add_propagation(profile, (max(row) - created) / HOUR_SECONDS)
            if spans is None:
                spans = [schedule_of(host).measure_in_span for host in hosts]
            for span, arrived in zip(spans, row):
                if arrived != created:
                    stats.add_observed(
                        profile, span(created, arrived) / HOUR_SECONDS
                    )
        stats.incomplete_updates += incomplete
        stats.tracked_profiles += 1
        if not incomplete:
            stats.consistent_profiles += 1


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs of a simulation run."""

    #: How many days to simulate.  Activities replay on day 0; extra days
    #: let in-flight updates finish propagating.
    days: int = 3
    #: Availability sampling period in seconds (0 disables sampling).
    sample_every: float = 900.0
    #: Replicate through an always-online third party (UnconRep).
    use_cdn: bool = False
    #: Whether nodes issue reads of their friends' profiles when they come
    #: online (read service rate measurement).
    replay_reads: bool = True
    #: One-way transfer latency per replicated update (None = instant,
    #: the paper's implicit model).  A transfer whose latency outlives the
    #: shared online window is lost for that window and retried at the
    #: next one.
    latency: Optional[LatencyModel] = None
    #: Seed of the latency-sampling RNG.
    latency_seed: int = 0

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.sample_every < 0:
            raise ValueError("sample_every must be >= 0")


class DecentralizedOSN:
    """A running decentralized OSN instance."""

    def __init__(
        self,
        dataset: Dataset,
        schedules: Schedules,
        placements: Placements,
        *,
        config: ReplayConfig = ReplayConfig(),
        tracked_profiles: Optional[Iterable[UserId]] = None,
    ):
        self.dataset = dataset
        self.config = config
        self.sim = Simulator()
        self.stats = SimulationStats()
        self._latency = config.latency or NoLatency()
        self._instant = isinstance(self._latency, NoLatency)
        #: Per-profile latency RNG streams, derived lazily on first send.
        self._net_rngs: Dict[UserId, random.Random] = {}
        #: Updates created so far per profile (read-staleness baseline).
        self.created_updates: Dict[UserId, int] = {}

        self._tracked: Set[UserId] = (
            set(tracked_profiles)
            if tracked_profiles is not None
            else set(placements)
        )

        graph = dataset.graph
        #: profile owner → replication group (owner + placed replicas).
        self.replication: Dict[UserId, ProfileReplication] = {}
        #: host → profiles whose replica it hosts.
        self._hosted: Dict[UserId, List[UserId]] = {}
        for owner, replicas in placements.items():
            hosts = [owner] + [r for r in replicas if r in graph]
            self.replication[owner] = ProfileReplication(owner, hosts)
            for host in hosts:
                self._hosted.setdefault(host, []).append(owner)

        #: reader → the tracked, replicated profiles it reads on coming
        #: online, in its own neighbour/followee order (the order in
        #: which reads are recorded).
        self._reads: Dict[UserId, Tuple[UserId, ...]] = {}
        if config.replay_reads:
            readable = {p for p in self._tracked if p in self.replication}
            readers: Set[UserId] = set()
            for profile in readable:
                readers.update(
                    graph.followers(profile)
                    if graph.directed
                    else graph.neighbors(profile)
                )
            for user in readers:
                self._reads[user] = tuple(
                    p for p in self._read_targets(user) if p in readable
                )

        #: The active nodes, in graph order (the kernel's tie-break among
        #: same-instant transitions).  Everyone else is idle: only the
        #: number of their transitions enters the replay.
        self.nodes: Dict[UserId, PeerNode] = {}
        self._idle_schedules: List[IntervalSet] = []
        for user in graph.users():
            schedule = schedule_of(schedules, user)
            if user in self._hosted or user in self._reads:
                node = PeerNode(user, schedule)
                node.subscribe_online(self._on_node_online)
                self.nodes[user] = node
            else:
                self._idle_schedules.append(schedule)
        #: The idle users' transitions up to the horizon (set by run).
        self._counted_events = 0

        #: profile → its group's members: one pass over them answers
        #: "which hosts are online and how many updates they hold".
        self._members: Dict[UserId, Members] = {
            profile: tuple(
                (self.nodes[host], group.stores[host].arrival_times)
                for host in group.hosts
            )
            for profile, group in self.replication.items()
        }
        #: The profiles availability is sampled for, in sampling order.
        self._sampled: Tuple[UserId, ...] = tuple(
            p for p in self._tracked if p in self.replication
        )

        #: CDN shadow store: profile → updates uploaded so far.
        self._cdn: Dict[UserId, Dict[Tuple[UserId, int], Update]] = {
            owner: {} for owner in self.replication
        }

    @property
    def events_replayed(self) -> int:
        """Logical events replayed: what the kernel ran plus the idle
        users' transitions, counted in closed form by :meth:`run`."""
        return self.sim.events_executed + self._counted_events

    # -- wiring ---------------------------------------------------------------

    def _on_node_online(self, node: PeerNode) -> None:
        """Anti-entropy on arrival, CDN pull, and read replay."""
        now = self.sim.now
        user = node.user
        for profile in self._hosted.get(user, ()):
            group = self.replication[profile]
            if self.config.use_cdn:
                self._sync_with_cdn(group, user, now)
            for host, _held in self._members[profile]:
                if host is not node and host.online:
                    self._sync_hosts(group, user, host.user)
        self._replay_reads(node)

    def _replay_reads(self, node: PeerNode) -> None:
        """The arriving user tries to read each tracked friend profile
        (none unless ``replay_reads`` is on).

        A served read goes to the online replica holding the most
        updates; the *staleness* of that replica — how many created
        updates it is missing — is the feed-freshness the reader
        experiences (driven by the propagation delay, §II-C3).
        """
        reads = self.stats.reads
        for profile in self._reads.get(node.user, ()):
            # Size of the fullest online replica; -1 when none is online.
            best = -1
            for host, held in self._members[profile]:
                if host.online and len(held) > best:
                    best = len(held)
            counter = reads.get(profile)
            if counter is None:
                counter = reads[profile] = Counter2()
            counter.record(best >= 0)
            if best >= 0:
                self.stats.add_staleness(
                    profile, self.created_updates.get(profile, 0) - best
                )

    def _sync_hosts(self, group: ProfileReplication, a: UserId, b: UserId) -> None:
        """Anti-entropy between two online hosts, through the network."""
        now = self.sim.now
        if self._instant:
            group.sync_pair(a, b, now)
            return
        store_a, store_b = group.store_of(a), group.store_of(b)
        for update in store_a.missing_from(store_b):
            self._send(group, b, a, update)
        for update in store_b.missing_from(store_a):
            self._send(group, a, b, update)

    def _send(
        self, group: ProfileReplication, src: UserId, dst: UserId, update: Update
    ) -> None:
        rng = self._net_rngs.get(group.profile)
        if rng is None:
            rng = latency_rng(self.config.latency_seed, group.profile)
            self._net_rngs[group.profile] = rng
        delay = self._latency.sample(rng)
        self.sim.schedule_in(
            delay, self._deliver, group, dst, update, priority=PRIORITY_DEFAULT
        )

    def _deliver(
        self, group: ProfileReplication, dst: UserId, update: Update
    ) -> None:
        """Apply a transferred update if the receiver is still online;
        otherwise the transfer failed for this window (state-based
        anti-entropy retries at the next shared window)."""
        if self.nodes[dst].online:
            group.store_of(dst).apply(update, self.sim.now)

    def _read_targets(self, user: UserId) -> Iterable[UserId]:
        graph = self.dataset.graph
        if graph.directed:
            return graph.followees(user)  # a follower reads his followees
        return graph.neighbors(user)

    def _sync_with_cdn(
        self, group: ProfileReplication, host: UserId, now: float
    ) -> None:
        store = group.store_of(host)
        cloud = self._cdn[group.profile]
        for uid, update in cloud.items():
            store.apply(update, now)
        for update in store.updates:
            cloud.setdefault(update.uid, update)

    def _profile_reachable(self, profile: UserId) -> bool:
        for host, _held in self._members[profile]:
            if host.online:
                return True
        return False

    # -- write path ---------------------------------------------------------------

    def post_activity(self, activity: Activity) -> None:
        """Deliver one trace activity as a profile write."""
        profile = activity.receiver
        if profile not in self.replication:
            return
        now = self.sim.now
        group = self.replication[profile]
        online_hosts = [
            host.user for host, _held in self._members[profile] if host.online
        ]
        served = bool(online_hosts)
        if profile in self._tracked:
            writes = self.stats.writes
            counter = writes.get(profile)
            if counter is None:
                counter = writes[profile] = Counter2()
            counter.record(served)
        if not served:
            return
        update = Update(
            profile=profile,
            origin=activity.creator,
            seq=group.next_seq(),
            created_at=now,
        )
        self.created_updates[profile] = self.created_updates.get(profile, 0) + 1
        # Prefer the owner's own node as entry point when online.
        entry = profile if profile in online_hosts else online_hosts[0]
        group.store_of(entry).apply(update, now)
        # Gossip among currently-online replicas (through the network).
        for host in online_hosts:
            if host != entry:
                self._sync_hosts(group, entry, host)
        if self.config.use_cdn:
            self._sync_with_cdn(group, entry, now)

    # -- run ---------------------------------------------------------------------------

    def run(self) -> SimulationStats:
        """Replay the trace and return the collected statistics."""
        days = self.config.days
        self._counted_events = sum(
            transition_event_count(schedule, days)
            for schedule in self._idle_schedules
        )
        self.sim.schedule_many(self._initial_events())
        self.sim.run(until=days * DAY_SECONDS)
        self._finalize()
        return self.stats

    def _initial_events(self) -> Iterator[Event]:
        """Every event queued before the run starts, in scheduling order:
        each active node's transitions, each activity on a replicated
        profile, then the first availability sample."""
        start, days = self.sim.now, self.config.days
        for node in self.nodes.values():
            yield from node.transition_events(start, days)
        post, replication = self.post_activity, self.replication
        for act in self.dataset.trace:
            if act.receiver in replication:
                yield act.second_of_day, PRIORITY_DEFAULT, post, (act,)
        if self.config.sample_every > 0:
            yield 0.0, 1, self._sample_availability, ()

    def _sample_availability(self) -> None:
        availability = self.stats.availability
        for profile in self._sampled:
            counter = availability.get(profile)
            if counter is None:
                counter = availability[profile] = Counter2()
            counter.record(self._profile_reachable(profile))
        next_time = self.sim.now + self.config.sample_every
        if next_time < self.config.days * DAY_SECONDS:
            self.sim.schedule_at(
                next_time, self._sample_availability, priority=1
            )

    def _finalize(self) -> None:
        """Derive propagation-delay and consistency statistics."""
        finalize_replication_stats(
            self.stats,
            self.replication,
            self._tracked,
            lambda host: self.nodes[host].schedule,
        )
