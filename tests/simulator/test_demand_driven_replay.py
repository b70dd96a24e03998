"""Equivalence suite: the demand-driven DES oracle against attach-everything.

:class:`DecentralizedOSN` attaches only the nodes a measurement can
observe (replica hosts, plus readers of tracked profiles when reads are
replayed), queues no transition past the horizon and counts every idle
user's transitions in closed form; it queues the initial events with one
heap build, skips anti-entropy between converged replicas and reads
replica state in one pass per group.  The reference below is a verbatim
copy of the replay all that replaced — one :class:`PeerNode` per user
attached for a full extra day, one ``schedule_at`` per event, a full
neighbour scan per arrival, a set-difference scan per anti-entropy
round — and the contract is bit identity: the same ``json.dumps(to_dict())``
*without* ``sort_keys`` (per-profile insertion order is part of the
output) and the same logical ``events_replayed``.
"""

import functools
import json
import random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic_facebook, synthetic_twitter
from repro.datasets.schema import Activity
from repro.onlinetime import FixedLengthModel, SporadicModel, compute_schedules
from repro.onlinetime.base import schedule_of
from repro.simulator import (
    ConstantLatency,
    DecentralizedOSN,
    NoLatency,
    PeerNode,
    ReplayConfig,
    SimulationStats,
    Simulator,
    UniformLatency,
)
from repro.simulator.node import (
    PRIORITY_DEFAULT,
    PRIORITY_OFFLINE,
    PRIORITY_ONLINE,
    day_transitions,
)
from repro.simulator.replication import (
    ProfileReplication,
    ReplicaStore,
    Update,
)
from repro.simulator.stats import Counter2
from repro.timeline import DAY_SECONDS


def _reference_attach(node: PeerNode, sim: Simulator, days: int) -> None:
    """``PeerNode.attach`` as it was: every transition of ``days`` days
    plus the wrap copy, including those past the horizon."""
    start = sim.now
    base_day = int(start // DAY_SECONDS)
    for t_on, t_off in day_transitions(node.schedule, days, base_day):
        if t_off <= start:
            continue
        if t_on >= start:
            sim.schedule_at(t_on, node._go_online, priority=PRIORITY_ONLINE)
        elif not node.online:
            # Interval already in progress at attach time.
            sim.schedule_at(start, node._go_online, priority=PRIORITY_ONLINE)
        sim.schedule_at(t_off, node._go_offline, priority=PRIORITY_OFFLINE)


class _NaiveStore(ReplicaStore):
    """``ReplicaStore`` with its pre-skip write and scan paths."""

    def apply(self, update, now: float) -> bool:
        if update.profile != self.profile:
            raise ValueError(
                f"update for profile {update.profile} offered to store of "
                f"profile {self.profile}"
            )
        if update.uid in self._updates:
            return False
        self._updates[update.uid] = update
        self.arrival_times[update.uid] = now
        return True

    def missing_from(self, other: "ReplicaStore") -> List:
        return [
            u for uid, u in other._updates.items() if uid not in self._updates
        ]


class _NaiveReplication(ProfileReplication):
    """``ProfileReplication`` whose anti-entropy always scans both ways."""

    def __init__(self, profile, hosts):
        super().__init__(profile, hosts)
        self.stores = {host: _NaiveStore(profile, host) for host in hosts}

    def sync_pair(self, a, b, now: float) -> int:
        sa, sb = self.stores[a], self.stores[b]
        moved = 0
        for update in sa.missing_from(sb):
            sa.apply(update, now)
            moved += 1
        for update in sb.missing_from(sa):
            sb.apply(update, now)
            moved += 1
        return moved


class AttachEverythingOSN(DecentralizedOSN):
    """The replay as it was before demand-driven attachment."""

    def __init__(
        self,
        dataset,
        schedules,
        placements,
        *,
        config: ReplayConfig = ReplayConfig(),
        tracked_profiles: Optional[Iterable] = None,
    ):
        self.dataset = dataset
        self.config = config
        self.sim = Simulator()
        self.stats = SimulationStats()
        self._latency = config.latency or NoLatency()
        self._instant = isinstance(self._latency, NoLatency)
        #: Per-profile latency RNG streams, derived lazily on first send.
        self._net_rngs: Dict = {}
        #: Updates created so far per profile (read-staleness baseline).
        self.created_updates: Dict = {}

        self._tracked: Set = (
            set(tracked_profiles)
            if tracked_profiles is not None
            else set(placements)
        )

        self.nodes: Dict = {
            user: PeerNode(user, schedule_of(schedules, user))
            for user in dataset.graph.users()
        }

        #: profile owner → replication group (owner + placed replicas).
        self.replication: Dict = {}
        #: host → profiles whose replica it hosts.
        self._hosted: Dict[object, List] = {u: [] for u in self.nodes}
        for owner, replicas in placements.items():
            hosts = [owner] + [r for r in replicas if r in self.nodes]
            self.replication[owner] = _NaiveReplication(owner, hosts)
            for host in hosts:
                self._hosted[host].append(owner)

        #: CDN shadow store: profile → updates uploaded so far.
        self._cdn: Dict[object, Dict[Tuple, object]] = {
            owner: {} for owner in self.replication
        }

        for node in self.nodes.values():
            node.subscribe_online(self._on_node_online)

    @property
    def events_replayed(self) -> int:
        return self.sim.events_executed

    def _on_node_online(self, node: PeerNode) -> None:
        """Anti-entropy on arrival, CDN pull, and read replay."""
        now = self.sim.now
        for profile in self._hosted[node.user]:
            group = self.replication[profile]
            if self.config.use_cdn:
                self._sync_with_cdn(group, node.user, now)
            for other in group.hosts:
                if other != node.user and self.nodes[other].online:
                    self._sync_hosts(group, node.user, other)
        if self.config.replay_reads:
            self._replay_reads(node)

    def _replay_reads(self, node: PeerNode) -> None:
        for profile in self._read_targets(node.user):
            if profile in self._tracked and profile in self.replication:
                group = self.replication[profile]
                online = [h for h in group.hosts if self.nodes[h].online]
                self.stats.reads.setdefault(profile, Counter2()).record(
                    bool(online)
                )
                if online:
                    best = max(online, key=lambda h: len(group.store_of(h)))
                    created = self.created_updates.get(profile, 0)
                    self.stats.add_staleness(
                        profile, created - len(group.store_of(best))
                    )

    def post_activity(self, activity: Activity) -> None:
        """Deliver one trace activity as a profile write."""
        profile = activity.receiver
        if profile not in self.replication:
            return
        now = self.sim.now
        group = self.replication[profile]
        online_hosts = [h for h in group.hosts if self.nodes[h].online]
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

    def run(self) -> SimulationStats:
        """Replay the trace and return the collected statistics."""
        days = self.config.days
        for node in self.nodes.values():
            _reference_attach(node, self.sim, days)
        for act in self.dataset.trace:
            if act.receiver in self.replication:
                self.sim.schedule_at(
                    act.second_of_day,
                    self.post_activity,
                    act,
                    priority=PRIORITY_DEFAULT,
                )
        if self.config.sample_every > 0:
            self.sim.schedule_at(0.0, self._sample_availability, priority=1)
        self.sim.run(until=days * DAY_SECONDS)
        self._finalize()
        return self.stats

    def _profile_reachable(self, profile) -> bool:
        group = self.replication[profile]
        return any(self.nodes[h].online for h in group.hosts)

    def _sample_availability(self) -> None:
        for profile in self._tracked:
            if profile in self.replication:
                self.stats.availability.setdefault(
                    profile, Counter2()
                ).record(self._profile_reachable(profile))
        next_time = self.sim.now + self.config.sample_every
        if next_time < self.config.days * DAY_SECONDS:
            self.sim.schedule_at(
                next_time, self._sample_availability, priority=1
            )


@functools.lru_cache(maxsize=None)
def _world(kind: str, users: int, seed: int, sporadic: bool):
    make = synthetic_facebook if kind == "facebook" else synthetic_twitter
    dataset = make(users, seed=seed)
    model = SporadicModel() if sporadic else FixedLengthModel(8)
    return dataset, compute_schedules(dataset, model, seed=seed)


_LATENCIES = {
    "none": None,
    "no-latency": NoLatency(),
    "constant": ConstantLatency(900.0),
    "uniform": UniformLatency(30.0, 7200.0),
}


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(["facebook", "twitter"]))
    dataset, schedules = _world(
        kind,
        draw(st.sampled_from([60, 120])),
        draw(st.integers(0, 5)),
        draw(st.booleans()),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = dataset.graph
    users = sorted(graph.users())
    owners = rng.sample(users, draw(st.integers(1, min(12, len(users)))))
    outside = max(users) + 1
    placements: Dict = {}
    for owner in owners:
        candidates = sorted(graph.replica_candidates(owner))
        replicas = rng.sample(
            candidates, min(len(candidates), rng.randint(0, 4))
        )
        if draw(st.booleans()):
            # A replica the graph does not know is dropped by both.
            replicas.insert(rng.randint(0, len(replicas)), outside)
            outside += 1
        placements[owner] = tuple(replicas)
    tracked = None
    if draw(st.booleans()):
        tracked = rng.sample(owners, rng.randint(0, len(owners)))
    config = ReplayConfig(
        days=draw(st.integers(1, 3)),
        sample_every=draw(st.sampled_from([0.0, 900.0, 5400.5])),
        use_cdn=draw(st.booleans()),
        replay_reads=draw(st.booleans()),
        latency=_LATENCIES[draw(st.sampled_from(sorted(_LATENCIES)))],
        latency_seed=draw(st.integers(0, 3)),
    )
    return dataset, schedules, placements, tracked, config


def _replay(cls, dataset, schedules, placements, tracked, config):
    osn = cls(
        dataset,
        schedules,
        placements,
        config=config,
        tracked_profiles=tracked,
    )
    stats = osn.run()
    return osn, json.dumps(stats.to_dict())


@settings(max_examples=60, deadline=None)
@given(scenarios())
def test_demand_driven_replay_is_bit_identical(scenario):
    dataset, schedules, placements, tracked, config = scenario
    ref, ref_json = _replay(AttachEverythingOSN, *scenario)
    osn, got_json = _replay(DecentralizedOSN, *scenario)
    assert got_json == ref_json
    assert osn.events_replayed == ref.events_replayed
    # Only the nodes a measurement observes are on the kernel.
    hosts = {h for group in osn.replication.values() for h in group.hosts}
    assert hosts <= set(osn.nodes)
    if not config.replay_reads:
        assert set(osn.nodes) == hosts
    # No transition waits past the horizon: without latency nothing
    # else is queued there either, so the run drains the queue.
    if config.latency is None or isinstance(config.latency, NoLatency):
        assert osn.sim.pending == 0


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_transitions_stop_at_the_horizon(scenario):
    dataset, schedules, _placements, _tracked, config = scenario
    horizon = config.days * DAY_SECONDS
    for user in sorted(dataset.graph.users())[:20]:
        schedule = schedule_of(schedules, user)
        sim, ref = Simulator(), Simulator()
        PeerNode(user, schedule).attach(sim, config.days)
        _reference_attach(PeerNode(user, schedule), ref, config.days)
        sim.run(until=horizon)
        ref.run(until=horizon)
        assert sim.events_executed == ref.events_executed
        assert sim.pending == 0
