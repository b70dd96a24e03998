"""Measurement collectors for the OSN simulation.

:class:`SimulationStats` stores every measurement *per profile*: the
availability/write/read counters were always keyed that way, and the
delay/staleness samples now are too.  The flat sequences the tests and
experiments consume (``propagation_delays_hours`` etc.) are derived
views that concatenate the per-profile lists in sorted-profile order —
a canonical ordering independent of replication-map insertion order, of
event interleaving across profiles, and of how a sharded replay was
partitioned.  That is what makes :meth:`SimulationStats.merge` exact:
replica groups evolve independently, so the union of disjoint
per-profile measurements *is* the whole-cohort measurement, and the
sorted flattening renders it bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional

from repro.graph.social_graph import UserId


@dataclass
class Counter2:
    """A hits/total pair."""

    hits: int = 0
    total: int = 0

    def record(self, success: bool) -> None:
        self.total += 1
        if success:
            self.hits += 1

    @property
    def rate(self) -> float:
        return self.hits / self.total if self.total else 1.0


def _merge_counters(
    target: Dict[UserId, Counter2], source: Mapping[UserId, Counter2]
) -> None:
    for user, counter in source.items():
        mine = target.get(user)
        if mine is None:
            target[user] = Counter2(counter.hits, counter.total)
        else:
            mine.hits += counter.hits
            mine.total += counter.total


def _merge_samples(target: Dict, source: Mapping) -> None:
    for user, values in source.items():
        target.setdefault(user, []).extend(values)


@dataclass
class SimulationStats:
    """Everything the replay measures, keyed by profile."""

    #: Per-profile availability sampling (profile reachable at instant?).
    availability: Dict[UserId, Counter2] = field(default_factory=dict)
    #: Per-profile write outcomes (activity landed on an online replica?).
    writes: Dict[UserId, Counter2] = field(default_factory=dict)
    #: Per-profile read outcomes (friend coming online could reach it?).
    reads: Dict[UserId, Counter2] = field(default_factory=dict)
    #: Completed update propagations per profile, in hours (creation →
    #: last replica), in event order within each profile.
    propagation_by_profile: Dict[UserId, List[float]] = field(
        default_factory=dict
    )
    #: Observed delays per profile: the receiving replica's host
    #: online-time inside the propagation window, in hours, one entry per
    #: (update, replica).
    observed_by_profile: Dict[UserId, List[float]] = field(
        default_factory=dict
    )
    #: Per profile, per served read: number of created updates the
    #: serving replica was missing (feed staleness the reader saw).
    staleness_by_profile: Dict[UserId, List[int]] = field(
        default_factory=dict
    )
    #: Per profile, per update: hours from creation until the profile
    #: OWNER's own store received it — the time before the owner himself
    #: could see activity on his profile (paper §II: "the user should
    #: receive updates of the activities on his profile by his friends
    #: while he is offline").
    owner_delay_by_profile: Dict[UserId, List[float]] = field(
        default_factory=dict
    )
    #: Updates that never reached the owner's store before the run ended.
    undelivered_to_owner: int = 0
    #: Updates that had not reached every replica when the run ended.
    incomplete_updates: int = 0
    #: Profiles whose replicas all converged by the end of the run.
    consistent_profiles: int = 0
    #: Profiles tracked for consistency.
    tracked_profiles: int = 0

    # -- recording ---------------------------------------------------------

    # Each recorder makes a profile's list on its first sample only
    # (``setdefault(profile, [])`` would build and drop an empty list on
    # every call after it).

    def add_propagation(self, profile: UserId, hours: float) -> None:
        try:
            self.propagation_by_profile[profile].append(hours)
        except KeyError:
            self.propagation_by_profile[profile] = [hours]

    def add_observed(self, profile: UserId, hours: float) -> None:
        try:
            self.observed_by_profile[profile].append(hours)
        except KeyError:
            self.observed_by_profile[profile] = [hours]

    def add_staleness(self, profile: UserId, missing: int) -> None:
        try:
            self.staleness_by_profile[profile].append(missing)
        except KeyError:
            self.staleness_by_profile[profile] = [missing]

    def add_owner_delay(self, profile: UserId, hours: float) -> None:
        try:
            self.owner_delay_by_profile[profile].append(hours)
        except KeyError:
            self.owner_delay_by_profile[profile] = [hours]

    # -- flat views (canonical sorted-profile order) -----------------------

    @staticmethod
    def _flatten(per_profile: Mapping[UserId, List]) -> List:
        return [
            value
            for profile in sorted(per_profile)
            for value in per_profile[profile]
        ]

    @property
    def propagation_delays_hours(self) -> List[float]:
        """Completed update propagations, in hours (creation → last
        replica), concatenated in sorted-profile order."""
        return self._flatten(self.propagation_by_profile)

    @property
    def observed_delays_hours(self) -> List[float]:
        return self._flatten(self.observed_by_profile)

    @property
    def read_staleness(self) -> List[int]:
        return self._flatten(self.staleness_by_profile)

    @property
    def owner_delivery_delays_hours(self) -> List[float]:
        return self._flatten(self.owner_delay_by_profile)

    # -- merging -----------------------------------------------------------

    @classmethod
    def merge(cls, parts: Iterable["SimulationStats"]) -> "SimulationStats":
        """Combine shard measurements into whole-cohort statistics.

        Counters sum hit/total pairs (so the derived rates are the
        sample-weighted rates of the union), per-profile sample lists
        concatenate in part order, and the scalar tallies add.  For
        shards over *disjoint* profile sets — the sharded-replay
        contract — the result is bit-identical to replaying the whole
        cohort at once: every flat view re-sorts by profile, so the
        partition boundaries leave no trace.
        """
        merged = cls()
        for part in parts:
            _merge_counters(merged.availability, part.availability)
            _merge_counters(merged.writes, part.writes)
            _merge_counters(merged.reads, part.reads)
            _merge_samples(
                merged.propagation_by_profile, part.propagation_by_profile
            )
            _merge_samples(
                merged.observed_by_profile, part.observed_by_profile
            )
            _merge_samples(
                merged.staleness_by_profile, part.staleness_by_profile
            )
            _merge_samples(
                merged.owner_delay_by_profile, part.owner_delay_by_profile
            )
            merged.undelivered_to_owner += part.undelivered_to_owner
            merged.incomplete_updates += part.incomplete_updates
            merged.consistent_profiles += part.consistent_profiles
            merged.tracked_profiles += part.tracked_profiles
        return merged

    # -- JSON round trip (replay cache / batch artifacts) ------------------

    def to_dict(self) -> Dict:
        """A JSON-serialisable rendering; exact under ``json`` round
        trips (floats serialise by shortest round-trip repr)."""
        return {
            "availability": {
                str(u): [c.hits, c.total]
                for u, c in self.availability.items()
            },
            "writes": {
                str(u): [c.hits, c.total] for u, c in self.writes.items()
            },
            "reads": {
                str(u): [c.hits, c.total] for u, c in self.reads.items()
            },
            "propagation": {
                str(u): list(v)
                for u, v in self.propagation_by_profile.items()
            },
            "observed": {
                str(u): list(v) for u, v in self.observed_by_profile.items()
            },
            "staleness": {
                str(u): list(v)
                for u, v in self.staleness_by_profile.items()
            },
            "owner_delay": {
                str(u): list(v)
                for u, v in self.owner_delay_by_profile.items()
            },
            "undelivered_to_owner": self.undelivered_to_owner,
            "incomplete_updates": self.incomplete_updates,
            "consistent_profiles": self.consistent_profiles,
            "tracked_profiles": self.tracked_profiles,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimulationStats":
        def counters(name: str) -> Dict[UserId, Counter2]:
            return {
                int(u): Counter2(int(pair[0]), int(pair[1]))
                for u, pair in data.get(name, {}).items()
            }

        def samples(name: str, cast) -> Dict[UserId, List]:
            return {
                int(u): [cast(v) for v in values]
                for u, values in data.get(name, {}).items()
            }

        return cls(
            availability=counters("availability"),
            writes=counters("writes"),
            reads=counters("reads"),
            propagation_by_profile=samples("propagation", float),
            observed_by_profile=samples("observed", float),
            staleness_by_profile=samples("staleness", int),
            owner_delay_by_profile=samples("owner_delay", float),
            undelivered_to_owner=int(data.get("undelivered_to_owner", 0)),
            incomplete_updates=int(data.get("incomplete_updates", 0)),
            consistent_profiles=int(data.get("consistent_profiles", 0)),
            tracked_profiles=int(data.get("tracked_profiles", 0)),
        )

    # -- derived metrics ---------------------------------------------------

    def availability_of(self, profile: UserId) -> float:
        return self.availability.get(profile, Counter2()).rate

    def write_service_rate(self, profile: Optional[UserId] = None) -> float:
        counters = (
            [self.writes[profile]]
            if profile is not None
            else list(self.writes.values())
        )
        hits = sum(c.hits for c in counters)
        total = sum(c.total for c in counters)
        return hits / total if total else 1.0

    def read_service_rate(self, profile: Optional[UserId] = None) -> float:
        counters = (
            [self.reads[profile]]
            if profile is not None
            else list(self.reads.values())
        )
        hits = sum(c.hits for c in counters)
        total = sum(c.total for c in counters)
        return hits / total if total else 1.0

    @property
    def mean_owner_delivery_delay_hours(self) -> float:
        delays = self.owner_delivery_delays_hours
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def max_owner_delivery_delay_hours(self) -> float:
        delays = self.owner_delivery_delays_hours
        if not delays:
            return 0.0
        return max(delays)

    @property
    def mean_read_staleness(self) -> float:
        """Average number of updates missing at the replica that served a
        read (0 = every read saw a fully fresh profile)."""
        staleness = self.read_staleness
        if not staleness:
            return 0.0
        return sum(staleness) / len(staleness)

    @property
    def max_propagation_delay_hours(self) -> float:
        delays = self.propagation_delays_hours
        if not delays:
            return 0.0
        return max(delays)

    @property
    def mean_propagation_delay_hours(self) -> float:
        delays = self.propagation_delays_hours
        if not delays:
            return 0.0
        return sum(delays) / len(delays)

    @property
    def mean_observed_delay_hours(self) -> float:
        delays = self.observed_delays_hours
        if not delays:
            return 0.0
        return sum(delays) / len(delays)
