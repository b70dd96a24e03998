"""The paper's efficiency metrics (§II-C), computed per user.

Given a user's replica group (owner + chosen replicas) and everyone's
daily schedules:

* **availability** — fraction of the day the profile is reachable through
  any group member (the owner hosts his own copy, so degree 0 gives the
  owner's own online fraction);
* **availability-on-demand-time** — fraction of the *friends'* combined
  online time during which the profile is reachable;
* **availability-on-demand-activity** — fraction of the activities that
  landed on the user's profile whose instants (projected onto the day)
  found the profile reachable; the expected/unexpected split (§IV-B)
  classifies each activity by whether its creator was himself online at
  that instant under the model;
* **update propagation delay** — actual and observed, from
  :mod:`repro.core.connectivity`, picked by regime (ConRep graph diameter
  vs UnconRep third-party sync);
* **replication degree** — how many replicas were actually used (the
  privacy-exposure proxy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.connectivity import (
    ReplicaGroup,
    actual_propagation_delay_hours,
    observed_propagation_delay_hours,
    observed_unconrep_delay_hours,
    unconrep_propagation_delay_hours,
)
from repro.core.placement.base import CONREP, UNCONREP
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules, schedule_of
from repro.timeline.day import DAY_SECONDS
from repro.timeline.intervals import IntervalSet


@dataclass(frozen=True)
class UserMetrics:
    """All §II-C metrics for one user under one placement."""

    user: UserId
    allowed_degree: int
    replicas: Tuple[UserId, ...]
    availability: float
    max_achievable_availability: float
    aod_time: float
    aod_activity: float
    expected_activity_fraction: float
    aod_activity_expected: float
    aod_activity_unexpected: float
    delay_hours_actual: float
    delay_hours_observed: float

    @property
    def replication_degree(self) -> int:
        """Replicas actually used (may be < allowed under ConRep)."""
        return len(self.replicas)


#: Float fields of :class:`UserMetrics`, in declaration order.
_METRIC_FLOAT_FIELDS = (
    "availability",
    "max_achievable_availability",
    "aod_time",
    "aod_activity",
    "expected_activity_fraction",
    "aod_activity_expected",
    "aod_activity_unexpected",
    "delay_hours_actual",
    "delay_hours_observed",
)


def metrics_to_payload(metrics: UserMetrics) -> dict:
    """A :class:`UserMetrics` as a JSON-exact payload dict.

    Ints stay ints, floats stay floats (JSON renders them by shortest
    round-trip repr, and ``inf`` — a legal delay — survives via the
    default non-strict JSON mode), so the round trip through the sweep
    cache's JSON entries (point-query payloads, partial sweep cells) is
    bit-identical.
    """
    payload = {
        "user": int(metrics.user),
        "allowed_degree": int(metrics.allowed_degree),
        "replicas": [int(r) for r in metrics.replicas],
    }
    for name in _METRIC_FLOAT_FIELDS:
        payload[name] = float(getattr(metrics, name))
    return payload


def metrics_from_payload(payload: dict) -> UserMetrics:
    """Inverse of :func:`metrics_to_payload`."""
    return UserMetrics(
        user=payload["user"],
        allowed_degree=int(payload["allowed_degree"]),
        replicas=tuple(payload["replicas"]),
        **{name: float(payload[name]) for name in _METRIC_FLOAT_FIELDS},
    )


def profile_schedule(
    user: UserId, replicas: Sequence[UserId], schedules: Schedules
) -> IntervalSet:
    """When the profile is reachable: owner or any replica online."""
    parts = [schedule_of(schedules, user)]
    parts.extend(schedule_of(schedules, r) for r in replicas)
    return IntervalSet.union_all(parts)


def evaluate_user(
    dataset: Dataset,
    schedules: Schedules,
    user: UserId,
    replicas: Sequence[UserId],
    *,
    allowed_degree: int = None,
    mode: str = CONREP,
) -> UserMetrics:
    """Compute every metric for one user's replica placement."""
    if mode not in (CONREP, UNCONREP):
        raise ValueError(f"unknown mode {mode!r}")
    replicas = tuple(replicas)
    if allowed_degree is None:
        allowed_degree = len(replicas)

    group_sched = profile_schedule(user, replicas, schedules)
    availability = group_sched.measure / DAY_SECONDS

    candidates = dataset.replica_candidates(user)
    friends_union = IntervalSet.union_all(
        schedule_of(schedules, f) for f in candidates
    )
    max_achievable = (
        friends_union.union(schedule_of(schedules, user)).measure / DAY_SECONDS
    )
    if friends_union.measure > 0:
        aod_time = group_sched.overlap(friends_union) / friends_union.measure
    else:
        aod_time = 1.0  # no demand window: vacuously served

    received = dataset.trace.received_by(user)
    total = len(received)
    served = expected = served_expected = served_unexpected = 0
    for act in received:
        instant = act.second_of_day
        is_served = group_sched.contains(instant)
        creator_online = schedule_of(schedules, act.creator).contains(instant)
        if is_served:
            served += 1
        if creator_online:
            expected += 1
            if is_served:
                served_expected += 1
        elif is_served:
            served_unexpected += 1
    if total:
        aod_activity = served / total
        expected_fraction = expected / total
        aod_expected = served_expected / expected if expected else 1.0
        unexpected = total - expected
        aod_unexpected = served_unexpected / unexpected if unexpected else 1.0
    else:
        aod_activity = expected_fraction = 1.0
        aod_expected = aod_unexpected = 1.0

    group = ReplicaGroup(
        owner=user,
        replicas=replicas,
        schedules={
            m: schedule_of(schedules, m) for m in (user,) + replicas
        },
    )
    if mode == CONREP:
        delay_actual = actual_propagation_delay_hours(group)
        delay_observed = observed_propagation_delay_hours(group)
    else:
        delay_actual = unconrep_propagation_delay_hours(group)
        delay_observed = _observed_unconrep(group, delay_actual)

    return UserMetrics(
        user=user,
        allowed_degree=allowed_degree,
        replicas=replicas,
        availability=availability,
        max_achievable_availability=max_achievable,
        aod_time=aod_time,
        aod_activity=aod_activity,
        expected_activity_fraction=expected_fraction,
        aod_activity_expected=aod_expected,
        aod_activity_unexpected=aod_unexpected,
        delay_hours_actual=delay_actual,
        delay_hours_observed=delay_observed,
    )


def _observed_unconrep(group: ReplicaGroup, actual_hours: float) -> float:
    """Observed counterpart of the UnconRep delay (shared periodic bound
    in :func:`repro.core.connectivity.observed_unconrep_delay_hours`)."""
    return observed_unconrep_delay_hours(
        (group.schedules[m] for m in group.members), actual_hours
    )
