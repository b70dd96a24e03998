"""Incremental prefix-evaluation engine: every replication degree in one pass.

All placement policies select replicas *incrementally*, so the degree-``k``
placement is a prefix of the degree-``k+1`` placement.  The naive sweep
exploits that for *selection* (one sequence per user) but still evaluates
every prefix from scratch: each degree rebuilds the group union schedule,
recomputes the identical friends-union demand window, rescans every
received activity, recomputes every pairwise schedule overlap, and re-runs
Dijkstra from all members — ``Σ k²`` pairwise overlap scans for a 0..D
sweep that an incremental engine pays once per pair.

:class:`IncrementalGroupEvaluator` produces :class:`UserMetrics` for every
requested prefix degree in a single forward pass over the selection
sequence, maintaining across one member-at-a-time extension:

* the group union ``IntervalSet`` (availability) and its overlap with
  the per-user cached friends union (AoD-time), built only when a
  snapshot reads it: the members admitted since the last snapshot fold
  in with one k-way ``IntervalSet.union_all``, so a single-degree walk
  does one union instead of one per member;
* a memoized pairwise overlap matrix (:class:`OverlapCache`) shared with
  ConRep candidate filtering in the placement policies;
* all-pairs shortest paths updated by O(n²) node insertion
  (:class:`IncrementalAPSP`) instead of full re-Dijkstra, yielding the
  actual and observed ConRep delays per degree in one pass over the
  receivers (:meth:`IncrementalAPSP.delay_bounds_seconds`);
* a single scan of the received activities that records, per activity, the
  smallest degree at which it becomes served — the AoD-activity series and
  its expected/unexpected split for all degrees fall out by cumulative
  counting;
* the top-2 per-member offline waits and a never-online flag, yielding the
  UnconRep delays per degree.

Every :class:`UserMetrics` field except ``allowed_degree`` is a function
of the user and the *ordered* replica prefix ``seq[:min(k, len(seq))]``
alone, not of the policy or degree that produced it.  So the evaluator
memoizes single-degree answers by that prefix tuple: a point query whose
prefix was already walked (another policy picked the same replicas, or a
sequence ran out of candidates below both requested degrees) costs a
dict lookup.  The key keeps the selection order, since the APSP
insertion order fixes the delay floats.  The memo lives as long as the
evaluator: the query plane's per-user LRU bounds it, and a sweep builds
a fresh evaluator per user cell.

**Bit-identity contract:** every metric is produced by the same float
operations, in the same order, as the per-degree
:func:`repro.core.metrics.evaluate_user` path (the reference oracle the
tests sweep through, ``tests/oracle.py``): interval unions normalise to
one canonical form no matter how they are built, the overlap matrix
feeds the same edge weights to the same insertion-order APSP the naive
delay functions now use, and the activity counts are integers.  The equivalence is property-tested
field-for-field in ``tests/core/test_incremental_properties.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.connectivity import (
    IncrementalAPSP,
    OverlapCache,
    member_edge_weights,
    observed_unconrep_delay_hours,
)
from repro.core.metrics import UserMetrics
from repro.core.placement.base import CONREP, UNCONREP
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules, schedule_of
from repro.timeline.day import DAY_SECONDS, seconds_to_hours
from repro.timeline.intervals import IntervalSet


class IncrementalGroupEvaluator:
    """Evaluates every prefix degree of one user's selection sequence.

    One instance per ``(dataset, schedules, user, mode)`` caches the
    degree-independent state — the friends union and its measure, the
    received-activity instants with their expected/unexpected flags, and
    the pairwise overlap matrix — so it can be reused across policies
    (and, via ``overlap_cache``, share overlap scans with the placement
    step that produced the sequences).
    """

    def __init__(
        self,
        dataset: Dataset,
        schedules: Schedules,
        user: UserId,
        *,
        mode: str = CONREP,
        overlap_cache: Optional[OverlapCache] = None,
    ):
        if mode not in (CONREP, UNCONREP):
            raise ValueError(f"unknown mode {mode!r}")
        self._user = user
        self._schedules = schedules
        self._mode = mode
        self._cache = overlap_cache or OverlapCache(schedules)

        self._own = schedule_of(schedules, user)
        candidates = dataset.replica_candidates(user)
        self._friends_union = IntervalSet.union_all(
            schedule_of(schedules, f) for f in candidates
        )
        self._max_achievable = (
            self._friends_union.union(self._own).measure / DAY_SECONDS
        )

        received = dataset.trace.received_by(user)
        self._instants: Tuple[float, ...] = tuple(
            act.second_of_day for act in received
        )
        self._expected_flags: Tuple[bool, ...] = tuple(
            schedule_of(schedules, act.creator).contains(act.second_of_day)
            for act in received
        )
        self._total = len(received)
        self._expected_total = sum(self._expected_flags)
        # Single-degree answers by ordered replica prefix.
        self._memo: Dict[Tuple[UserId, ...], UserMetrics] = {}

    @property
    def overlap_cache(self) -> OverlapCache:
        return self._cache

    def evaluate_prefixes(
        self, sequence: Sequence[UserId], degrees: Iterable[int]
    ) -> Tuple[UserMetrics, ...]:
        """``UserMetrics`` for each requested prefix degree, in one pass.

        Equivalent to ``evaluate_user(..., sequence[:k], allowed_degree=k)``
        for every ``k`` in ``degrees`` (any order, duplicates allowed).
        """
        seq = tuple(sequence)
        if self._user in seq:
            raise ValueError("owner is implicitly a member; do not list him")
        degrees = tuple(degrees)
        if not degrees:
            return ()
        if min(degrees) < 0:
            raise ValueError("replication degree must be >= 0")
        wanted = set(degrees)
        if len(wanted) == 1:
            return (self._evaluate_one(seq, degrees[0]),) * len(degrees)
        state = _WalkState(self)
        by_degree: Dict[int, UserMetrics] = {}
        previous: Optional[UserMetrics] = None
        for k in range(max(degrees) + 1):
            if k == 0:
                state.extend(self._user)
            elif k <= len(seq):
                state.extend(seq[k - 1])
                previous = None
            if k in wanted:
                if previous is None:
                    previous = state.snapshot(k, seq[: min(k, len(seq))])
                else:
                    # The prefix did not change (sequence exhausted): only
                    # the allowed degree differs.
                    previous = dataclasses.replace(previous, allowed_degree=k)
                by_degree[k] = previous
        return tuple(by_degree[k] for k in degrees)

    def evaluate(self, sequence: Sequence[UserId], k: int) -> UserMetrics:
        """Metrics for the single degree-``k`` prefix."""
        return self.evaluate_prefixes(sequence, (k,))[0]

    def _evaluate_one(self, seq: Tuple[UserId, ...], k: int) -> UserMetrics:
        """The degree-``k`` metrics, memoized by the walked prefix."""
        prefix = seq[:k]
        hit = self._memo.get(prefix)
        if hit is None:
            state = _WalkState(self)
            state.extend(self._user)
            for member in prefix:
                state.extend(member)
            hit = self._memo[prefix] = state.snapshot(k, prefix)
        elif hit.allowed_degree != k:
            hit = dataclasses.replace(hit, allowed_degree=k)
        return hit


class _WalkState:
    """Mutable per-sequence state of one forward pass."""

    __slots__ = (
        "_ev",
        "_union",
        "_pending",
        "_apsp",
        "_member_schedules",
        "_unserved",
        "_served",
        "_served_expected",
        "_top1",
        "_top2",
        "_never_online",
    )

    def __init__(self, evaluator: IncrementalGroupEvaluator):
        self._ev = evaluator
        self._union = IntervalSet.empty()
        # Schedules admitted since the union was last built.
        self._pending: List[IntervalSet] = []
        self._apsp = IncrementalAPSP()
        self._member_schedules: Dict[UserId, IntervalSet] = {}
        self._unserved: List[int] = list(range(evaluator._total))
        self._served = 0
        self._served_expected = 0
        # Top-2 per-member offline waits (UnconRep) and the never-online
        # flag that makes the UnconRep delay infinite.
        self._top1 = -float("inf")
        self._top2 = -float("inf")
        self._never_online = False

    def extend(self, member: UserId) -> None:
        """Admit the next member of the selection sequence."""
        ev = self._ev
        sched = ev._cache.schedule_of(member)
        if ev._mode == CONREP:
            self._apsp.insert(
                member,
                member_edge_weights(ev._cache, member, self._apsp.nodes),
            )
        self._member_schedules[member] = sched
        self._pending.append(sched)

        still: List[int] = []
        instants = ev._instants
        flags = ev._expected_flags
        for idx in self._unserved:
            if sched.contains(instants[idx]):
                self._served += 1
                if flags[idx]:
                    self._served_expected += 1
            else:
                still.append(idx)
        self._unserved = still

        measure = sched.measure
        if measure <= 0:
            self._never_online = True
        else:
            wait = DAY_SECONDS - measure
            if wait >= self._top1:
                self._top1, self._top2 = wait, self._top1
            elif wait > self._top2:
                self._top2 = wait

    def snapshot(self, k: int, replicas: Tuple[UserId, ...]) -> UserMetrics:
        """The degree-``k`` metrics for the current prefix."""
        ev = self._ev
        if self._pending:
            self._union = IntervalSet.union_all([self._union, *self._pending])
            self._pending.clear()
        availability = self._union.measure / DAY_SECONDS
        friends_union = ev._friends_union
        if friends_union.measure > 0:
            aod_time = (
                self._union.overlap(friends_union) / friends_union.measure
            )
        else:
            aod_time = 1.0  # no demand window: vacuously served

        total = ev._total
        if total:
            expected = ev._expected_total
            unexpected = total - expected
            served_unexpected = self._served - self._served_expected
            aod_activity = self._served / total
            expected_fraction = expected / total
            aod_expected = (
                self._served_expected / expected if expected else 1.0
            )
            aod_unexpected = (
                served_unexpected / unexpected if unexpected else 1.0
            )
        else:
            aod_activity = expected_fraction = 1.0
            aod_expected = aod_unexpected = 1.0

        delay_actual, delay_observed = self._delays()
        return UserMetrics(
            user=ev._user,
            allowed_degree=k,
            replicas=replicas,
            availability=availability,
            max_achievable_availability=ev._max_achievable,
            aod_time=aod_time,
            aod_activity=aod_activity,
            expected_activity_fraction=expected_fraction,
            aod_activity_expected=aod_expected,
            aod_activity_unexpected=aod_unexpected,
            delay_hours_actual=delay_actual,
            delay_hours_observed=delay_observed,
        )

    def _delays(self) -> Tuple[float, float]:
        ev = self._ev
        if len(self._member_schedules) <= 1:
            return 0.0, 0.0
        if ev._mode == CONREP:
            actual, observed = self._apsp.delay_bounds_seconds(
                self._member_schedules
            )
            return seconds_to_hours(actual), seconds_to_hours(observed)
        if self._never_online:
            actual = float("inf")
        else:
            actual = seconds_to_hours(self._top1 + self._top2)
        observed = observed_unconrep_delay_hours(
            self._member_schedules.values(), actual
        )
        return actual, observed
