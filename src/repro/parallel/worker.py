"""Per-user work kernels fanned out by the parallel sweep engine.

These functions are the *only* code that computes per-user placements and
metrics for the sweeps — the serial path calls them inline with the very
same payload, which is what makes ``jobs=N`` results bit-identical to
``jobs=1`` by construction.

Per-user degree sweeps run through the incremental prefix-evaluation
engine (:mod:`repro.core.incremental`): one forward pass over the
selection sequence yields the metrics of every swept degree, sharing one
pairwise-overlap matrix between the ConRep placement filter and the
evaluation.  The results equal the per-degree
:func:`~repro.core.metrics.evaluate_user` oracle float for float — the
tests sweep through that oracle (``tests/oracle.py``) and compare.

The kernels are top-level functions over a frozen payload, so a process
pool can ship them to workers by reference (the payload itself reaches
each worker once, by fork at pool start).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.connectivity import OverlapCache
from repro.core.incremental import IncrementalGroupEvaluator
from repro.core.metrics import UserMetrics
from repro.core.placement.base import CONREP, PlacementContext, PlacementPolicy
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules
from repro.seeding import derive_rng
from repro.timeline.packed import PackedSchedules

#: Per-user sweep output: policy name -> one UserMetrics per swept degree.
UserCell = Dict[str, Tuple[UserMetrics, ...]]


@dataclass(frozen=True)
class SweepPayload:
    """Shared read-only context for one repeat of a degree sweep."""

    dataset: Dataset
    schedules: Schedules
    policies: Tuple[PlacementPolicy, ...]
    mode: str
    degrees: Tuple[int, ...]
    max_degree: int
    seed: int


def _sequence_for(
    payload: "SweepPayload",
    policy: PlacementPolicy,
    user: UserId,
    overlap_cache: Optional[OverlapCache] = None,
) -> Tuple[UserId, ...]:
    """One user's full selection sequence under one policy.

    The RNG seed is derived process-independently from
    ``(seed, policy, user)`` — the same stream in every worker and in the
    serial path.
    """
    ctx = PlacementContext(
        dataset=payload.dataset,
        schedules=payload.schedules,
        user=user,
        mode=payload.mode,
        rng=derive_rng(payload.seed, policy.name, user),
        overlap_cache=overlap_cache,
    )
    return policy.select(ctx, payload.max_degree)


def evaluate_user_cell(
    payload: SweepPayload,
    user: UserId,
    *,
    evaluator: Optional[IncrementalGroupEvaluator] = None,
    sequences: Optional[Dict[str, Tuple[UserId, ...]]] = None,
) -> UserCell:
    """One user's sweep cell: sequence + per-degree metrics, all policies.

    This is THE per-user compute body — the sweep chunks below and the
    warm query plane (:mod:`repro.query`) both call it, which is what
    makes point-query results bit-identical to the batch sweep by
    construction.  ``evaluator`` reuses a resident
    :class:`IncrementalGroupEvaluator` for the user (the plane's warm
    state; one is built fresh when omitted, as the sweeps do) and
    ``sequences`` supplies pre-computed selection sequences by policy
    name — any policy absent from it is selected here at
    ``payload.max_degree``.  A supplied sequence may be *longer* than
    the largest swept degree: only its prefix is walked, and the
    incremental-selection property guarantees that prefix is exactly
    what a fresh selection at that degree would return.
    """
    if evaluator is None:
        evaluator = IncrementalGroupEvaluator(
            payload.dataset,
            payload.schedules,
            user,
            mode=payload.mode,
        )
    cell: UserCell = {}
    for policy in payload.policies:
        sequence = None if sequences is None else sequences.get(policy.name)
        if sequence is None:
            sequence = _sequence_for(
                payload, policy, user, evaluator.overlap_cache
            )
        cell[policy.name] = evaluator.evaluate_prefixes(
            sequence, payload.degrees
        )
    return cell


def evaluate_users_chunk(
    payload: SweepPayload, users: Sequence[UserId]
) -> List[UserCell]:
    """Sequence + per-degree metrics for each user, all policies.

    Each policy's selection sequence is computed once per user at the
    maximum swept degree; every smaller degree is evaluated on its prefix
    (the incremental-selection property the sweep harness relies on).
    All prefix degrees of a sequence are evaluated in one forward pass,
    and the per-user overlap matrix is shared between placement
    filtering and evaluation across all policies.
    """
    return [evaluate_user_cell(payload, user) for user in users]


@dataclass(frozen=True)
class PlacementPayload:
    """Shared read-only context for a bare placement fan-out."""

    dataset: Dataset
    schedules: Schedules
    policy: PlacementPolicy
    mode: str = CONREP
    max_degree: int = 0
    seed: int = 0


def select_sequences_chunk(
    payload: PlacementPayload, users: Sequence[UserId]
) -> List[Tuple[UserId, ...]]:
    """Selection sequences only (no metrics), one per user in order."""
    sweep_like = SweepPayload(
        dataset=payload.dataset,
        schedules=payload.schedules,
        policies=(payload.policy,),
        mode=payload.mode,
        degrees=(),
        max_degree=payload.max_degree,
        seed=payload.seed,
    )
    return [
        _sequence_for(sweep_like, payload.policy, user) for user in users
    ]


@dataclass(frozen=True)
class ReplayPayload:
    """Shared read-only context for one sharded DES trace replay.

    ``shard_owners`` — one tuple of profile owners per shard, disjoint
    and jointly covering ``placements``; each shard replays only its
    owners' replica groups (groups share no state and draw latencies
    from per-profile RNG streams, so the partition is exact).  ``config``
    is a :class:`~repro.simulator.osn.ReplayConfig` (typed loosely here:
    this module stays import-light so pool workers resolve the simulator
    lazily).
    """

    dataset: Dataset
    schedules: Schedules
    placements: Dict[UserId, Tuple[UserId, ...]]
    config: object
    shard_owners: Tuple[Tuple[UserId, ...], ...]
    #: Replay engine (see :mod:`repro.simulator.replay`).
    backend: str
    tracked: Optional[Tuple[UserId, ...]] = None
    #: Packed schedules for the numpy replay engine.
    packed: Optional[PackedSchedules] = None


def replay_shards_chunk(
    payload: ReplayPayload, shard_ids: Sequence[int]
) -> List[Tuple[object, int]]:
    """Replay each shard; one ``(SimulationStats, events)`` per shard.

    The simulator import is deferred to the call so that this module —
    imported by the simulator's own orchestration layer — never imports
    the simulator package at module scope.
    """
    from repro.simulator.replay import replay_shard

    return [replay_shard(payload, shard_id) for shard_id in shard_ids]
