"""Experiment harness: cohort selection, placement evaluation, sweeps.

The paper's protocol (§V): pick the cohort of users with a given social
degree (degree 10 — the most populated bin in both datasets), vary the
allowed replication degree 0..10, and report the metric means over the
cohort; runs involving randomness (Random placement, the RandomLength
model, Sporadic's in-session placement) are repeated 5 times and averaged.

Every sweep of the evaluation is a grid of ``(model, degrees, cohort)``
points walked by one driver, :func:`sweep_grid`, over either a whole
:class:`~repro.datasets.schema.Dataset` or a
:class:`~repro.datasets.sharding.ShardedDataset` streamed shard by
shard.  The figure-shaped sweeps (replication degree, session length,
user degree) are thin grids over it.

A sweep point reads schedules through the dataset's demand-driven memo
(:func:`repro.onlinetime.base.schedule_memo`), so it computes only the
schedules of its cohort and their replica candidates.

All policies select replicas *incrementally*, so the selection
sequence for the maximum degree is computed once per user and every
smaller allowed degree is evaluated on its prefix — an exact, order-
preserving shortcut (property-tested in the suite).

The per-user work is embarrassingly parallel; the driver accepts a
:class:`repro.parallel.ParallelExecutor` and fans the cohort out over a
process pool when ``jobs > 1``.  Per-user RNGs are derived with
process-independent hashing (:mod:`repro.seeding`), so parallel results
are bit-identical to serial ones.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.incremental import IncrementalGroupEvaluator
from repro.core.metrics import UserMetrics
from repro.core.placement.base import (
    CONREP,
    PlacementPolicy,
)
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel, schedule_memo
from repro.onlinetime.sporadic import SporadicModel
from repro.parallel import (
    ParallelExecutor,
    PlacementPayload,
    SweepPayload,
    evaluate_user_cell,
    evaluate_users_chunk,
    is_quarantined,
    select_sequences_chunk,
)
from repro.parallel.worker import UserCell

if TYPE_CHECKING:  # imported lazily: repro.cache imports this module
    from repro.cache import SweepCache
    from repro.datasets.sharding import ShardedDataset


#: Plain cohort means: aggregate field -> the per-user field it averages.
_MEANS: Dict[str, str] = {
    "availability": "availability",
    "max_achievable_availability": "max_achievable_availability",
    "aod_time": "aod_time",
    "aod_activity": "aod_activity",
    "expected_activity_fraction": "expected_activity_fraction",
    "mean_replicas_used": "replication_degree",
}

#: Finite-sample delay means -> the count of users whose delay was infinite.
_DELAYS: Dict[str, str] = {
    "delay_hours_actual": "num_infinite_delay",
    "delay_hours_observed": "num_infinite_delay_observed",
}


@dataclass(frozen=True)
class AggregateMetrics:
    """Cohort means of the per-user metrics (finite-delay means, with the
    number of users whose group delay was infinite reported separately)."""

    num_users: int
    availability: float
    max_achievable_availability: float
    aod_time: float
    aod_activity: float
    expected_activity_fraction: float
    delay_hours_actual: float
    delay_hours_observed: float
    mean_replicas_used: float
    num_infinite_delay: int
    #: Users whose *observed* delay was infinite (tracked separately so
    #: cross-repeat averaging can weight the observed mean correctly).
    num_infinite_delay_observed: int = 0

    @staticmethod
    def from_users(metrics: Sequence[UserMetrics]) -> "AggregateMetrics":
        if not metrics:
            raise ValueError("cannot aggregate an empty cohort")
        n = len(metrics)
        fields = {
            name: sum(getattr(m, source) for m in metrics) / n
            for name, source in _MEANS.items()
        }
        for delay, infinite in _DELAYS.items():
            finite = [
                getattr(m, delay)
                for m in metrics
                if not math.isinf(getattr(m, delay))
            ]
            fields[delay] = sum(finite) / len(finite) if finite else 0.0
            fields[infinite] = n - len(finite)
        return AggregateMetrics(num_users=n, **fields)

    @staticmethod
    def merge(parts: Sequence["AggregateMetrics"]) -> "AggregateMetrics":
        """Combine aggregates over *disjoint* cohorts into one rollup.

        Unlike :meth:`mean` (which averages repeats of the *same*
        cohort with equal weight), ``merge`` weights each part by its
        user count — the result is the aggregate of the union cohort.
        Plain metrics weight by ``num_users``; the finite-sample delay
        means weight by each part's finite-user count; the counters add.

        Note: float addition is not associative, so a merge of
        per-shard aggregates agrees with a single pass over the union
        cohort only up to rounding.  The sweeps therefore never merge:
        they aggregate the concatenated per-user cells, which is why a
        sharded sweep equals the eager one bit for bit.
        """
        if not parts:
            raise ValueError("cannot merge zero aggregates")
        total = sum(p.num_users for p in parts)
        if not total:
            raise ValueError("cannot merge aggregates over zero users")
        fields = {
            name: sum(getattr(p, name) * p.num_users for p in parts) / total
            for name in _MEANS
        }
        for delay, infinite in _DELAYS.items():
            fields[delay] = _finite_mean(parts, delay, infinite)
            fields[infinite] = sum(getattr(p, infinite) for p in parts)
        return AggregateMetrics(num_users=total, **fields)

    @staticmethod
    def mean(aggregates: Sequence["AggregateMetrics"]) -> "AggregateMetrics":
        """Average aggregates across repeats.

        Plain metrics average with equal weight per repeat (each repeat
        covers the same cohort).  The delay means are *finite-sample*
        means, so they are weighted by each repeat's finite-user count —
        a repeat in which every user's delay was infinite reports 0.0
        over zero users and must not drag the cross-repeat mean down.
        """
        if not aggregates:
            raise ValueError("cannot average zero aggregates")
        n = len(aggregates)
        fields = {
            name: sum(getattr(a, name) for a in aggregates) / n
            for name in _MEANS
        }
        for delay, infinite in _DELAYS.items():
            fields[delay] = _finite_mean(aggregates, delay, infinite)
            fields[infinite] = round(
                sum(getattr(a, infinite) for a in aggregates) / n
            )
        return AggregateMetrics(
            num_users=round(sum(a.num_users for a in aggregates) / n),
            **fields,
        )


def _finite_mean(
    parts: Sequence[AggregateMetrics], delay: str, infinite: str
) -> float:
    """``delay`` averaged with each part weighted by its finite-delay
    user count (0.0 when no part has any).

    Zero-weight parts are skipped, not multiplied by 0: a part with no
    finite-delay users may carry a NaN (or any placeholder) in the delay
    field, and NaN * 0 would poison the sum.  Skipping adds nothing for
    finite values either, so all-finite inputs are unchanged bit for bit.
    """
    weights = [p.num_users - getattr(p, infinite) for p in parts]
    total = sum(weights)
    if not total:
        return 0.0
    weighted = (getattr(p, delay) * w for p, w in zip(parts, weights) if w)
    return sum(weighted) / total


def select_cohort(
    dataset,
    degree: int,
    *,
    max_users: Optional[int] = None,
    seed: int = 0,
) -> List[UserId]:
    """Users with exactly ``degree`` replica candidates; optionally a
    reproducible subsample of at most ``max_users`` of them.

    Accepts a :class:`~repro.datasets.schema.Dataset` (degrees come from
    its filtered graph) or a
    :class:`~repro.datasets.sharding.ShardedDataset` (surviving-candidate
    counts, equal to the filtered-graph degrees).  Both list the matching
    users sorted ascending, so the subsample (and hence every downstream
    sweep) is identical across sources.
    """
    users = dataset.users_with_degree(degree)
    if max_users is not None and len(users) > max_users:
        rng = random.Random(seed)
        users = sorted(rng.sample(users, max_users))
    return users


def placement_sequences(
    dataset: Dataset,
    schedules,
    users: Sequence[UserId],
    policy: PlacementPolicy,
    *,
    mode: str = CONREP,
    max_degree: int,
    seed: int = 0,
    executor: Optional[ParallelExecutor] = None,
) -> Dict[UserId, Tuple[UserId, ...]]:
    """The full selection sequence (up to ``max_degree``) for each user.

    Each user's RNG is derived process-independently from
    ``(seed, policy.name, user)`` — identical under every
    ``PYTHONHASHSEED`` and in every pool worker.  Pass an ``executor``
    to fan the per-user selection out over processes.
    """
    executor = executor or ParallelExecutor()
    payload = PlacementPayload(
        dataset=dataset,
        schedules=schedules,
        policy=policy,
        mode=mode,
        max_degree=max_degree,
        seed=seed,
    )
    sequences = executor.map_shared(
        select_sequences_chunk,
        payload,
        list(users),
        phase=f"place[{policy.name}]",
    )
    # Users quarantined by the supervisor (persistent worker failures)
    # are excluded rather than mapped to a bogus sequence; the executor's
    # FailureReport names them.
    return {
        user: seq
        for user, seq in zip(users, sequences)
        if not is_quarantined(seq)
    }


def evaluate_placements(
    dataset: Dataset,
    schedules,
    sequences: Dict[UserId, Tuple[UserId, ...]],
    k: int,
    *,
    mode: str = CONREP,
) -> AggregateMetrics:
    """Evaluate the degree-``k`` prefix of each user's selection sequence."""
    return AggregateMetrics.from_users(
        [
            IncrementalGroupEvaluator(dataset, schedules, user, mode=mode)
            .evaluate(seq, k)
            for user, seq in sequences.items()
        ]
    )


def evaluate_single(
    dataset: Dataset,
    schedules,
    user: UserId,
    policy: PlacementPolicy,
    k: int,
    *,
    mode: str = CONREP,
    seed: int = 0,
    evaluator: Optional[IncrementalGroupEvaluator] = None,
    sequence: Optional[Sequence[UserId]] = None,
) -> UserMetrics:
    """Metrics for ONE user's degree-``k`` placement under one policy.

    The point-query counterpart of :func:`sweep_replication_degree`,
    factored out of the sweep loop so an interactive caller (the warm
    query plane, the ``repro-osn query`` CLI) pays only one user's work.
    It routes through the very same per-user kernel the sweeps fan out
    (:func:`repro.parallel.evaluate_user_cell`), so the returned metrics
    are bit-identical to the degree-``k`` entry of a batch sweep that
    includes this user, under any ``PYTHONHASHSEED`` (property-tested in
    ``tests/query``).

    The user's RNG derives from ``(seed, policy.name, user)`` exactly as
    in the sweeps, and the incremental-selection property makes the
    degree-``k`` selection the exact prefix of any higher-degree
    selection, so a *single* degree matches the sweep's prefix slice.

    Warm-state hooks: ``evaluator`` reuses a resident per-user
    :class:`IncrementalGroupEvaluator`; ``sequence`` supplies a
    pre-computed selection (may be longer than ``k`` — only the prefix
    is used).  Both change *when* work happens, never the floats.
    """
    payload = SweepPayload(
        dataset=dataset,
        schedules=schedules,
        policies=(policy,),
        mode=mode,
        degrees=(int(k),),
        max_degree=int(k),
        seed=seed,
    )
    sequences = (
        {policy.name: tuple(sequence)} if sequence is not None else None
    )
    cell = evaluate_user_cell(
        payload, user, evaluator=evaluator, sequences=sequences
    )
    return cell[policy.name][0]


class SweepPoint(NamedTuple):
    """One grid point: ``model`` swept over ``degrees`` for ``users``.

    An empty ``users`` cohort is allowed and yields ``None`` (Fig. 9's
    user-degree bins may be empty).
    """

    model: OnlineTimeModel
    degrees: Sequence[int]
    users: Sequence[UserId]


def sweep_grid(
    source,
    points: Sequence[SweepPoint],
    policies: Sequence[PlacementPolicy],
    *,
    mode: str = CONREP,
    seed: int = 0,
    repeats: int = 1,
    executor: Optional[ParallelExecutor] = None,
    cache: Optional["SweepCache"] = None,
) -> List[Optional[Dict[str, List[AggregateMetrics]]]]:
    """The one sweep driver: per point, metric means per policy per degree.

    ``repeats`` re-runs everything with seeds ``seed .. seed+repeats-1``
    and averages — the paper's protocol for randomised components.

    ``source`` is a :class:`~repro.datasets.schema.Dataset` or a
    :class:`~repro.datasets.sharding.ShardedDataset`; an eager dataset is
    a one-shard source.  Each shard view is built once (for a sharded
    source, :meth:`ShardedDataset.shard` with ``users=`` covering that
    shard's slice of every point's cohort), and per view, point and
    repeat the per-user cells of the view's cohort slice are computed.
    Each repeat then aggregates its cells in the point's cohort order
    with one :meth:`AggregateMetrics.from_users`, and the repeats are
    averaged with :meth:`AggregateMetrics.mean` — the same arithmetic on
    the same floats for every source, so a sharded sweep equals the
    eager sweep bit for bit at every shard count.  A repeat is
    aggregated, and its cells dropped, as soon as the last view covering
    the point has produced them, so an eager sweep holds one repeat's
    cells at a time.

    The execution knobs never change a bit of the result: ``executor``
    fans the per-user work over worker processes, and ``cache`` (a
    :class:`repro.cache.SweepCache`) serves finished series by content
    address before any view is built.  Neither is part of a cache key.
    A cache with a directory also keeps each (view, point, repeat)'s
    cells as a partial entry until the point's series are on disk, so a
    killed sweep resumes from the views it finished.
    """
    # Each point's content-key fields (series and partial entries).
    keys = [
        dict(
            mode=mode,
            degrees=list(point.degrees),
            users=list(point.users),
            seed=seed,
            repeats=repeats,
        )
        for point in points
    ]
    todo: List[List[PlacementPolicy]] = []
    results: List[Optional[Dict[str, List[AggregateMetrics]]]] = []
    for point, key in zip(points, keys):
        if not point.users:
            todo.append([])
            results.append(None)
            continue
        found: Dict[str, List[AggregateMetrics]] = {}
        missing: List[PlacementPolicy] = list(policies)
        if cache is not None:
            found, missing = cache.lookup(source, point.model, policies, **key)
        todo.append(missing)
        results.append(found)
    views = _views(source, points, todo)
    # The view after which each point's repeats hold every cell.
    last = {
        i: v
        for v, (_, cohorts) in enumerate(views)
        for i, cohort in enumerate(cohorts)
        if cohort
    }
    if any(missing and i not in last for i, missing in enumerate(todo)):
        raise ValueError("no cohort user is owned by any shard")
    # Per point: each repeat's cells gathered so far (user -> cell), and
    # the aggregates of its finished repeats.
    cells: List[List[Dict[UserId, UserCell]]] = [
        [{} for _ in range(repeats)] for _ in points
    ]
    finished: List[List[Dict[str, List[AggregateMetrics]]]] = [
        [] for _ in points
    ]
    executor = executor or ParallelExecutor()
    # Partial entries live only on disk: a memory-only cache computes no
    # partial key.  Per point, the keys to seal once its series land.
    disk = cache if cache is not None and cache.cache_dir else None
    partials: List[List[str]] = [[] for _ in points]
    for v, (build, cohorts) in enumerate(views):
        dataset = build()
        for i, cohort in enumerate(cohorts):
            if not cohort:
                continue
            view_key = {**keys[i], "users": cohort}
            for r, by_user in enumerate(cells[i]):
                partial = None
                if disk is not None:
                    partial = disk.partial_key(
                        dataset, points[i].model, todo[i], repeat=r, **view_key
                    )
                    partials[i].append(partial)
                view_cells = _view_cells(
                    dataset,
                    points[i].model,
                    todo[i],
                    view_key,
                    repeat=r,
                    executor=executor,
                    disk=disk,
                    partial=partial,
                )
                by_user.update(zip(cohort, view_cells))
                if v == last[i]:
                    # The repeat is complete: aggregate it in cohort
                    # order and drop its cells.
                    finished[i].append(
                        _aggregate(points[i], todo[i], by_user)
                    )
                    by_user.clear()
    for point, key, missing, runs, series, sealable in zip(
        points, keys, todo, finished, results, partials
    ):
        on_disk = True
        for policy in missing:
            series[policy.name] = [
                AggregateMetrics.mean([run[policy.name][d] for run in runs])
                for d in range(len(point.degrees))
            ]
            if cache is not None:
                on_disk &= cache.store(
                    source, point.model, policy, series[policy.name], **key
                )
        if sealable and on_disk:
            disk.seal(sealable)
    return [
        None
        if found is None
        else {p.name: list(found[p.name]) for p in policies}
        for found in results
    ]


def _view_cells(
    dataset: Dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    key: Dict,
    *,
    repeat: int,
    executor: ParallelExecutor,
    disk: Optional["SweepCache"],
    partial: Optional[str],
) -> List[UserCell]:
    """One repeat's per-user cells for the cohort slice ``key["users"]``
    of one view.

    With a disk-backed cache (``disk``) the cells are a partial entry of
    it under the key ``partial``: read back if a killed run already
    computed them, else computed and written, so an interrupted sweep
    resumes mid-flight.  :func:`sweep_grid` seals the entries once the
    point's finished series are on disk.
    """
    users = key["users"]
    if partial is not None:
        stored = disk.get_cells(partial, users)
        if stored is not None:
            return stored
    run_seed = key["seed"] + repeat
    # Demand-driven: only the schedules the cohort's placements and
    # metrics read get computed (each forked worker fills its own copy
    # of the memo).
    payload = SweepPayload(
        dataset=dataset,
        schedules=schedule_memo(dataset, model, seed=run_seed),
        policies=tuple(policies),
        mode=key["mode"],
        degrees=tuple(key["degrees"]),
        max_degree=max(key["degrees"]),
        seed=run_seed,
    )
    cells = list(
        executor.map_shared(
            evaluate_users_chunk,
            payload,
            users,
            phase=f"sweep[{model.name}]",
        )
    )
    if partial is not None and not any(is_quarantined(c) for c in cells):
        # Quarantine decisions belong to the run that made them: cells
        # with excluded users are never stored, so a resume re-judges
        # them afresh.
        disk.put_cells(partial, users, cells)
    return cells


def _aggregate(
    point: SweepPoint,
    policies: Sequence[PlacementPolicy],
    by_user: Dict[UserId, UserCell],
) -> Dict[str, List[AggregateMetrics]]:
    """One repeat's aggregate per policy per degree, over its cells in
    the point's cohort order."""
    # Quarantined users drop out of the aggregation (the means cover the
    # surviving cohort); the executor's FailureReport records exactly
    # who was excluded and why.
    per_user = [
        by_user[u]
        for u in point.users
        if u in by_user and not is_quarantined(by_user[u])
    ]
    if not per_user:
        raise RuntimeError(
            f"every user of the sweep[{point.model.name}] cohort was "
            f"quarantined; see the executor failure report"
        )
    return {
        p.name: [
            AggregateMetrics.from_users([cell[p.name][d] for cell in per_user])
            for d in range(len(point.degrees))
        ]
        for p in policies
    }


def _views(
    source, points: Sequence[SweepPoint], todo: Sequence[Sequence]
) -> List[Tuple[Callable[[], Dataset], List[List[UserId]]]]:
    """Per view: a builder of its dataset and each point's cohort slice
    in it (empty for points with nothing to compute).

    An eager dataset is its own single view.  A sharded source has one
    view per shard over the union of that shard's slices, built only
    when its turn comes, so one view is in memory at a time.
    """
    users = [p.users if missing else () for p, missing in zip(points, todo)]
    if not hasattr(source, "shard"):
        return [(lambda: source, [list(cohort) for cohort in users])]
    per_point = [_shard_cohorts(source, cohort) for cohort in users]
    views = []
    for shard in range(source.num_shards):
        cohorts = [slices[shard] for slices in per_point]
        union = {u for cohort in cohorts for u in cohort}
        if union:
            views.append(
                (functools.partial(source.shard, shard, users=union), cohorts)
            )
    return views


def _shard_cohorts(
    sharded: "ShardedDataset", users: Sequence[UserId]
) -> List[List[UserId]]:
    """``users`` split by owning shard, each slice in ``users`` order."""
    cohorts = []
    for shard in range(sharded.num_shards):
        owned = set(sharded.shard_users(shard))
        cohorts.append([u for u in users if u in owned])
    return cohorts


def _by_policy(
    grid: List[Optional[Dict[str, List[AggregateMetrics]]]],
    policies: Sequence[PlacementPolicy],
) -> Dict[str, List[Optional[AggregateMetrics]]]:
    """Single-degree grid points as one series per policy."""
    return {
        p.name: [None if point is None else point[p.name][0] for point in grid]
        for p in policies
    }


def sweep_replication_degree(
    source,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    degrees: Sequence[int],
    users: Sequence[UserId],
    **knobs,
) -> Dict[str, List[AggregateMetrics]]:
    """Figs. 3-7, 10, 11: metric means per policy per allowed replication
    degree — a one-point :func:`sweep_grid` (which takes ``knobs``)."""
    if not users:
        raise ValueError("empty user cohort")
    return sweep_grid(
        source, [SweepPoint(model, degrees, users)], policies, **knobs
    )[0]


def sweep_session_length(
    source,
    session_lengths: Sequence[float],
    policies: Sequence[PlacementPolicy],
    *,
    k: int,
    users: Sequence[UserId],
    **knobs,
) -> Dict[str, List[AggregateMetrics]]:
    """Fig. 8: fixed replication degree, Sporadic session length swept."""
    if not users:
        raise ValueError("empty user cohort")
    points = [
        SweepPoint(SporadicModel(session_seconds=length), [k], users)
        for length in session_lengths
    ]
    return _by_policy(sweep_grid(source, points, policies, **knobs), policies)


def sweep_user_degree(
    source,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    user_degrees: Sequence[int],
    max_users_per_degree: Optional[int] = None,
    seed: int = 0,
    **knobs,
) -> Dict[str, List[Optional[AggregateMetrics]]]:
    """Fig. 9: cohorts of user degree 1..10, replication degree maximal
    (every candidate may host).  Degrees with no users yield ``None``."""
    points = [
        SweepPoint(
            model,
            [degree],
            select_cohort(
                source, degree, max_users=max_users_per_degree, seed=seed
            ),
        )
        for degree in user_degrees
    ]
    return _by_policy(
        sweep_grid(source, points, policies, seed=seed, **knobs), policies
    )


# The dataset-per-shard names predate the single driver; every sweep
# now accepts either source.
sweep_replication_degree_datasets = sweep_replication_degree
sweep_session_length_datasets = sweep_session_length
sweep_user_degree_datasets = sweep_user_degree
