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

import math
import random
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
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
from repro.partition import partition_bounds

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
        cohort only up to rounding.  Paths that need bit-identical
        sharded results (``shards=`` on the sweeps) therefore
        concatenate the per-user cells before aggregating and use
        ``merge`` only for rollups across shard *datasets*.
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
    shards: int = 1,
) -> List[Optional[Dict[str, List[AggregateMetrics]]]]:
    """The one sweep driver: per point, metric means per policy per degree.

    ``repeats`` re-runs everything with seeds ``seed .. seed+repeats-1``
    and averages — the paper's protocol for randomised components.

    ``source`` is a :class:`~repro.datasets.schema.Dataset` or a
    :class:`~repro.datasets.sharding.ShardedDataset`:

    * **eager** — the points are swept one after another over the whole
      dataset.  Within a point the per-user cells of every fan-out slice
      are concatenated, aggregated per repeat, then averaged across
      repeats, so the series is bit-identical for every ``shards``.
    * **sharded** — the dataset is never materialised whole.  For each
      shard one view is built (:meth:`ShardedDataset.shard` with
      ``users=``) covering the union of that shard's slices of every
      point's cohort, and each slice is swept one repeat at a time
      (``seed + r``, ``repeats=1``).  Per-shard aggregates are merged
      within each repeat (:meth:`AggregateMetrics.merge`) and averaged
      across repeats last — equal to the eager series field for field up
      to float-summation order.  With a ``cache`` each (view, repeat)
      sweep is content-addressed by the view's fingerprint.

    The execution knobs never change a bit of the result: ``executor``
    fans the per-user work over worker processes; ``shards`` splits each
    cohort's fan-out into that many contiguous ``map_shared`` slices,
    bounding how many per-user results are in flight at once; and
    ``cache`` (a :class:`repro.cache.SweepCache`) short-circuits a point
    by content address.  None of them is part of a cache key.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    sharded = hasattr(source, "shard")
    if sharded:
        views = _shard_views(source, points)
        runs = [(seed + r, 1) for r in range(repeats)]
    else:
        views = [(source, [list(p.users) for p in points])]
        runs = [(seed, repeats)]
    # parts[point][run] -> one per-policy series per view covering it
    parts: List[List[List[Dict[str, List[AggregateMetrics]]]]] = [
        [[] for _ in runs] for _ in points
    ]
    for dataset, cohorts in views:
        for point, cohort, cells in zip(points, cohorts, parts):
            if not cohort:
                continue
            for (run_seed, run_repeats), run_cells in zip(runs, cells):
                run_cells.append(
                    _sweep_point(
                        dataset,
                        point.model,
                        policies,
                        mode=mode,
                        degrees=list(point.degrees),
                        users=cohort,
                        seed=run_seed,
                        repeats=run_repeats,
                        executor=executor,
                        cache=cache,
                        shards=shards,
                    )
                )
    results: List[Optional[Dict[str, List[AggregateMetrics]]]] = []
    for point, cells in zip(points, parts):
        if not point.users:
            results.append(None)
        elif not cells[0]:
            raise ValueError("no cohort user is owned by any shard")
        elif not sharded:
            results.append(cells[0][0])
        else:
            results.append(
                {
                    p.name: [
                        _rollup([[v[p.name][i] for v in run] for run in cells])
                        for i in range(len(point.degrees))
                    ]
                    for p in policies
                }
            )
    return results


def _sweep_point(
    dataset: Dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str,
    degrees: List[int],
    users: List[UserId],
    seed: int,
    repeats: int,
    executor: Optional[ParallelExecutor],
    cache: Optional["SweepCache"],
    shards: int,
) -> Dict[str, List[AggregateMetrics]]:
    """One point of :func:`sweep_grid` over one materialised dataset.

    Per-policy series are independent — each user's RNG derives from
    ``(seed, policy.name, user)`` — so a partial cache hit computes only
    the policies still missing and merges them with the cached ones.
    """
    max_degree = max(degrees)
    key_kwargs = dict(
        mode=mode, degrees=degrees, users=users, seed=seed, repeats=repeats
    )
    results: Dict[str, List[AggregateMetrics]] = {}
    compute_policies: List[PlacementPolicy] = list(policies)
    if cache is not None:
        results, compute_policies = cache.lookup(
            dataset, model, policies, **key_kwargs
        )
    if compute_policies:
        executor = executor or ParallelExecutor()
        # Shard-granular checkpoints (see repro.experiments.checkpoint)
        # ride on the cache plane: the batch runner hangs a
        # SweepCheckpoint on the cache, and every completed
        # (repeat, shard) slice is persisted so an interrupted sweep
        # resumes mid-flight instead of from scratch.  Content-addressed
        # like the cache itself, so execution knobs don't fragment it.
        checkpoint = getattr(cache, "checkpoint", None)
        ck_key = None
        if checkpoint is not None:
            ck_key = checkpoint.key_for(
                dataset, model, compute_policies, **key_kwargs
            )
        runs: Dict[str, List[List[AggregateMetrics]]] = {
            p.name: [[] for _ in degrees] for p in compute_policies
        }
        for r in range(repeats):
            run_seed = seed + r
            # Demand-driven: only the schedules the cohort's placements
            # and metrics read get computed (each forked worker fills
            # its own copy of the memo).
            schedules = schedule_memo(dataset, model, seed=run_seed)
            payload = SweepPayload(
                dataset=dataset,
                schedules=schedules,
                policies=tuple(compute_policies),
                mode=mode,
                degrees=tuple(degrees),
                max_degree=max_degree,
                seed=run_seed,
            )
            per_user = []
            for shard, (lo, hi) in enumerate(
                partition_bounds(len(users), shards)
            ):
                if lo == hi:
                    continue
                shard_users = users[lo:hi]
                if ck_key is not None:
                    stored = checkpoint.load(
                        ck_key, r, shard, users=shard_users
                    )
                    if stored is not None:
                        per_user.extend(stored)
                        continue
                phase = f"sweep[{model.name}]"
                if shards > 1:
                    phase += f"[shard {shard + 1}/{shards}]"
                shard_cells = list(
                    executor.map_shared(
                        evaluate_users_chunk,
                        payload,
                        shard_users,
                        phase=phase,
                    )
                )
                if ck_key is not None and not any(
                    is_quarantined(cell) for cell in shard_cells
                ):
                    # Quarantine decisions belong to the run that made
                    # them: a shard with excluded users is never
                    # checkpointed, so a resume re-judges it afresh.
                    checkpoint.store(
                        ck_key, r, shard, shard_users, shard_cells
                    )
                per_user.extend(shard_cells)
            # Quarantined users drop out of the aggregation (the means
            # cover the surviving cohort); the executor's FailureReport
            # records exactly who was excluded and why.
            per_user = [
                cell for cell in per_user if not is_quarantined(cell)
            ]
            if not per_user:
                raise RuntimeError(
                    f"every user of the sweep[{model.name}] cohort was "
                    f"quarantined; see the executor failure report"
                )
            for policy in compute_policies:
                for i in range(len(degrees)):
                    runs[policy.name][i].append(
                        AggregateMetrics.from_users(
                            [cell[policy.name][i] for cell in per_user]
                        )
                    )
        for policy in compute_policies:
            series = [
                AggregateMetrics.mean(cell) for cell in runs[policy.name]
            ]
            results[policy.name] = series
            if cache is not None:
                cache.store(dataset, model, policy, series, **key_kwargs)
    return {p.name: list(results[p.name]) for p in policies}


def _shard_views(
    sharded: "ShardedDataset", points: Sequence[SweepPoint]
) -> Iterator[Tuple[Dataset, List[List[UserId]]]]:
    """Per shard: one cohort view over the union of that shard's slices
    of every point's cohort, and those slices (built lazily, so one view
    is in memory at a time)."""
    per_point = [_shard_cohorts(sharded, p.users) for p in points]
    for shard in range(sharded.num_shards):
        cohorts = [slices[shard] for slices in per_point]
        union = {u for cohort in cohorts for u in cohort}
        if union:
            yield sharded.shard(shard, users=union), cohorts


def _shard_cohorts(
    sharded: "ShardedDataset", users: Sequence[UserId]
) -> List[List[UserId]]:
    """``users`` split by owning shard, each slice in ``users`` order."""
    cohorts = []
    for shard in range(sharded.num_shards):
        owned = set(sharded.shard_users(shard))
        cohorts.append([u for u in users if u in owned])
    return cohorts


def _rollup(
    parts: List[List["AggregateMetrics"]],
) -> "AggregateMetrics":
    """Merge per-shard aggregates within each repeat, then average."""
    return AggregateMetrics.mean(
        [AggregateMetrics.merge(shard_parts) for shard_parts in parts]
    )


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
