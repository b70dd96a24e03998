"""Micro-benchmarks of the hot-path primitives.

Unlike the figure benches (single-round macro experiments), these run
multi-round timings of the operations the sweeps spend their time in:
interval union/overlap, greedy selection, delay computation, and schedule
generation.  Regressions here multiply across every experiment.
"""

import random

from repro.core import CONREP, MaxAvPlacement, PlacementContext
from repro.core.connectivity import (
    ReplicaGroup,
    actual_propagation_delay_hours,
)
from repro.experiments import BENCH, facebook_dataset
from repro.experiments.figures import _cohort
from repro.onlinetime import SporadicModel, compute_schedules
from repro.timeline import IntervalSet


def _schedules():
    dataset = facebook_dataset(BENCH)
    return dataset, compute_schedules(dataset, SporadicModel(), seed=BENCH.seed)


def test_perf_interval_union_all(benchmark):
    _, schedules = _schedules()
    sets = list(schedules.values())[:300]

    result = benchmark(IntervalSet.union_all, sets)
    assert result.measure > 0


def test_perf_interval_overlap(benchmark):
    _, schedules = _schedules()
    sets = [s for s in schedules.values() if s][:200]

    def overlap_all():
        total = 0.0
        for i in range(0, len(sets) - 1, 2):
            total += sets[i].overlap(sets[i + 1])
        return total

    benchmark(overlap_all)


def test_perf_maxav_selection(benchmark):
    dataset, schedules = _schedules()
    users = _cohort(dataset, BENCH)
    policy = MaxAvPlacement()

    def place_cohort():
        out = []
        for user in users:
            ctx = PlacementContext(
                dataset=dataset,
                schedules=schedules,
                user=user,
                mode=CONREP,
                rng=random.Random(0),
            )
            out.append(policy.select(ctx, 5))
        return out

    selections = benchmark(place_cohort)
    assert any(selections)


def test_perf_delay_computation(benchmark):
    dataset, schedules = _schedules()
    users = _cohort(dataset, BENCH)
    groups = []
    policy = MaxAvPlacement()
    for user in users:
        ctx = PlacementContext(
            dataset=dataset,
            schedules=schedules,
            user=user,
            mode=CONREP,
            rng=random.Random(0),
        )
        replicas = policy.select(ctx, 5)
        groups.append(
            ReplicaGroup(
                owner=user,
                replicas=replicas,
                schedules={m: schedules[m] for m in (user,) + replicas},
            )
        )

    def delays():
        return [actual_propagation_delay_hours(g) for g in groups]

    values = benchmark(delays)
    assert all(v >= 0 for v in values)


def test_perf_schedule_generation(benchmark):
    dataset = facebook_dataset(BENCH)
    model = SporadicModel()

    schedules = benchmark(compute_schedules, dataset, model, seed=1)
    assert len(schedules) == dataset.num_users


def test_perf_single_overlap_row(benchmark):
    # One point query's cold overlap work: a single OverlapCache row
    # (owner vs all candidates).
    from repro.core.connectivity import OverlapCache

    dataset, schedules = _schedules()
    users = _cohort(dataset, BENCH)
    owner = users[0]
    candidates = sorted(dataset.replica_candidates(owner))

    def one_row():
        cache = OverlapCache(schedules)
        return [cache.overlap(owner, c) for c in candidates]

    row = benchmark(one_row)
    assert len(row) == len(candidates)


def test_perf_single_setcover_gain(benchmark):
    # One greedy set-cover gain evaluation: the scalar primitive behind
    # each MaxAv selection step a point query performs.
    from repro.core.setcover import IntervalUniverse

    dataset, schedules = _schedules()
    users = _cohort(dataset, BENCH)
    owner = users[0]
    candidates = sorted(dataset.replica_candidates(owner))
    universe = IntervalSet.full_day()
    covered = schedules[owner]

    def gains():
        uni = IntervalUniverse(universe, covered)
        return [uni.gain(schedules[c]) for c in candidates]

    values = benchmark(gains)
    assert len(values) == len(candidates)
    assert all(v >= 0 for v in values)
