"""Property suite: the vectorized replay against the scalar oracle.

The contract of the packed-plane port is *bit identity*, not statistical
agreement: for every dataset, online-time model, latency model and
``ReplayConfig`` knob, :class:`VectorizedReplay` must produce a
``SimulationStats`` whose ``to_dict()`` rendering equals the scalar
:class:`DecentralizedOSN`'s field for field, and replay the same logical
event count.  The same identity must hold across the orchestration knobs
— ``backend`` x ``shards`` x ``jobs`` — which is what licenses the replay
cache key to exclude all three.

The cross-validation class runs on randomized synthetic datasets
(Facebook and Twitter shapes, several seeds) rather than hand-built
scenarios, so each CI run under ``PYTHONHASHSEED=random`` re-checks the
equivalence on fresh graph/trace/schedule draws.
"""

import functools

import pytest

from repro.core import CONREP, make_policy, placement_sequences, select_cohort
from repro.datasets import synthetic_facebook, synthetic_twitter
from repro.onlinetime import (
    FixedLengthModel,
    SporadicModel,
    compute_schedules,
    packed_schedules,
)
from repro.parallel import ParallelExecutor
from repro.simulator import (
    ConstantLatency,
    DecentralizedOSN,
    ReplayConfig,
    SimulationStats,
    UniformLatency,
    VectorizedReplay,
    replay_trace,
    shard_owners,
)
from repro.simulator.stats import Counter2


@functools.lru_cache(maxsize=None)
def _scenario(kind, seed, model_name):
    """A (dataset, schedules, tracked cohort, placements, packed) bundle."""
    if kind == "facebook":
        ds = synthetic_facebook(260, seed=seed)
    else:
        ds = synthetic_twitter(260, seed=seed)
    model = (
        FixedLengthModel(8) if model_name == "fixed8" else SporadicModel()
    )
    schedules = compute_schedules(ds, model, seed=seed)
    users = select_cohort(ds, 6, max_users=10)
    if not users:
        users = sorted(ds.graph.users())[:10]
    placements = placement_sequences(
        ds,
        schedules,
        users,
        make_policy("maxav"),
        mode=CONREP,
        max_degree=3,
        seed=seed,
    )
    packed = packed_schedules(ds, model, seed=seed)
    return ds, schedules, tuple(users), placements, packed


def _both(kind, seed, model_name, config, packed=False):
    """Run scalar oracle and vectorized engine; return both (stats, events)."""
    ds, schedules, users, placements, packed_arrays = _scenario(
        kind, seed, model_name
    )
    osn = DecentralizedOSN(
        ds, schedules, placements, config=config, tracked_profiles=users
    )
    scalar = osn.run()
    engine = VectorizedReplay(
        ds,
        schedules,
        placements,
        config=config,
        tracked_profiles=users,
        packed=packed_arrays if packed else None,
    )
    vector = engine.run()
    return (scalar, osn.events_replayed), (vector, engine.events_replayed)


def _assert_identical(scalar_pair, vector_pair):
    (scalar, scalar_events) = scalar_pair
    (vector, vector_events) = vector_pair
    assert vector.to_dict() == scalar.to_dict()
    assert vector_events == scalar_events


class TestScalarOracleIdentity:
    """VectorizedReplay == DecentralizedOSN, field for field."""

    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_base_config(self, kind, seed):
        _assert_identical(
            *_both(kind, seed, "fixed8", ReplayConfig(days=2))
        )

    @pytest.mark.parametrize("seed", [5, 17])
    def test_sporadic_model(self, seed):
        _assert_identical(
            *_both("facebook", seed, "sporadic", ReplayConfig(days=2))
        )

    def test_single_day_no_sampling(self):
        config = ReplayConfig(days=1, sample_every=0)
        _assert_identical(*_both("facebook", 7, "fixed8", config))

    def test_reads_disabled(self):
        config = ReplayConfig(days=2, replay_reads=False)
        _assert_identical(*_both("twitter", 7, "fixed8", config))

    def test_cdn(self):
        config = ReplayConfig(days=2, use_cdn=True)
        _assert_identical(*_both("facebook", 9, "fixed8", config))

    @pytest.mark.parametrize(
        "latency",
        [ConstantLatency(120.0), UniformLatency(30.0, 7200.0)],
        ids=["constant", "uniform"],
    )
    def test_latency_models(self, latency):
        config = ReplayConfig(days=3, latency=latency, latency_seed=4)
        _assert_identical(*_both("facebook", 13, "fixed8", config))

    def test_packed_arrays_change_nothing(self):
        config = ReplayConfig(days=2)
        _, plain = _both("facebook", 3, "fixed8", config, packed=False)
        _, packed = _both("facebook", 3, "fixed8", config, packed=True)
        assert packed[0].to_dict() == plain[0].to_dict()
        assert packed[1] == plain[1]


class TestOrchestrationIdentity:
    """Stats are invariant under (backend, shards, jobs)."""

    CONFIG = ReplayConfig(
        days=2, sample_every=1800, latency=UniformLatency(10.0, 3600.0)
    )

    def _reference(self):
        ds, schedules, users, placements, packed = _scenario(
            "facebook", 11, "fixed8"
        )
        return replay_trace(
            ds,
            schedules,
            placements,
            config=self.CONFIG,
            tracked_profiles=users,
        )

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_inline_shards(self, backend, shards):
        ds, schedules, users, placements, packed = _scenario(
            "facebook", 11, "fixed8"
        )
        reference = self._reference()
        outcome = replay_trace(
            ds,
            schedules,
            placements,
            config=self.CONFIG,
            tracked_profiles=users,
            backend=backend,
            shards=shards,
            packed=packed if backend == "numpy" else None,
        )
        assert outcome.stats.to_dict() == reference.stats.to_dict()
        assert outcome.shards == min(shards, len(placements))

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_parallel_jobs(self, backend):
        ds, schedules, users, placements, packed = _scenario(
            "facebook", 11, "fixed8"
        )
        reference = self._reference()
        with ParallelExecutor(jobs=2) as executor:
            outcome = replay_trace(
                ds,
                schedules,
                placements,
                config=self.CONFIG,
                tracked_profiles=users,
                backend=backend,
                shards=4,
                executor=executor,
                packed=packed if backend == "numpy" else None,
            )
        assert outcome.stats.to_dict() == reference.stats.to_dict()

    def test_events_match_across_backends_for_fixed_shards(self):
        # The logical event count is backend-independent for a fixed
        # partition (it grows with the shard count — each shard replays
        # the cohort-wide transition stream — but never with backend).
        ds, schedules, users, placements, packed = _scenario(
            "facebook", 11, "fixed8"
        )
        for shards in (1, 3):
            python = replay_trace(
                ds,
                schedules,
                placements,
                config=self.CONFIG,
                tracked_profiles=users,
                backend="python",
                shards=shards,
            )
            numpy = replay_trace(
                ds,
                schedules,
                placements,
                config=self.CONFIG,
                tracked_profiles=users,
                backend="numpy",
                shards=shards,
                packed=packed,
            )
            assert numpy.events_replayed == python.events_replayed


class TestBackendChoice:
    def test_check_backend(self):
        from repro.simulator.replay import BACKENDS, NUMPY, PYTHON, check_backend

        assert check_backend(PYTHON) == PYTHON
        assert check_backend(NUMPY) == NUMPY
        assert set(BACKENDS) == {PYTHON, NUMPY}
        with pytest.raises(ValueError):
            check_backend("cuda")


class TestShardOwners:
    def test_partition_covers_and_is_disjoint(self):
        placements = {u: () for u in range(17)}
        chunks = shard_owners(placements, 5)
        flat = [u for chunk in chunks for u in chunk]
        assert sorted(flat) == sorted(placements)
        assert len(flat) == len(set(flat))
        assert all(chunk for chunk in chunks)

    def test_sorted_and_contiguous(self):
        placements = {u: () for u in (9, 2, 14, 5)}
        chunks = shard_owners(placements, 2)
        assert chunks == ((2, 5), (9, 14))

    def test_never_more_shards_than_owners(self):
        placements = {1: (), 2: ()}
        assert len(shard_owners(placements, 10)) == 2

    def test_at_least_one_shard(self):
        assert shard_owners({1: ()}, 0) == ((1,),)


class TestStatsMerge:
    def _part(self, profile, hits, total, delays):
        stats = SimulationStats()
        stats.availability[profile] = Counter2(hits, total)
        stats.writes[profile] = Counter2(hits, total)
        for d in delays:
            stats.add_propagation(profile, d)
        stats.tracked_profiles = 1
        stats.consistent_profiles = 1
        return stats

    def test_counters_are_sample_weighted(self):
        merged = SimulationStats.merge(
            [self._part(1, 1, 4, []), self._part(2, 3, 4, [])]
        )
        # Two profiles, same key space disjoint: rates survive per profile.
        assert merged.availability[1].rate == 0.25
        assert merged.availability[2].rate == 0.75
        # Same profile in both parts: hit/total pairs sum (weighted rate).
        overlap = SimulationStats.merge(
            [self._part(1, 1, 4, []), self._part(1, 3, 4, [])]
        )
        assert overlap.availability[1].hits == 4
        assert overlap.availability[1].total == 8
        assert overlap.tracked_profiles == 2

    def test_disjoint_merge_order_independent(self):
        a = self._part(1, 1, 2, [0.5, 1.5])
        b = self._part(2, 2, 2, [2.5])
        ab = SimulationStats.merge([a, b])
        ba = SimulationStats.merge([b, a])
        # Flat views re-sort by profile, so order leaves no trace.
        assert ab.to_dict() == ba.to_dict() or (
            ab.propagation_delays_hours == ba.propagation_delays_hours
        )
        assert ab.propagation_delays_hours == [0.5, 1.5, 2.5]

    def test_merge_of_nothing_is_empty(self):
        merged = SimulationStats.merge([])
        assert merged.to_dict() == SimulationStats().to_dict()

    def test_json_round_trip_exact(self):
        import json

        stats = self._part(3, 5, 9, [0.1, 2.7, 3.14159])
        stats.add_staleness(3, 2)
        stats.add_observed(3, 1.25)
        stats.add_owner_delay(3, 0.75)
        stats.undelivered_to_owner = 1
        stats.incomplete_updates = 2
        wire = json.loads(json.dumps(stats.to_dict()))
        restored = SimulationStats.from_dict(wire)
        assert restored.to_dict() == stats.to_dict()
        assert restored.propagation_delays_hours == [0.1, 2.7, 3.14159]
        assert restored.read_staleness == [2]
