"""Shard-native pipeline equivalence: stream layout end to end.

Four layers must agree with the whole-graph reference path before
sharded sources can replace it at scale:

1. stream-layout shard datasets == eager stream-layout slices (graph
   rows, candidates, activities);
2. the streaming receiver-survey fixpoint == ``filter_dataset``'s
   fixpoint (via the eager builders, which run the latter);
3. the sweep drivers over a ShardedDataset == the whole-dataset sweeps,
   bit for bit (``==``), across the (jobs, shards) grid and with the
   sharded side swept through the per-degree oracle: both aggregate
   the same per-user cells in cohort order;
4. the drivers, which build only each shard's cohort view, == the
   eager sweeps under canonical JSON, byte for byte.

The subprocess suite re-asserts layer 1+3 under ``PYTHONHASHSEED=random``
so no set/dict iteration order can leak into shard content or metrics.
"""

import dataclasses
import functools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.core import (
    CONREP,
    SweepPoint,
    make_policy,
    select_cohort,
    sweep_grid,
    sweep_replication_degree,
    sweep_replication_degree_datasets,
    sweep_session_length,
    sweep_session_length_datasets,
    sweep_user_degree,
    sweep_user_degree_datasets,
)
from repro.core.evaluation import _shard_cohorts
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import FixedLengthModel, SporadicModel
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _stream_spec(kind, num_users=300, seed=7):
    return SyntheticSpec(
        kind=kind, num_users=num_users, seed=seed, graph_layout="stream"
    )


def _assert_shards_match_eager(spec, num_shards):
    eager = spec.eager()
    sharded = ShardedDataset(spec, num_shards)
    assert tuple(sorted(eager.graph.users())) == sharded.survivors
    seen = []
    for k in range(num_shards):
        shard = sharded.shard(k)
        cohort = sharded.shard_users(k)
        seen.extend(cohort)
        for user in cohort:
            assert shard.graph.replica_candidates(
                user
            ) == eager.graph.replica_candidates(user)
            assert list(shard.trace.created_by(user)) == list(
                eager.trace.created_by(user)
            )
            assert list(shard.trace.received_by(user)) == list(
                eager.trace.received_by(user)
            )
    assert tuple(seen) == sharded.survivors


class TestStreamShardEquivalence:
    def test_facebook_stream_shards_match_eager(self):
        _assert_shards_match_eager(_stream_spec("facebook"), 4)

    def test_twitter_stream_shards_match_eager(self):
        # Twitter exercises the candidate filter inside the fixpoint.
        _assert_shards_match_eager(_stream_spec("twitter", seed=11), 3)

    def test_stream_plane_never_exposes_a_whole_graph(self):
        sharded = ShardedDataset(_stream_spec("facebook", 120, seed=2), 2)
        with pytest.raises(AttributeError):
            sharded.graph

    def test_streaming_fixpoint_matches_filter_dataset(self):
        # spec.eager() runs filter_dataset to fixpoint on the whole
        # graph; the survivor survey must land on the same set without
        # ever building that graph.
        for kind in ("facebook", "twitter"):
            spec = _stream_spec(kind, 250, seed=9)
            sharded = ShardedDataset(spec, 2)
            assert sharded.survivors == tuple(
                sorted(spec.eager().graph.users())
            )

    def test_users_with_degree_matches_filtered_graph(self):
        spec = _stream_spec("facebook", 250, seed=9)
        sharded = ShardedDataset(spec, 2)
        graph = spec.eager().graph
        for degree in (1, 2, 5, 10):
            assert sharded.users_with_degree(degree) == list(
                graph.users_with_degree(degree)
            )

    def test_stream_fingerprints_do_not_alias_legacy(self):
        legacy = SyntheticSpec(kind="facebook", num_users=120, seed=2)
        stream = _stream_spec("facebook", 120, seed=2)
        assert legacy.fingerprint() != stream.fingerprint()


def _assert_series_match(got, want):
    """Sharded sweep == whole-path sweep, every field of every point."""
    assert set(got) == set(want)
    for name in want:
        assert got[name] == want[name], name


@functools.lru_cache(maxsize=None)
def _sweep_fixture(kind, shards=3):
    spec = _stream_spec(kind)
    return spec.eager(), ShardedDataset(spec, shards)


def _policies():
    return [make_policy("maxav"), make_policy("random")]


class TestDatasetModeSweepIdentity:
    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    @pytest.mark.parametrize("reference", ["incremental", "naive"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_replication_degree(self, kind, reference, shards):
        eager, sharded = _sweep_fixture(kind, shards)
        users = select_cohort(eager, 10, max_users=8, seed=0)
        assert users == select_cohort(sharded, 10, max_users=8, seed=0)
        kwargs = dict(
            degrees=list(range(4)),
            users=users,
            seed=0,
            repeats=2,
        )
        whole = sweep_replication_degree(
            eager, SporadicModel(), _policies(), **kwargs
        )
        with oracle_sweeps(reference == "naive"):
            per_shard = sweep_replication_degree_datasets(
                sharded, SporadicModel(), _policies(), **kwargs
            )
        _assert_series_match(per_shard, whole)

    @pytest.mark.skipif(not fork_available(), reason="needs fork pools")
    def test_replication_degree_across_jobs(self):
        eager, sharded = _sweep_fixture("facebook")
        users = select_cohort(eager, 10, max_users=8, seed=0)
        kwargs = dict(degrees=[0, 2], users=users, seed=0, repeats=1)
        whole = sweep_replication_degree(
            eager, SporadicModel(), _policies(), **kwargs
        )
        with ParallelExecutor(jobs=2) as executor:
            per_shard = sweep_replication_degree_datasets(
                sharded,
                SporadicModel(),
                _policies(),
                executor=executor,
                **kwargs,
            )
        _assert_series_match(per_shard, whole)

    def test_session_length(self):
        eager, sharded = _sweep_fixture("facebook")
        users = select_cohort(eager, 10, max_users=6, seed=0)
        kwargs = dict(k=2, users=users, seed=0, repeats=2)
        whole = sweep_session_length(
            eager, (1000.0, 10000.0), _policies(), **kwargs
        )
        per_shard = sweep_session_length_datasets(
            sharded, (1000.0, 10000.0), _policies(), **kwargs
        )
        _assert_series_match(per_shard, whole)

    def test_user_degree(self):
        eager, sharded = _sweep_fixture("facebook")
        kwargs = dict(
            user_degrees=[2, 3, 10_000],
            max_users_per_degree=6,
            seed=0,
            repeats=2,
        )
        whole = sweep_user_degree(
            eager, SporadicModel(), _policies(), **kwargs
        )
        per_shard = sweep_user_degree_datasets(
            sharded, SporadicModel(), _policies(), **kwargs
        )
        # Degree 10_000 has no users: both paths must emit None there.
        assert any(v is None for v in whole["maxav"])
        _assert_series_match(per_shard, whole)

    def test_empty_cohort_rejected(self):
        _, sharded = _sweep_fixture("facebook")
        with pytest.raises(ValueError):
            sweep_replication_degree_datasets(
                sharded,
                SporadicModel(),
                _policies(),
                degrees=[0],
                users=[],
                seed=0,
            )


def _canonical(series):
    """The exact JSON text of a sweep's series (floats by shortest repr)."""
    return json.dumps(
        {
            name: [
                None if m is None else dataclasses.asdict(m) for m in points
            ]
            for name, points in series.items()
        },
        sort_keys=True,
    )


_DRIVERS = ("replication_degree", "session_length", "user_degree")


@pytest.mark.parametrize("driver", _DRIVERS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_cohort_views_match_full_shards_exactly(driver, jobs):
    """Cohort-scoped builds change what is materialised, never a bit of
    the result: every driver's series equals the eager sweep (whose
    dataset holds every full shard) under canonical JSON."""
    if jobs > 1 and not fork_available():
        pytest.skip("needs fork pools")
    eager, sharded = _sweep_fixture("facebook")
    policies = _policies()
    common = dict(seed=0, repeats=2, mode=CONREP)

    def sweep(source, **knobs):
        if driver == "replication_degree":
            return sweep_replication_degree_datasets(
                source,
                SporadicModel(),
                policies,
                degrees=[0, 1, 3],
                users=select_cohort(sharded, 10, max_users=8, seed=0),
                **common,
                **knobs,
            )
        if driver == "session_length":
            return sweep_session_length_datasets(
                source,
                (1000.0, 10000.0),
                policies,
                k=2,
                users=select_cohort(sharded, 10, max_users=6, seed=0),
                **common,
                **knobs,
            )
        return sweep_user_degree_datasets(
            source,
            SporadicModel(),
            policies,
            user_degrees=[2, 3, 10_000],
            max_users_per_degree=6,
            **common,
            **knobs,
        )

    with ParallelExecutor(jobs=jobs) as executor:
        got = sweep(sharded, executor=executor)
    assert _canonical(got) == _canonical(sweep(eager))


def test_grid_builds_one_view_per_shard_for_all_points(monkeypatch):
    """A multi-point grid over a ShardedDataset materialises each shard's
    view once (covering every point's slice), and each point's series
    equals its own single-point sweep byte for byte."""
    _, sharded = _sweep_fixture("facebook")
    users = select_cohort(sharded, 10, max_users=8, seed=0)
    points = [
        SweepPoint(SporadicModel(), [0, 2], users),
        SweepPoint(FixedLengthModel(8), [1], users[1::2]),
    ]
    built = []
    original = ShardedDataset.shard

    def counting_shard(self, shard, users=None):
        built.append(shard)
        return original(self, shard, users=users)

    monkeypatch.setattr(ShardedDataset, "shard", counting_shard)
    grid = sweep_grid(sharded, points, _policies(), seed=0, repeats=2)
    owners = {k for k, c in enumerate(_shard_cohorts(sharded, users)) if c}
    assert len(owners) > 1
    assert sorted(built) == sorted(owners)
    for point, got in zip(points, grid):
        want = sweep_replication_degree(
            sharded,
            point.model,
            _policies(),
            degrees=point.degrees,
            users=point.users,
            seed=0,
            repeats=2,
        )
        assert _canonical(got) == _canonical(want)

_SUBPROCESS_SCRIPT = """
import dataclasses, json, sys
from repro.core import (
    make_policy,
    select_cohort,
    sweep_replication_degree_datasets,
)
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import FixedLengthModel, SporadicModel

kind = sys.argv[1]
spec = SyntheticSpec(
    kind=kind, num_users=200, seed=13, graph_layout="stream"
)
eager = spec.eager()
sharded = ShardedDataset(spec, 2)
assert tuple(sorted(eager.graph.users())) == sharded.survivors
for k in range(2):
    ds = sharded.shard(k)
    for u in sharded.shard_users(k):
        assert ds.graph.replica_candidates(u) == eager.graph.replica_candidates(u)
        assert list(ds.trace.created_by(u)) == list(eager.trace.created_by(u))

users = select_cohort(sharded, 10, max_users=5, seed=0)
series = sweep_replication_degree_datasets(
    sharded,
    SporadicModel(),
    [make_policy("maxav"), make_policy("random")],
    degrees=[0, 2],
    users=users,
    seed=0,
    repeats=1,
)
print(json.dumps({
    "survivors": list(sharded.survivors),
    "cohort": list(users),
    "series": {
        name: [dataclasses.asdict(m) for m in points]
        for name, points in sorted(series.items())
    },
}))
"""


def _run_under_hashseed(hashseed, kind):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT, kind],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    def test_shard_native_pipeline_across_hash_seeds(self, kind):
        # Shard==eager is asserted *inside* each subprocess under a
        # random string-hash salt; the survivors, the cohort, and every
        # sharded-sweep metric must then be bit-identical across salts.
        a = _run_under_hashseed("random", kind)
        b = _run_under_hashseed("random", kind)
        c = _run_under_hashseed("0", kind)
        assert a == b == c
