"""Shard-native pipeline equivalence: stream layout end to end.

Three layers must agree with the whole-graph reference path before the
dataset-per-shard mode can replace it at scale:

1. stream-layout shard datasets == eager stream-layout slices (graph
   rows, candidates, activities);
2. the streaming receiver-survey fixpoint == ``filter_dataset``'s
   fixpoint (via the eager builders, which run the latter);
3. the ``*_datasets`` sweep drivers == the whole-dataset sweeps,
   field for field, across the (jobs, shards) grid and with the
   per-shard side swept through the per-degree oracle —
   integer fields exactly, float fields to ~1e-9 (the only divergence
   is float-summation order in the cross-shard merge);
4. the ``*_datasets`` drivers, which build only each shard's cohort
   view, == the same per-shard sweeps over the full ``shard(k)``,
   byte for byte.

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
    AggregateMetrics,
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
from repro.core.evaluation import _rollup, _shard_cohorts
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
    """Dataset-mode sweep == whole-path sweep: ints exact, floats ~1e-9."""
    assert set(got) == set(want)
    for name in want:
        assert len(got[name]) == len(want[name]), name
        for g, w in zip(got[name], want[name]):
            if w is None:
                assert g is None
                continue
            for field in dataclasses.fields(AggregateMetrics):
                gv = getattr(g, field.name)
                wv = getattr(w, field.name)
                if isinstance(wv, int):
                    assert gv == wv, f"{name}.{field.name}"
                else:
                    assert gv == pytest.approx(
                        wv, rel=1e-9, abs=1e-12
                    ), f"{name}.{field.name}"


@functools.lru_cache(maxsize=2)
def _sweep_fixture(kind):
    spec = _stream_spec(kind)
    return spec.eager(), ShardedDataset(spec, 3)


def _policies():
    return [make_policy("maxav"), make_policy("random")]


class TestDatasetModeSweepIdentity:
    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    @pytest.mark.parametrize("reference", ["incremental", "naive"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_replication_degree(self, kind, reference, shards):
        eager, sharded = _sweep_fixture(kind)
        users = select_cohort(eager, 10, max_users=8, seed=0)
        assert users == select_cohort(sharded, 10, max_users=8, seed=0)
        kwargs = dict(
            degrees=list(range(4)),
            users=users,
            seed=0,
            repeats=2,
        )
        whole = sweep_replication_degree(
            eager, SporadicModel(), _policies(), shards=shards, **kwargs
        )
        with oracle_sweeps(reference == "naive"):
            per_shard = sweep_replication_degree_datasets(
                sharded, SporadicModel(), _policies(), shards=shards, **kwargs
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


def _full_shard_reference(sharded, points, policies, *, seed, repeats, **knobs):
    """Per-shard sweeps over the *full* ``shard(k)``, rolled up per point.

    ``points`` lists ``(model, degrees, users)``; each contributes one
    series entry per degree, or a ``None`` when ``users`` is empty.
    """
    full = {}
    out = {p.name: [] for p in policies}
    for model, degrees, users in points:
        if not users:
            for p in policies:
                out[p.name].append(None)
            continue
        cells = {
            p.name: [[[] for _ in range(repeats)] for _ in degrees]
            for p in policies
        }
        for k, cohort in enumerate(_shard_cohorts(sharded, users)):
            if not cohort:
                continue
            if k not in full:
                full[k] = sharded.shard(k)
            for r in range(repeats):
                point = sweep_replication_degree(
                    full[k],
                    model,
                    policies,
                    degrees=degrees,
                    users=cohort,
                    seed=seed + r,
                    repeats=1,
                    **knobs,
                )
                for name, series in point.items():
                    for i, aggregate in enumerate(series):
                        cells[name][i][r].append(aggregate)
        for p in policies:
            out[p.name].extend(_rollup(cell) for cell in cells[p.name])
    return out


_DRIVERS = ("replication_degree", "session_length", "user_degree")


@pytest.mark.parametrize("driver", _DRIVERS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_cohort_views_match_full_shards_exactly(driver, jobs):
    """Cohort-scoped builds change what is materialised, never a bit of
    the result: every driver's series equals the full-shard reference
    under canonical JSON."""
    if jobs > 1 and not fork_available():
        pytest.skip("needs fork pools")
    _, sharded = _sweep_fixture("facebook")
    policies = _policies()
    common = dict(seed=0, repeats=2)
    with ParallelExecutor(jobs=jobs) as executor:
        knobs = dict(executor=executor, mode=CONREP)
        if driver == "replication_degree":
            users = select_cohort(sharded, 10, max_users=8, seed=0)
            got = sweep_replication_degree_datasets(
                sharded,
                SporadicModel(),
                policies,
                degrees=[0, 1, 3],
                users=users,
                **common,
                **knobs,
            )
            points = [(SporadicModel(), [0, 1, 3], users)]
        elif driver == "session_length":
            users = select_cohort(sharded, 10, max_users=6, seed=0)
            lengths = (1000.0, 10000.0)
            got = sweep_session_length_datasets(
                sharded, lengths, policies, k=2, users=users, **common, **knobs
            )
            points = [
                (SporadicModel(session_seconds=length), [2], users)
                for length in lengths
            ]
        else:
            degrees = [2, 3, 10_000]
            got = sweep_user_degree_datasets(
                sharded,
                SporadicModel(),
                policies,
                user_degrees=degrees,
                max_users_per_degree=6,
                **common,
                **knobs,
            )
            points = [
                (
                    SporadicModel(),
                    [degree],
                    select_cohort(sharded, degree, max_users=6, seed=0),
                )
                for degree in degrees
            ]
        want = _full_shard_reference(
            sharded, points, policies, **common, **knobs
        )
    assert _canonical(got) == _canonical(want)



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
from repro.core.evaluation import _rollup, _shard_cohorts
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
        # dataset-mode metric must then be bit-identical across salts.
        a = _run_under_hashseed("random", kind)
        b = _run_under_hashseed("random", kind)
        c = _run_under_hashseed("0", kind)
        assert a == b == c
