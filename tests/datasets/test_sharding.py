"""ShardedDataset: shard-vs-eager equivalence, cohort views and content
addressing."""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import repro
from repro.cache.keys import dataset_fingerprint
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import SporadicModel, compute_schedules
from repro.seeding import canonical_key_bytes

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


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
        assert set(shard.trace.activities) <= set(eager.trace.activities)
    # Shards partition the surviving cohort, in order, without overlap.
    assert tuple(seen) == sharded.survivors


class TestShardEquivalence:
    def test_facebook_shards_match_eager_slices(self):
        _assert_shards_match_eager(
            SyntheticSpec(kind="facebook", num_users=300, seed=7), 4
        )

    def test_twitter_shards_match_eager_slices(self):
        # Twitter also exercises the candidate filter in the fixpoint.
        _assert_shards_match_eager(
            SyntheticSpec(kind="twitter", num_users=300, seed=11), 3
        )

    def test_unfiltered_fast_path(self):
        _assert_shards_match_eager(
            SyntheticSpec(
                kind="facebook", num_users=120, seed=5, min_activities=0
            ),
            2,
        )

    def test_single_shard_covers_everything(self):
        spec = SyntheticSpec(kind="facebook", num_users=200, seed=3)
        sharded = ShardedDataset(spec, 1)
        assert sharded.shard_users(0) == sharded.survivors

    def test_more_shards_than_survivors(self):
        spec = SyntheticSpec(kind="facebook", num_users=60, seed=1)
        sharded = ShardedDataset(spec, 500)
        seen = []
        for shard in range(500):
            seen.extend(sharded.shard_users(shard))
        assert tuple(seen) == sharded.survivors

    def test_shard_index_validated(self):
        sharded = ShardedDataset(
            SyntheticSpec(kind="facebook", num_users=60, seed=1), 2
        )
        with pytest.raises(IndexError):
            sharded.shard_users(2)
        with pytest.raises(IndexError):
            sharded.shard_users(-1)

    def test_num_shards_validated(self):
        with pytest.raises(ValueError):
            ShardedDataset(
                SyntheticSpec(kind="facebook", num_users=60, seed=1), 0
            )


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="myspace", num_users=100)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="facebook", num_users=1)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="facebook", num_users=100, min_activities=-1)


class TestContentAddressing:
    def test_shard_fingerprint_prestamped(self):
        # The sweep cache must address a shard without hashing its
        # edges/activities: the fingerprint is stamped at build time and
        # distinct per (spec, shard, num_shards).
        sharded = ShardedDataset(
            SyntheticSpec(kind="facebook", num_users=120, seed=2), 2
        )
        a, b = sharded.shard(0), sharded.shard(1)
        assert dataset_fingerprint(a) == sharded.shard_fingerprint(0)
        assert dataset_fingerprint(a) != dataset_fingerprint(b)

    def test_spec_fingerprint_covers_knobs(self):
        base = SyntheticSpec(kind="facebook", num_users=120, seed=2)
        assert base.fingerprint() == SyntheticSpec(
            kind="facebook", num_users=120, seed=2
        ).fingerprint()
        for other in (
            SyntheticSpec(kind="facebook", num_users=120, seed=3),
            SyntheticSpec(kind="facebook", num_users=121, seed=2),
            SyntheticSpec(kind="twitter", num_users=120, seed=2),
            SyntheticSpec(
                kind="facebook", num_users=120, seed=2, max_degree=9
            ),
        ):
            assert other.fingerprint() != base.fingerprint()


@functools.lru_cache(maxsize=4)
def _view_fixture(layout, kind):
    spec = SyntheticSpec(
        kind=kind, num_users=240, seed=17, graph_layout=layout
    )
    return ShardedDataset(spec, 3)


def _random_subsets(owned, rng, count=3):
    """``count`` random non-empty subsets of ``owned`` (one singleton)."""
    sizes = [1] + [rng.randint(1, len(owned)) for _ in range(count - 1)]
    return [rng.sample(list(owned), size) for size in sizes]


@pytest.mark.parametrize("layout", ["legacy", "stream"])
@pytest.mark.parametrize("kind", ["facebook", "twitter"])
class TestCohortViews:
    """``shard(k, users=...)`` == ``shard(k)`` on everything a sweep of
    ``users`` reads: candidates, created and received activities, and the
    schedules of the users and their candidates."""

    def test_view_matches_full_shard(self, layout, kind):
        sharded = _view_fixture(layout, kind)
        model = SporadicModel()
        rng = random.Random(f"{layout}-{kind}")
        for k in range(sharded.num_shards):
            full = sharded.shard(k)
            full_schedules = compute_schedules(full, model, seed=3)
            for users in _random_subsets(sharded.shard_users(k), rng):
                view = sharded.shard(k, users=users)
                closure = set(users)
                for user in users:
                    candidates = view.graph.replica_candidates(user)
                    assert candidates == full.graph.replica_candidates(user)
                    closure |= set(candidates)
                    assert list(view.trace.created_by(user)) == list(
                        full.trace.created_by(user)
                    )
                    assert list(view.trace.received_by(user)) == list(
                        full.trace.received_by(user)
                    )
                # The view covers exactly the cohort's closure, and every
                # schedule in it equals the full shard's.
                assert set(view.graph.users()) == closure
                schedules = compute_schedules(view, model, seed=3)
                assert schedules == {
                    u: full_schedules[u] for u in closure
                }

    def test_invalid_views_rejected(self, layout, kind):
        sharded = _view_fixture(layout, kind)
        owned = sharded.shard_users(0)
        other = sharded.shard_users(1)
        survivors = set(sharded.survivors)
        dead = next(
            u for u in range(sharded.spec.num_users) if u not in survivors
        )
        for users in ([], (), [other[0]], [owned[0], other[-1]], [dead]):
            with pytest.raises(ValueError):
                sharded.shard(0, users=users)

    def test_view_fingerprints(self, layout, kind):
        sharded = _view_fixture(layout, kind)
        owned = list(sharded.shard_users(1))
        # The whole slice, in any order, is the shard itself.
        whole = sharded.shard(1, users=owned[::-1])
        assert dataset_fingerprint(whole) == sharded.shard_fingerprint(1)
        a = sharded.shard(1, users=owned[:2])
        b = sharded.shard(1, users=owned[1:3])
        assert dataset_fingerprint(a) != dataset_fingerprint(b)
        assert dataset_fingerprint(a) != sharded.shard_fingerprint(1)
        # The address covers the sorted user set, whatever the input order.
        users = owned[::3][::-1]
        assert dataset_fingerprint(
            sharded.shard(1, users=users)
        ) == hashlib.sha256(
            canonical_key_bytes(
                "shard-cohort", sharded.spec.fingerprint(), *sorted(users)
            )
        ).hexdigest()


_VIEW_FINGERPRINT_SCRIPT = """
import json
from repro.cache.keys import dataset_fingerprint
from repro.datasets import ShardedDataset, SyntheticSpec

sharded = ShardedDataset(SyntheticSpec(kind="facebook", num_users=200, seed=5), 2)
owned = sharded.shard_users(1)
views = [set(owned[:3]), {owned[-1], owned[0]}, set(owned)]
print(json.dumps([dataset_fingerprint(sharded.shard(1, users=v)) for v in views]))
"""


def test_view_fingerprints_stable_across_hash_seeds():
    # Views are passed as sets, so their iteration order varies with the
    # string-hash salt; the content address must not.
    runs = [
        json.loads(
            _run_script_under_hashseed(_VIEW_FINGERPRINT_SCRIPT, hashseed)
        )
        for hashseed in ("1", "2", "0")
    ]
    assert runs[0] == runs[1] == runs[2]
    assert len(set(runs[0])) == 3


_SUBPROCESS_SCRIPT = """
import json, random, sys
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import SporadicModel, compute_schedules
from repro.seeding import canonical_key_bytes

kind = sys.argv[1]
spec = SyntheticSpec(kind=kind, num_users=200, seed=13)
eager = spec.eager()
sharded = ShardedDataset(spec, 3)
assert tuple(sorted(eager.graph.users())) == sharded.survivors
shard = random.Random(99).randrange(3)
ds = sharded.shard(shard)
cohort = sharded.shard_users(shard)
for u in cohort:
    assert ds.graph.replica_candidates(u) == eager.graph.replica_candidates(u)
    assert list(ds.trace.created_by(u)) == list(eager.trace.created_by(u))
    assert list(ds.trace.received_by(u)) == list(eager.trace.received_by(u))
print(json.dumps({
    "shard": shard,
    "cohort": list(cohort),
    "activities": [
        (a.timestamp, a.creator, a.receiver) for a in ds.trace.activities
    ],
}))
"""


def _run_script_under_hashseed(script, hashseed, *args):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def _run_under_hashseed(hashseed, kind):
    return json.loads(
        _run_script_under_hashseed(_SUBPROCESS_SCRIPT, hashseed, kind)
    )


class TestHashSeedIndependence:
    @pytest.mark.parametrize("kind", ["facebook", "twitter"])
    def test_shard_equals_eager_slice_across_hash_seeds(self, kind):
        # The property (shard == eager slice) is asserted *inside* each
        # subprocess under a random string-hash salt, and the shard's
        # materialised activities must be identical across salts.
        a = _run_under_hashseed("random", kind)
        b = _run_under_hashseed("random", kind)
        c = _run_under_hashseed("0", kind)
        assert a == b == c
