"""Sharded sources compose with the sweep cache and its partial entries.

A sweep over a ShardedDataset caches its finished series under the
source's spec-derived fingerprint, so a rerun — in another process,
under another string-hash salt, at another shard count — must hit every
entry before building any view; and an interrupted sharded batch must
resume from the per-view partial entries it wrote.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cache import SweepCache
from repro.cache.keys import dataset_fingerprint
from repro.experiments import facebook_sharded, load_result, run_batch
from tests.experiments.test_config_and_registry import TINY

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_CACHED_SWEEP_SCRIPT = """
import dataclasses, json, sys
from repro.cache import SweepCache
from repro.core import make_policy, select_cohort, sweep_replication_degree_datasets
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import SporadicModel

spec = SyntheticSpec(kind="facebook", num_users=300, seed=7)
sharded = ShardedDataset(spec, int(sys.argv[2]))
users = select_cohort(sharded, 10, max_users=8, seed=0)
views = []
shard = ShardedDataset.shard
ShardedDataset.shard = lambda self, *a, **kw: views.append(a) or shard(self, *a, **kw)
cache = SweepCache(sys.argv[1])
series = sweep_replication_degree_datasets(
    sharded,
    SporadicModel(),
    [make_policy("maxav"), make_policy("random")],
    degrees=[0, 2],
    users=users,
    seed=0,
    repeats=2,
    cache=cache,
)
owners = {
    k
    for k in range(sharded.num_shards)
    for u in users
    if u in sharded.shard_users(k)
}
print(json.dumps({
    "owners": len(owners),
    "views": len(views),
    "stats": cache.stats.as_dict(),
    "series": {
        name: [dataclasses.asdict(m) for m in points]
        for name, points in sorted(series.items())
    },
}, sort_keys=True))
"""


def _cached_sweep(cache_dir, hashseed, shards=3):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            _CACHED_SWEEP_SCRIPT,
            str(cache_dir),
            str(shards),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_disk_cache_hits_every_view_entry_across_hash_seeds(tmp_path):
    first = _cached_sweep(tmp_path, "1")
    policies = len(first["series"])
    # One series entry per policy for the whole source, computed over
    # one view per owning shard.
    assert first["owners"] > 1
    assert first["views"] == first["owners"]
    assert first["stats"]["stores"] == policies
    # Another salt and another shard count: every entry hits before
    # any view is built.
    second = _cached_sweep(tmp_path, "2", shards=2)
    assert second["views"] == 0
    assert second["stats"]["misses"] == 0
    assert second["stats"]["stores"] == 0
    assert second["stats"]["hits"] == first["stats"]["stores"]
    assert second["series"] == first["series"]


def test_dataset_mode_resume_reloads_view_checkpoints(
    tmp_path, monkeypatch
):
    kwargs = dict(scale=TINY, ids=["fig3"], shards=2)
    fingerprints = []
    partial_key = SweepCache.partial_key
    put_cells = SweepCache.put_cells

    def recording_partial_key(self, dataset, *args, **kw):
        fingerprints.append(dataset_fingerprint(dataset))
        return partial_key(self, dataset, *args, **kw)

    def interrupting_put_cells(self, *args, **kw):
        put_cells(self, *args, **kw)
        if self.stats.partial_stores == 3:
            raise KeyboardInterrupt

    monkeypatch.setattr(SweepCache, "partial_key", recording_partial_key)
    monkeypatch.setattr(SweepCache, "put_cells", interrupting_put_cells)
    interrupted = tmp_path / "interrupted"
    with pytest.raises(KeyboardInterrupt):
        run_batch(interrupted, **kwargs)
    # The sweeps ran over cohort views, not whole shards.
    sharded = facebook_sharded(TINY, 2)
    whole = {sharded.shard_fingerprint(k) for k in range(2)}
    assert fingerprints and not set(fingerprints) & whole
    monkeypatch.setattr(SweepCache, "put_cells", put_cells)

    run_batch(interrupted, resume=True, **kwargs)
    summary = json.loads((interrupted / "batch_summary.json").read_text())
    assert summary["cache"]["partial_loads"] == 3
    assert summary["cache"]["stale"] == 0
    assert summary["cache"]["partial_stores"] > 0
    # The finished sweep sealed every partial entry it wrote.
    assert not list((interrupted / "cache").glob("*.cells.json"))
    clean = tmp_path / "clean"
    run_batch(clean, **kwargs)
    a = load_result(interrupted / "fig3.json")
    b = load_result(clean / "fig3.json")
    a.pop("timings")
    b.pop("timings")
    assert a == b
