"""Million-user scale path: sharded lazy synthesis.

Three contracts, one record (``BENCH_scale.json``):

1. Memory — the sharded path must materialize a 1M-user synthetic
   dataset one shard at a time with peak RSS <= 50% of the eager path
   that holds the whole trace at once.  Each path runs in its own
   subprocess so ``ru_maxrss`` is that path's true high-water mark, and
   both compute the same order-independent integer digest over every
   (creator, receiver, timestamp) — per-shard generation must cover
   exactly the eager trace, or the digests diverge.  ``REPRO_SCALE_USERS``
   scales the run down (CI smokes at 100k); the committed record comes
   from the full 1M run.

2. Shard-native memory — the stream-layout dataset-per-shard path
   (``graph_layout="stream"``: per-user proposal streams, CSR-backed, no
   whole python graph ever) must come in at <= 60% of the legacy sharded
   path's peak RSS, with its digest equal to its own eager reference.
   The record keeps ``time_to_first_shard_seconds`` — the streaming
   pipeline's latency to the first materialised shard — and per-path
   ``users_per_second``.

3. Identity — sweeps over a 3-shard ``ShardedDataset`` on a subsampled
   cohort are bit-identical (``==``) to the eager sweep of the same spec,
   across jobs and with the per-degree oracle (``tests/oracle.py``)
   swept in place of the production engine.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import make_policy, select_cohort, sweep_replication_degree
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.onlinetime import SporadicModel
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Users in the scale run; the committed BENCH_scale.json uses 1M.
SCALE_USERS = int(os.environ.get("REPRO_SCALE_USERS", 1_000_000))
SCALE_SHARDS = int(os.environ.get("REPRO_SCALE_SHARDS", 32))
SCALE_SEED = 3

#: The sharded path's peak RSS must come in at or under this fraction
#: of the eager path's.  Asserted only at >= RATIO_ASSERT_MIN users:
#: below that the fixed interpreter + numpy baseline (~70 MiB) dominates
#: both paths and the ratio measures nothing about the data plane.
MAX_RSS_RATIO = 0.50
RATIO_ASSERT_MIN = 500_000

#: The stream-layout dataset-per-shard path must beat the legacy sharded
#: path's peak RSS by at least this factor (same RATIO_ASSERT_MIN gate).
MAX_STREAM_RSS_RATIO = 0.60

#: Absolute ceiling for the sharded path's peak RSS (MiB); the CI scale
#: smoke sets this for its ~100k-user run, where the ratio is not yet
#: meaningful but a memory regression still must fail the job.
RSS_CEILING_MIB = os.environ.get("REPRO_SCALE_RSS_CEILING_MB")

#: Tighter absolute ceiling (MiB) for the stream-layout sharded path —
#: the whole point of the shard-native pipeline is a lower high-water
#: mark than the legacy sharded path at the same scale.
STREAM_RSS_CEILING_MIB = os.environ.get("REPRO_SCALE_STREAM_RSS_CEILING_MB")

_JSON_PATH = Path(
    os.environ.get(
        "BENCH_SCALE_JSON",
        Path(__file__).resolve().parent.parent / "BENCH_scale.json",
    )
)

# Both subprocess scripts build the identical SyntheticSpec: a filtered
# facebook-style dataset kept lean enough (bounded degree, ~8 acts/user)
# that the eager baseline stays holdable at 1M users.
_SPEC = """
from repro.datasets import SyntheticSpec
from repro.datasets.synthesis import TraceParams

def make_spec(n, seed, layout="legacy"):
    return SyntheticSpec(
        "facebook",
        n,
        seed=seed,
        params=TraceParams(trace_days=14, activities_mean=8.0),
        min_activities=0,
        max_degree=30,
        graph_layout=layout,
    )

def digest_of(activities):
    # Integer-summed, so the total is exact and independent of the
    # order activities are visited in (unlike a float checksum).
    total = 0
    for act in activities:
        total += (
            act.creator * 1000003
            + act.receiver * 101
            + int(act.timestamp * 1e6)
        )
    return total
"""

_EAGER_SCRIPT = _SPEC + """
import json, resource, sys, time

n, seed = int(sys.argv[1]), int(sys.argv[2])
layout = sys.argv[3] if len(sys.argv) > 3 else "legacy"
spec = make_spec(n, seed, layout)
start = time.perf_counter()
dataset = spec.eager()
digest = digest_of(dataset.trace)
elapsed = time.perf_counter() - start
print(json.dumps({
    "seconds": elapsed,
    "activities": len(dataset.trace),
    "digest": digest,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    * 1024,
}))
"""

_SHARDED_SCRIPT = _SPEC + """
import json, resource, sys, time
from repro.datasets import ShardedDataset

n, seed, shards = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
layout = sys.argv[4] if len(sys.argv) > 4 else "legacy"
spec = make_spec(n, seed, layout)
start = time.perf_counter()
sharded = ShardedDataset(spec, shards)
digest = 0
activities = 0
first_shard_seconds = None
for k in range(shards):
    cohort = set(sharded.shard_users(k))
    shard = sharded.shard(k)
    if first_shard_seconds is None:
        # Latency to the first materialised shard: survivor survey +
        # one shard build.  Downstream dataset-per-shard sweeps can
        # start working after this, not after the full-graph build.
        first_shard_seconds = time.perf_counter() - start
    # Every activity lands on exactly one receiver, and that receiver's
    # shard trace is guaranteed to contain it — so counting activities
    # by receiving shard covers the eager trace exactly once.  Streamed,
    # not materialised: no filtered copy alongside the shard trace.
    received = sum(1 for a in shard.trace if a.receiver in cohort)
    digest += digest_of(
        a for a in shard.trace if a.receiver in cohort
    )
    activities += received
    del shard  # one shard resident at a time
elapsed = time.perf_counter() - start
print(json.dumps({
    "seconds": elapsed,
    "time_to_first_shard_seconds": first_shard_seconds,
    "activities": activities,
    "digest": digest,
    "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    * 1024,
}))
"""


def _run_path(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=7200,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _identity_grid():
    """Sharded source == eager dataset on a subsampled cohort, across
    the knobs."""
    spec = SyntheticSpec("facebook", 400, seed=5)
    ds = spec.eager()
    sharded = ShardedDataset(spec, 3)
    users = select_cohort(ds, 10, max_users=8)
    policies = [make_policy("maxav"), make_policy("random")]

    def sweep(source, *, jobs=1, oracle=False):
        with oracle_sweeps(oracle):
            return sweep_replication_degree(
                source,
                SporadicModel(),
                policies,
                degrees=list(range(4)),
                users=users,
                seed=0,
                repeats=2,
                executor=ParallelExecutor(jobs=jobs),
            )

    baseline = sweep(ds)
    combos = [
        {"jobs": 1, "oracle": False},
        {"jobs": 1, "oracle": True},
    ]
    if fork_available():
        combos += [
            {"jobs": 2, "oracle": False},
            {"jobs": 2, "oracle": True},
        ]
    checked = []
    for combo in combos:
        assert sweep(sharded, **combo) == baseline, combo
        checked.append(dict(combo, shards=3))
    return checked


def _path_record(result):
    entry = {
        "seconds": round(result["seconds"], 3),
        "users_per_second": round(SCALE_USERS / result["seconds"], 1),
        "peak_rss_bytes": result["peak_rss_bytes"],
        "activities": result["activities"],
    }
    if result.get("time_to_first_shard_seconds") is not None:
        entry["time_to_first_shard_seconds"] = round(
            result["time_to_first_shard_seconds"], 3
        )
    return entry


def test_scale_sharded_vs_eager(benchmark):
    identity_checked = _identity_grid()

    eager = _run_path(_EAGER_SCRIPT, SCALE_USERS, SCALE_SEED)
    stream_eager = _run_path(
        _EAGER_SCRIPT, SCALE_USERS, SCALE_SEED, "stream"
    )
    stream_sharded = _run_path(
        _SHARDED_SCRIPT, SCALE_USERS, SCALE_SEED, SCALE_SHARDS, "stream"
    )

    def run_sharded():
        return _run_path(
            _SHARDED_SCRIPT, SCALE_USERS, SCALE_SEED, SCALE_SHARDS
        )

    sharded = benchmark.pedantic(run_sharded, rounds=1, iterations=1)

    assert sharded["digest"] == eager["digest"]
    assert sharded["activities"] == eager["activities"]
    # The stream layout draws a different (but equally valid) graph, so
    # its digest anchor is its own eager reference, not the legacy one.
    assert stream_sharded["digest"] == stream_eager["digest"]
    assert stream_sharded["activities"] == stream_eager["activities"]
    rss_ratio = sharded["peak_rss_bytes"] / eager["peak_rss_bytes"]
    stream_rss_ratio = (
        stream_sharded["peak_rss_bytes"] / sharded["peak_rss_bytes"]
    )

    record = {
        "bench": "scale",
        "users": SCALE_USERS,
        "shards": SCALE_SHARDS,
        "seed": SCALE_SEED,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "eager": _path_record(eager),
        "sharded": _path_record(sharded),
        "stream_eager": _path_record(stream_eager),
        "stream_sharded": _path_record(stream_sharded),
        "rss_ratio": round(rss_ratio, 4),
        "max_rss_ratio": MAX_RSS_RATIO,
        "stream_rss_ratio": round(stream_rss_ratio, 4),
        "max_stream_rss_ratio": MAX_STREAM_RSS_RATIO,
        "ratio_asserted": SCALE_USERS >= RATIO_ASSERT_MIN,
        "rss_ceiling_mib": float(RSS_CEILING_MIB) if RSS_CEILING_MIB else None,
        "stream_rss_ceiling_mib": (
            float(STREAM_RSS_CEILING_MIB) if STREAM_RSS_CEILING_MIB else None
        ),
        "digests_identical": True,
        "identity_grid": identity_checked,
    }
    _JSON_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(
        f"{SCALE_USERS} users: eager {eager['seconds']:.1f}s / "
        f"{eager['peak_rss_bytes'] / 2**20:.0f} MiB, sharded(x"
        f"{SCALE_SHARDS}) {sharded['seconds']:.1f}s / "
        f"{sharded['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"(ratio {rss_ratio:.2f}), stream sharded "
        f"{stream_sharded['seconds']:.1f}s / "
        f"{stream_sharded['peak_rss_bytes'] / 2**20:.0f} MiB "
        f"(vs legacy sharded {stream_rss_ratio:.2f}, first shard "
        f"{stream_sharded['time_to_first_shard_seconds']:.1f}s) "
        f"-> {_JSON_PATH}"
    )
    if RSS_CEILING_MIB:
        assert sharded["peak_rss_bytes"] <= float(RSS_CEILING_MIB) * 2**20
    if STREAM_RSS_CEILING_MIB:
        assert (
            stream_sharded["peak_rss_bytes"]
            <= float(STREAM_RSS_CEILING_MIB) * 2**20
        )
    if SCALE_USERS >= RATIO_ASSERT_MIN:
        assert rss_ratio <= MAX_RSS_RATIO
        assert stream_rss_ratio <= MAX_STREAM_RSS_RATIO
