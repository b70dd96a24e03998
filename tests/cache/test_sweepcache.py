"""Tests for the content-addressed sweep cache.

Three contracts:

* **Key canonicality** — keys derive from SHA-256 over the canonical
  part encoding (:func:`repro.seeding.canonical_key_bytes`), never
  ``hash()``: identical inputs give identical keys in every process and
  under every ``PYTHONHASHSEED``, and perturbing any input that affects
  the floats changes the key.
* **Value fidelity** — series served from the cache (memory or disk)
  are field-for-field identical to freshly computed ones, for every
  policy, mode, and (jobs, shards) combination, and equal to the
  per-degree oracle's (``tests/oracle.py``); the on-disk
  layer tolerates corruption by missing cleanly.
* **Sweep integration** — ``sweep_replication_degree`` with a cache
  returns exactly what it returns without one, computes only the
  missing policies on a partial hit, and keeps honest counters.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cache import (
    CacheStats,
    SweepCache,
    dataset_fingerprint,
    sweep_cache_key,
)
from repro.core import (
    CONREP,
    UNCONREP,
    make_policy,
    sweep_replication_degree,
)
from repro.datasets import (
    ShardedDataset,
    SyntheticSpec,
    synthetic_facebook,
    synthetic_twitter,
)
from repro.onlinetime import (
    FixedLengthModel,
    RandomLengthModel,
    SporadicModel,
)
from repro.parallel import ParallelExecutor, fork_available
from tests.oracle import oracle_sweeps

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _dataset():
    return synthetic_facebook(300, seed=3)


def _cohort(dataset, n=6):
    ranked = sorted(
        dataset.graph.users(), key=lambda u: (dataset.graph.degree(u), u)
    )
    return ranked[-n:]


def _key(dataset, users, **overrides):
    kwargs = dict(
        mode=CONREP, degrees=[0, 1, 2, 3], users=users, seed=1, repeats=2
    )
    kwargs.update(
        {k: v for k, v in overrides.items() if k not in ("model", "policy")}
    )
    return sweep_cache_key(
        dataset,
        overrides.get("model", SporadicModel()),
        overrides.get("policy", make_policy("random")),
        **kwargs,
    )


class TestKeys:
    def test_deterministic(self):
        ds = _dataset()
        users = _cohort(ds)
        assert _key(ds, users) == _key(ds, users)
        # Fresh-but-equal model/policy objects address the same entry.
        assert _key(ds, users, model=SporadicModel()) == _key(
            ds, users, model=SporadicModel()
        )

    def test_every_input_perturbation_changes_the_key(self):
        ds = _dataset()
        users = _cohort(ds)
        base = _key(ds, users)
        perturbed = [
            _key(ds, users, seed=2),
            _key(ds, users, repeats=1),
            _key(ds, users, mode=UNCONREP),
            _key(ds, users, degrees=[0, 1, 2]),
            _key(ds, users[:-1]),
            _key(ds, users, policy=make_policy("maxav")),
            _key(ds, users, policy=make_policy("mostactive")),
            _key(ds, users, model=FixedLengthModel(8)),
            _key(ds, users, model=FixedLengthModel(2)),
            _key(ds, users, model=SporadicModel(session_seconds=600)),
            _key(ds, users, model=RandomLengthModel()),
            _key(synthetic_facebook(300, seed=4), users),
            _key(synthetic_twitter(300, seed=3), users),
        ]
        assert base not in perturbed
        assert len(set(perturbed)) == len(perturbed)

    def test_policy_parameterisation_is_keyed(self):
        ds = _dataset()
        users = _cohort(ds)
        windowed = make_policy("mostactive")
        windowed.window = 3600.0
        assert _key(ds, users, policy=windowed) != _key(
            ds, users, policy=make_policy("mostactive")
        )

    def test_dataset_fingerprint_is_content_not_name(self):
        a = synthetic_facebook(300, seed=3)
        b = synthetic_facebook(300, seed=3)
        assert a is not b
        assert dataset_fingerprint(a) == dataset_fingerprint(b)
        assert dataset_fingerprint(a) != dataset_fingerprint(
            synthetic_facebook(301, seed=3)
        )

    def test_fingerprint_memoized_on_dataset(self):
        ds = _dataset()
        first = dataset_fingerprint(ds)
        assert dataset_fingerprint(ds) is first  # cached string reused


_SUBPROCESS_SCRIPT = """
import json
from repro.cache import dataset_fingerprint, point_query_key, sweep_cache_key
from repro.core import CONREP, make_policy
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel

ds = synthetic_facebook(200, seed=3)
users = sorted(ds.graph.users())[:6]
key = sweep_cache_key(
    ds, SporadicModel(), make_policy("random"),
    mode=CONREP, degrees=[0, 1, 2], users=users, seed=1, repeats=2,
)
point = point_query_key(
    ds, SporadicModel(), make_policy("random"),
    mode=CONREP, user=users[0], k=2, seed=1,
)
print(json.dumps({
    "fingerprint": dataset_fingerprint(ds), "key": key, "point": point,
}))
"""


def _run_under_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    def test_keys_identical_across_hash_seeds(self):
        # Two interpreters with different string-hash salts must derive
        # the same content addresses — a hash()-based key fails this for
        # any two salts, silently splitting the cache per process.
        a = _run_under_hashseed("0")
        b = _run_under_hashseed("12345")
        assert a == b


def _sweep(cache=None, executor=None, oracle=False,
           source=None, policies=None, mode=CONREP):
    ds = _dataset()
    with oracle_sweeps(oracle):
        return sweep_replication_degree(
            source or ds,
            SporadicModel(),
            policies
            or [make_policy(n) for n in ("maxav", "mostactive", "random")],
            mode=mode,
            degrees=list(range(5)),
            users=_cohort(ds),
            seed=1,
            repeats=2,
            executor=executor,
            cache=cache,
        )


class TestCachedSweepIdentity:
    @pytest.mark.parametrize("mode", [CONREP, UNCONREP])
    def test_cached_equals_fresh_per_mode(self, mode):
        cache = SweepCache()
        cold = _sweep(cache=cache, mode=mode)
        warm = _sweep(cache=cache, mode=mode)
        fresh = _sweep(mode=mode)
        assert warm == cold == fresh  # AggregateMetrics field equality
        assert cache.stats.misses == cache.stats.stores == 3
        assert cache.stats.hits == 3

    @pytest.mark.parametrize(
        "oracle", [pytest.param(True, id="naive")]
    )
    def test_entry_serves_every_engine_and_backend(self, oracle):
        # Execution knobs are excluded from the key: an entry computed
        # by the default path must equal what any other path — or the
        # per-degree oracle — computes.
        cache = SweepCache()
        default = _sweep(cache=cache)
        other = _sweep(cache=cache, oracle=oracle)
        assert other == default
        assert cache.stats.misses == 3  # second sweep fully cache-served
        fresh = _sweep(oracle=oracle)
        assert default == fresh

    def test_sharded_entry_serves_every_shard_count(self):
        # A sharded source is keyed by its spec, not its shard count:
        # the entry a 3-shard sweep stores serves a 4-shard one, and
        # both equal the eager sweep.
        spec = SyntheticSpec("facebook", 300, seed=3)
        cache = SweepCache()
        three = _sweep(cache=cache, source=ShardedDataset(spec, 3))
        four = _sweep(cache=cache, source=ShardedDataset(spec, 4))
        assert four == three == _sweep()
        assert cache.stats.misses == cache.stats.hits == 3

    @pytest.mark.skipif(
        not fork_available(), reason="needs the fork start method"
    )
    def test_entry_serves_parallel_runs(self):
        cache = SweepCache()
        serial = _sweep(cache=cache)
        with ParallelExecutor(jobs=2) as executor:
            parallel = _sweep(cache=cache, executor=executor)
        assert parallel == serial
        assert cache.stats.misses == 3

    def test_partial_hit_computes_only_missing_policies(self):
        cache = SweepCache()
        maxav_only = _sweep(cache=cache, policies=[make_policy("maxav")])
        assert cache.stats.stores == 1
        full = _sweep(cache=cache)
        assert full["maxav"] == maxav_only["maxav"]
        assert cache.stats.hits == 1  # maxav served, the rest computed
        assert cache.stats.stores == 3
        assert full == _sweep()

    def test_disk_round_trip_is_field_identical(self, tmp_path):
        first = SweepCache(tmp_path)
        cold = _sweep(cache=first)
        second = SweepCache(tmp_path)  # fresh memory, same directory
        warm = _sweep(cache=second)
        assert warm == cold
        assert second.stats.disk_hits == 3
        assert second.stats.stores == 0
        assert not list(tmp_path.glob("*.tmp"))  # atomic writes only


class TestStoreLayer:
    def _series(self):
        sweep = _sweep()
        return tuple(sweep["random"])

    def test_memory_hit_returns_same_objects(self):
        cache = SweepCache()
        series = self._series()
        cache.put_series("k", series)
        assert cache.get_series("k") is not None
        assert all(
            a is b for a, b in zip(cache.get_series("k"), series)
        )
        assert len(cache) == 1

    def test_miss_counted(self):
        cache = SweepCache()
        assert cache.get_series("absent") is None
        assert cache.stats.misses == 1

    def test_corrupt_npy_misses_as_stale(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        (tmp_path / "k.npy").write_bytes(b"garbage")
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None
        assert reader.stats.stale == 1
        assert reader.stats.misses == 1

    def test_truncated_stamp_misses_as_stale(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        stamp = (tmp_path / "k.json").read_text()
        (tmp_path / "k.json").write_text(stamp[: len(stamp) // 2])
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None
        assert reader.stats.stale == 1

    def test_wrong_format_version_misses_as_stale(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        stamp = json.loads((tmp_path / "k.json").read_text())
        stamp["format_version"] = -1
        (tmp_path / "k.json").write_text(json.dumps(stamp))
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None
        assert reader.stats.stale == 1

    def test_empty_npy_misses_as_stale(self, tmp_path):
        # The torn-write worst case: a zero-length .npy, for which
        # np.load raises EOFError (not ValueError like other truncation).
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        (tmp_path / "k.npy").write_bytes(b"")
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None
        assert reader.stats.stale == 1
        assert reader.stats.misses == 1

    def test_mid_file_truncation_misses_as_stale(self, tmp_path):
        # Valid .npy header, data cut off part-way through.
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        payload = (tmp_path / "k.npy").read_bytes()
        (tmp_path / "k.npy").write_bytes(payload[: len(payload) - 16])
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None
        assert reader.stats.stale == 1

    def test_torn_entries_overwritten_cleanly(self, tmp_path):
        # After any torn write, the next store fully repairs the entry.
        series = self._series()
        for damage in (
            lambda: (tmp_path / "k.npy").write_bytes(b""),
            lambda: (tmp_path / "k.json").write_text("{\"form"),
        ):
            cache = SweepCache(tmp_path)
            cache.put_series("k", series)
            damage()
            reader = SweepCache(tmp_path)
            assert reader.get_series("k") is None
            reader.put_series("k", series)
            assert SweepCache(tmp_path).get_series("k") == series

    def test_recompute_overwrites_corrupt_entry(self, tmp_path):
        cache = SweepCache(tmp_path)
        series = self._series()
        cache.put_series("k", series)
        (tmp_path / "k.npy").write_bytes(b"garbage")
        reader = SweepCache(tmp_path)
        assert reader.get_series("k") is None  # stale miss
        reader.put_series("k", series)  # the recomputed series
        assert SweepCache(tmp_path).get_series("k") == series

    def test_int_fields_come_back_as_ints(self, tmp_path):
        cache = SweepCache(tmp_path)
        cache.put_series("k", self._series())
        loaded = SweepCache(tmp_path).get_series("k")
        for agg in loaded:
            assert isinstance(agg.num_users, int)
            assert isinstance(agg.num_infinite_delay, int)
            assert isinstance(agg.num_infinite_delay_observed, int)

    def test_stats_since_snapshot(self):
        stats = CacheStats()
        stats.hits = 2
        mark = stats.snapshot()
        stats.hits += 3
        stats.misses += 1
        assert stats.since(mark) == {
            "hits": 3,
            "misses": 1,
            "stale": 0,
            "stores": 0,
            "disk_hits": 0,
            "disk_errors": 0,
            "partial_loads": 0,
            "partial_stores": 0,
        }


class TestDiskDegradation:
    """A failing disk degrades the cache to memory-only — never crashes."""

    def _series(self):
        return tuple(_sweep()["random"])

    def test_enospc_degrades_to_memory_only_with_one_warning(self, tmp_path):
        from repro.parallel import FaultInjector

        injector = FaultInjector.disk_faults(enospc=1.0, times=None)
        cache = SweepCache(tmp_path, fault_injector=injector)
        series = self._series()
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put_series("k1", series)
        # Degraded, but the memory layer still serves.
        assert cache.get_series("k1") == series
        assert cache.stats.disk_errors == 1
        assert not (tmp_path / "k1.npy").exists()
        # Later writes skip the disk silently — no warning spam.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            cache.put_series("k2", series)
        assert cache.get_series("k2") == series
        assert cache.stats.disk_errors == 1  # counted once, then disabled

    def test_real_oserror_degrades_the_same_way(self, tmp_path):
        cache = SweepCache(tmp_path)
        series = self._series()
        cache.put_series("warm", series)  # disk works so far
        # Yank the directory out from under the cache.
        import shutil

        shutil.rmtree(tmp_path)
        with pytest.warns(RuntimeWarning, match="disk layer disabled"):
            cache.put_series("k", series)
        assert cache.stats.disk_errors == 1
        assert cache.get_series("k") == series

    def test_injected_torn_write_reads_as_stale_miss(self, tmp_path):
        from repro.parallel import FaultInjector

        injector = FaultInjector.disk_faults(torn=1.0, times=1)
        cache = SweepCache(tmp_path, fault_injector=injector)
        series = self._series()
        cache.put_series("k", series)
        # The tear is silent (a crash mid-write doesn't raise first).
        assert cache.stats.disk_errors == 0
        reader = SweepCache(tmp_path)
        # The tear hit the .npy before the stamp was written (array
        # first, stamp second), so the entry reads as a clean miss.
        assert reader.get_series("k") is None
        assert reader.stats.misses == 1
        # The retry (attempt 1, past times=1) lands a whole entry.
        cache.put_series("k", series)
        assert SweepCache(tmp_path).get_series("k") == series

    def test_torn_payload_write_reads_as_stale_miss(self, tmp_path):
        from repro.parallel import FaultInjector

        injector = FaultInjector.disk_faults(torn=1.0, times=1)
        cache = SweepCache(tmp_path, fault_injector=injector)
        cache.put_payload("p", {"answer": 42})
        reader = SweepCache(tmp_path)
        assert reader.get_payload("p") is None
        assert reader.stats.stale == 1
        cache.put_payload("p", {"answer": 42})
        assert SweepCache(tmp_path).get_payload("p") == {"answer": 42}

    def test_slow_io_stalls_but_still_lands(self, tmp_path):
        from time import perf_counter

        from repro.parallel import FaultInjector

        injector = FaultInjector.disk_faults(
            slow=1.0, times=1, slow_io_seconds=0.05
        )
        cache = SweepCache(tmp_path, fault_injector=injector)
        series = self._series()
        start = perf_counter()
        cache.put_series("k", series)
        assert perf_counter() - start >= 0.05
        assert SweepCache(tmp_path).get_series("k") == series
        assert cache.stats.disk_errors == 0

    def test_sweep_survives_a_dead_disk(self, tmp_path):
        # End to end: a sweep over a cache whose disk always fails
        # completes with correct results.
        from repro.parallel import FaultInjector

        injector = FaultInjector.disk_faults(enospc=1.0, times=None)
        cache = SweepCache(tmp_path, fault_injector=injector)
        with pytest.warns(RuntimeWarning):
            degraded = _sweep(cache=cache)
        assert degraded == _sweep()
        assert cache.stats.disk_errors >= 1
