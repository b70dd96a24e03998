"""Mid-sweep resume from the sweep cache's partial entries, and the
batch journal's format versions.

The mid-sweep resume contract: a sweep resumed from the partial entries
a killed run left on disk aggregates the identical floats an
uninterrupted run would; any torn, corrupt or mismatched entry reads as
stale and its cells recompute — resume never trades correctness for
speed.  A sweep that finishes seals (deletes) its partial entries once
its series are on disk, and a memory-only cache never touches them.
"""

import functools
import json
import shutil
import warnings

import pytest

import repro.cache.store
from repro.cache import SweepCache, partial_cells_key
from repro.core import CONREP, make_policy, sweep_replication_degree
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.experiments import (
    BatchJournal,
    JOURNAL_FORMAT_VERSION,
    load_result,
    run_batch,
)
from repro.onlinetime import SporadicModel
from repro.parallel import ENOSPC, TORN_WRITE, FaultInjector, FaultRule
from tests.experiments.test_config_and_registry import TINY
from tests.oracle import oracle_sweeps

SPEC = SyntheticSpec("facebook", 200, seed=3)

POLICIES = ("maxav", "random")


@functools.lru_cache(maxsize=None)
def _source(shards=None):
    """The eager dataset for ``shards=None``, else a sharded source."""
    return SPEC.eager() if shards is None else ShardedDataset(SPEC, shards)


def _dataset():
    return _source()


def _cohort(n=8):
    """``n`` evenly spaced users, so every shard of a 4-way split owns
    two of them (one view per shard)."""
    users = sorted(_dataset().graph.users())
    return users[:: len(users) // n][:n]


def _sweep(cache, shards=4, **overrides):
    kwargs = dict(
        mode=CONREP,
        degrees=[0, 1, 2],
        users=_cohort(),
        seed=1,
        repeats=2,
        cache=cache,
    )
    kwargs.update(overrides)
    return sweep_replication_degree(
        _source(shards),
        SporadicModel(),
        [make_policy(n) for n in POLICIES],
        **kwargs,
    )


def _eager_partial_key(repeat):
    """The partial-entry key of one repeat of the eager ``_sweep``."""
    return partial_cells_key(
        _dataset(),
        SporadicModel(),
        [make_policy(n) for n in POLICIES],
        mode=CONREP,
        degrees=[0, 1, 2],
        users=_cohort(),
        seed=1,
        repeats=2,
        repeat=repeat,
    )


@pytest.fixture
def unsealed(monkeypatch):
    """Finished series stay in memory only, as if every run died just
    before writing them: partial entries stay on disk, unsealed."""

    def put_series(self, key, series):
        self._memory[key] = tuple(series)
        self.stats.stores += 1
        return False

    monkeypatch.setattr(SweepCache, "put_series", put_series)


class TestJournalV2:
    def test_v1_journal_accepted_on_resume(self, tmp_path):
        # Journals written before the checkpoints ledger still resume.
        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "scale": "tiny",
                    "experiments": {"a": "done"},
                }
            )
        )
        journal = BatchJournal.open(
            path, scale="tiny", ids=["a"], resume=True
        )
        assert journal.status("a") == "done"
        # And it is rewritten as v3.
        blob = json.loads(path.read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION == 3

    def test_v2_checkpoints_ledger_is_ignored(self, tmp_path):
        # v2 journals carried a ledger of sweep checkpoints; nothing
        # resumes from it any more, so even a malformed one is ignored
        # and the rewrite drops it.
        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 2,
                    "scale": "tiny",
                    "experiments": {"a": "done", "b": "running"},
                    "checkpoints": [1, 2],
                }
            )
        )
        journal = BatchJournal.open(
            path, scale="tiny", ids=["a", "b"], resume=True
        )
        assert journal.status("a") == "done"
        assert journal.status("b") == "failed"
        blob = json.loads(path.read_text())
        assert blob["format_version"] == 3
        assert "checkpoints" not in blob

    def test_sigkill_mid_write_leaves_the_last_good_state(self, tmp_path):
        # Journal writes are tmp+os.replace: a SIGKILL mid-write leaves
        # the fully-written previous journal plus (at worst) a torn .tmp
        # beside it.  Resume reads the last-good state and the next
        # write atomically replaces it; the torn tmp is never consulted.
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a", "b"])
        journal.mark("a", "done")
        torn = path.with_name(path.name + ".tmp")
        torn.write_text('{"format_version": 3, "scale": "ti', "utf-8")
        resumed = BatchJournal.open(
            path, scale="tiny", ids=["a", "b"], resume=True
        )
        assert resumed.status("a") == "done"
        assert resumed.status("b") == "pending"
        # The fresh open rewrote the journal through the same tmp path,
        # clobbering the torn remnant.
        blob = json.loads(path.read_text())
        assert blob["experiments"] == {"a": "done", "b": "pending"}


class TestPartialEntryStoreLoad:
    def _cells(self, users):
        from repro.onlinetime import compute_schedules
        from repro.parallel import SweepPayload, evaluate_users_chunk

        ds = _dataset()
        payload = SweepPayload(
            dataset=ds,
            schedules=compute_schedules(ds, SporadicModel(), seed=1),
            policies=tuple(make_policy(n) for n in POLICIES),
            mode=CONREP,
            degrees=(0, 1, 2),
            max_degree=2,
            seed=1,
        )
        return evaluate_users_chunk(payload, users)

    def test_key_covers_the_policy_set(self):
        key = _eager_partial_key(0)
        other_policies = partial_cells_key(
            _dataset(),
            SporadicModel(),
            [make_policy("maxav")],  # different policy set
            mode=CONREP,
            degrees=[0, 1, 2],
            users=_cohort(),
            seed=1,
            repeats=2,
            repeat=0,
        )
        assert len({key, other_policies, _eager_partial_key(1)}) == 3

    def test_round_trip_is_bit_identical(self, tmp_path):
        cache = SweepCache(tmp_path)
        users = _cohort()
        key = _eager_partial_key(0)
        cells = self._cells(users[:3])
        cache.put_cells(key, users[:3], cells)
        assert cache.stats.partial_stores == 1
        loaded = SweepCache(tmp_path).get_cells(key, users[:3])
        assert loaded == cells  # UserMetrics dataclass equality, exact
        # An absent key or repeat misses; a cohort mismatch is stale.
        fresh = SweepCache(tmp_path)
        assert fresh.get_cells(key + "0", users[:3]) is None
        assert fresh.get_cells(_eager_partial_key(1), users[:3]) is None
        assert fresh.stats.stale == 0
        assert fresh.get_cells(key, users[:4]) is None
        assert fresh.stats.stale == 1
        assert fresh.stats.partial_loads == 0

    def test_corrupt_checkpoint_reads_as_not_done(self, tmp_path):
        cache = SweepCache(tmp_path)
        users = _cohort()[:2]
        key = _eager_partial_key(0)
        path = tmp_path / f"{key}.cells.json"
        cache.put_cells(key, users, [{}, {}])
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn
        assert cache.get_cells(key, users) is None
        assert cache.stats.stale == 1
        # A key echo mismatch also misses.
        cache.put_cells(key, users, [{}, {}])
        wrong = json.loads(path.read_text())
        wrong["key"] = "someone-else"
        path.write_text(json.dumps(wrong))
        assert cache.get_cells(key, users) is None
        assert cache.stats.stale == 2

    def test_unwritable_directory_degrades_to_memory_only(self, tmp_path):
        cache = SweepCache(tmp_path / "ck")
        shutil.rmtree(tmp_path / "ck")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            cache.put_cells("k", [1], [{}])  # must not raise
        assert cache.stats.partial_stores == 0
        assert cache.stats.disk_errors == 1


class TestMidSweepResume:
    def test_checkpointed_sweep_equals_plain_sweep(self, tmp_path):
        plain = _sweep(SweepCache())
        cache = SweepCache(tmp_path)
        assert _sweep(cache) == plain
        # 2 repeats x 4 shard views were written, then sealed once the
        # point's series were on disk.
        assert cache.stats.partial_stores == 8
        assert not list(tmp_path.glob("*.cells.json"))
        # A finished sweep resumes from its series, not from cells.
        again = SweepCache(tmp_path)
        assert _sweep(again) == plain
        assert again.stats.misses == 0
        assert again.stats.partial_loads == 0

    def test_memory_cache_computes_no_partial_key_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("memory-only sweep touched a partial entry")

        monkeypatch.setattr(repro.cache.store, "partial_cells_key", forbidden)
        for name in ("partial_key", "get_cells", "put_cells", "seal"):
            monkeypatch.setattr(SweepCache, name, forbidden)
        monkeypatch.chdir(tmp_path)
        cache = SweepCache()
        for shards in (4, None):
            _sweep(cache, shards=shards, degrees=[0, 1])
        assert cache.stats.stores > 0
        assert list(tmp_path.iterdir()) == []

    def test_resume_loads_shards_and_stays_bit_identical(
        self, tmp_path, unsealed
    ):
        first_cache = SweepCache(tmp_path)
        first = _sweep(first_cache)
        assert first_cache.stats.partial_stores == 8  # 2 repeats x 4 views
        # A fresh cache (cold memory) over the same directory: every
        # view's cells load, nothing recomputes, floats identical.
        second_cache = SweepCache(tmp_path)
        second = _sweep(second_cache)
        assert second == first
        assert second_cache.stats.partial_loads == 8
        assert second_cache.stats.partial_stores == 0

    def test_partial_checkpoints_resume_mid_sweep(self, tmp_path, unsealed):
        first = _sweep(SweepCache(tmp_path))
        # Simulate a run killed mid-sweep: delete half the cell files.
        cell_files = sorted(tmp_path.glob("*.cells.json"))
        assert len(cell_files) == 8
        for path in cell_files[4:]:
            path.unlink()
        resumed_cache = SweepCache(tmp_path)
        resumed = _sweep(resumed_cache)
        assert resumed == first
        assert resumed_cache.stats.partial_loads == 4
        # The missing half was recomputed.
        assert resumed_cache.stats.partial_stores == 4

    def test_checkpoints_are_execution_knob_independent(
        self, tmp_path, unsealed
    ):
        # Partial entries are keyed by the view they were computed over,
        # so a 4-shard run's serve any run that builds the same views;
        # sweeping through the per-degree oracle doesn't fragment them.
        first = _sweep(SweepCache(tmp_path), shards=4)
        other_cache = SweepCache(tmp_path)
        with oracle_sweeps():
            other = _sweep(other_cache, shards=4)
        assert other == first
        assert other_cache.stats.partial_loads == 8

    def test_other_shard_counts_find_nothing_stale(self, tmp_path, unsealed):
        # Each shard count keys its own views and the eager sweep is one
        # view, so no count ever finds a partial entry it must discard —
        # and every count sweeps to the identical series.
        first = _sweep(SweepCache(tmp_path), shards=4)
        for shards in (3, 2, None, 4):
            cache = SweepCache(tmp_path)
            assert _sweep(cache, shards=shards) == first, shards
            assert cache.stats.stale == 0, shards

    def test_batch_rerun_at_another_shard_count_reads_nothing_stale(
        self, tmp_path
    ):
        outputs = []
        summaries = []
        for shards in (2, 3, 1, 2):
            run_batch(tmp_path, scale=TINY, ids=["fig3"], shards=shards)
            summary = json.loads(
                (tmp_path / "batch_summary.json").read_text()
            )
            assert summary["cache"]["stale"] == 0, shards
            summaries.append(summary["cache"])
            result = load_result(tmp_path / "fig3.json")
            result.pop("timings")
            outputs.append(result)
        assert all(output == outputs[0] for output in outputs)
        # Series persist in the batch's cache under shard-count
        # independent keys: later sharded runs serve every lookup from
        # disk and compute nothing.  The eager dataset is addressed by
        # its content, not its spec, so the 1-shard run computes its own
        # series once.
        first, three, eager, again = summaries
        lookups = first["misses"]
        assert first["stores"] == lookups and first["hits"] == 0
        for cache in (three, again):
            assert cache["hits"] == cache["disk_hits"] == lookups
            assert cache["misses"] == cache["stores"] == 0
            assert cache["partial_loads"] == cache["partial_stores"] == 0
        assert eager["misses"] == eager["stores"] == lookups

    def test_run_batch_seals_partial_entries_in_its_cache(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["fig3"])
        blob = json.loads((tmp_path / "journal.json").read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION
        assert "checkpoints" not in blob
        assert not (tmp_path / "checkpoints").exists()
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["cache"]["cache_dir"] == str(tmp_path / "cache")
        assert summary["cache"]["partial_stores"] > 0
        # Sealed: only finished series (stamp + matrix) remain.
        entries = list((tmp_path / "cache").iterdir())
        assert not [p for p in entries if p.name.endswith(".cells.json")]
        assert len(entries) == 2 * summary["cache"]["stores"]
        # Resume with lost outputs: the sweep serves from its series.
        (tmp_path / "fig3.json").unlink()
        (tmp_path / "fig3.txt").unlink()
        run_batch(tmp_path, scale=TINY, ids=["fig3"], resume=True)
        cache = json.loads((tmp_path / "batch_summary.json").read_text())[
            "cache"
        ]
        assert cache["disk_hits"] == summary["cache"]["stores"]
        assert cache["misses"] == cache["partial_loads"] == 0


class TestPartialEntryFaults:
    """The disk faults of every cache entry hit partial entries too."""

    def test_torn_partial_entry_is_stale_on_the_next_run(
        self, tmp_path, unsealed
    ):
        reference = _sweep(SweepCache(), shards=None)
        target = frozenset({_eager_partial_key(0)})
        torn = FaultInjector(rules=(FaultRule(TORN_WRITE, items=target),))
        first = SweepCache(tmp_path, fault_injector=torn)
        assert _sweep(first, shards=None) == reference
        assert first.stats.partial_stores == 1  # repeat 1 only
        assert first.stats.disk_errors == 0
        resumed = SweepCache(tmp_path)
        assert _sweep(resumed, shards=None) == reference
        assert resumed.stats.stale == 1
        assert resumed.stats.partial_loads == 1
        assert resumed.stats.partial_stores == 1  # repeat 0, recomputed

    def test_enospc_on_a_partial_write_degrades_once(self, tmp_path):
        reference = _sweep(SweepCache(), shards=None)
        target = frozenset({_eager_partial_key(0)})
        full = FaultInjector(rules=(FaultRule(ENOSPC, items=target),))
        cache = SweepCache(tmp_path, fault_injector=full)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _sweep(cache, shards=None) == reference
        assert len(caught) == 1
        assert "memory-only" in str(caught[0].message)
        assert cache.stats.disk_errors == 1
        assert cache.stats.partial_stores == 0
        # Nothing reached the disk after the fault, so nothing was sealed
        # and nothing is left to resume from.
        assert list(tmp_path.iterdir()) == []
