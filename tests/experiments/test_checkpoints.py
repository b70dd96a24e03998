"""Per-view sweep checkpoints and the journal v2 ledger.

The mid-sweep resume contract: a sweep resumed from on-disk checkpoints
aggregates the identical floats an uninterrupted run would; any torn,
corrupt or mismatched checkpoint reads as "not done" and the cells
recompute — resume never trades correctness for speed.
"""

import functools
import json

import pytest

from repro.cache import SweepCache
from repro.core import CONREP, make_policy, sweep_replication_degree
from repro.datasets import ShardedDataset, SyntheticSpec
from repro.experiments import (
    BatchJournal,
    JOURNAL_FORMAT_VERSION,
    load_result,
    run_batch,
)
from repro.experiments.checkpoint import SweepCheckpoint
from repro.onlinetime import SporadicModel
from tests.experiments.test_config_and_registry import TINY
from tests.oracle import oracle_sweeps

SPEC = SyntheticSpec("facebook", 200, seed=3)


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
        [make_policy(n) for n in ("maxav", "random")],
        **kwargs,
    )


def _checkpointed_cache(directory, journal=None):
    cache = SweepCache()
    cache.checkpoint = SweepCheckpoint(directory, journal=journal)
    return cache


class TestJournalV2:
    def test_checkpoints_round_trip_through_the_journal(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a"])
        journal.mark_checkpoint("key.r0.s0")
        journal.mark_checkpoint("key.r0.s1")
        journal.mark_checkpoint("key.r0.s0")  # idempotent
        assert journal.has_checkpoint("key.r0.s0")
        assert not journal.has_checkpoint("key.r1.s0")
        blob = json.loads(path.read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION
        assert blob["checkpoints"] == ["key.r0.s0", "key.r0.s1"]
        resumed = BatchJournal.open(
            path, scale="tiny", ids=["a"], resume=True
        )
        assert resumed.has_checkpoint("key.r0.s1")

    def test_v1_journal_accepted_on_resume(self, tmp_path):
        # Journals written before the checkpoints ledger still resume;
        # they simply carry no checkpoints.
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
        assert journal.checkpoints == []
        # And it is rewritten as v2.
        assert (
            json.loads(path.read_text())["format_version"]
            == JOURNAL_FORMAT_VERSION
        )

    def test_sigkill_mid_write_leaves_the_last_good_state(self, tmp_path):
        # Journal writes are tmp+os.replace: a SIGKILL mid-write leaves
        # the fully-written previous journal plus (at worst) a torn .tmp
        # beside it.  Resume reads the last-good state and the next
        # write atomically replaces it; the torn tmp is never consulted.
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a", "b"])
        journal.mark("a", "done")
        journal.mark_checkpoint("key.r0.s0")
        torn = path.with_name(path.name + ".tmp")
        torn.write_text('{"format_version": 2, "scale": "ti', "utf-8")
        resumed = BatchJournal.open(
            path, scale="tiny", ids=["a", "b"], resume=True
        )
        assert resumed.status("a") == "done"
        assert resumed.status("b") == "pending"
        assert resumed.has_checkpoint("key.r0.s0")
        # The fresh open rewrote the journal through the same tmp path,
        # clobbering the torn remnant.
        blob = json.loads(path.read_text())
        assert blob["experiments"] == {"a": "done", "b": "pending"}

    def test_malformed_checkpoints_ledger_rejected(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": JOURNAL_FORMAT_VERSION,
                    "scale": "tiny",
                    "experiments": {},
                    "checkpoints": [1, 2],
                }
            )
        )
        with pytest.raises(ValueError, match="checkpoints"):
            BatchJournal.open(path, scale="tiny", ids=["a"], resume=True)


class TestSweepCheckpointStoreLoad:
    def _fixture(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path)
        ds = _dataset()
        users = _cohort()
        key = checkpoint.key_for(
            ds,
            SporadicModel(),
            [make_policy("maxav"), make_policy("random")],
            mode=CONREP,
            degrees=[0, 1, 2],
            users=users,
            seed=1,
            repeats=2,
        )
        return checkpoint, key, users

    def test_key_covers_the_policy_set(self, tmp_path):
        checkpoint, key, users = self._fixture(tmp_path)
        other = checkpoint.key_for(
            _dataset(),
            SporadicModel(),
            [make_policy("maxav")],  # different policy set
            mode=CONREP,
            degrees=[0, 1, 2],
            users=users,
            seed=1,
            repeats=2,
        )
        assert key != other

    def test_round_trip_is_bit_identical(self, tmp_path):
        from repro.onlinetime import compute_schedules
        from repro.parallel import SweepPayload, evaluate_users_chunk

        checkpoint, key, users = self._fixture(tmp_path)
        ds = _dataset()
        schedules = compute_schedules(ds, SporadicModel(), seed=1)
        payload = SweepPayload(
            dataset=ds,
            schedules=schedules,
            policies=(make_policy("maxav"), make_policy("random")),
            mode=CONREP,
            degrees=(0, 1, 2),
            max_degree=2,
            seed=1,
        )
        cells = evaluate_users_chunk(payload, users[:3])
        checkpoint.store(key, 0, users[:3], cells)
        assert checkpoint.stats()["stores"] == 1
        loaded = checkpoint.load(key, 0, users=users[:3])
        assert loaded == cells  # UserMetrics dataclass equality, exact
        # Wrong key/repeat/cohort all miss.
        assert checkpoint.load(key + "0", 0, users=users[:3]) is None
        assert checkpoint.load(key, 1, users=users[:3]) is None
        assert checkpoint.load(key, 0, users=users[:4]) is None

    def test_corrupt_checkpoint_reads_as_not_done(self, tmp_path):
        checkpoint, key, users = self._fixture(tmp_path)
        path = checkpoint._path(key, 0)
        checkpoint.store(key, 0, users[:2], [{}, {}])
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])  # torn
        assert checkpoint.load(key, 0, users=users[:2]) is None
        assert checkpoint.stats()["stale"] == 1
        # A key echo mismatch also misses.
        checkpoint.store(key, 1, users[:2], [{}, {}])
        other_path = checkpoint._path(key, 1)
        wrong = json.loads(other_path.read_text())
        wrong["key"] = "someone-else"
        other_path.write_text(json.dumps(wrong))
        assert checkpoint.load(key, 1, users=users[:2]) is None

    def test_unwritable_directory_disables_silently(self, tmp_path):
        import shutil

        checkpoint = SweepCheckpoint(tmp_path / "ck")
        shutil.rmtree(tmp_path / "ck")
        checkpoint.store("k", 0, [1], [{}])  # must not raise
        assert checkpoint.stats()["stores"] == 0


class TestMidSweepResume:
    def test_checkpointed_sweep_equals_plain_sweep(self, tmp_path):
        plain = _sweep(SweepCache())
        checkpointed = _sweep(_checkpointed_cache(tmp_path))
        assert checkpointed == plain

    def test_resume_loads_shards_and_stays_bit_identical(self, tmp_path):
        first_cache = _checkpointed_cache(tmp_path)
        first = _sweep(first_cache)
        stored = first_cache.checkpoint.stats()["stores"]
        assert stored == 8  # 2 repeats x 4 shard views
        # A fresh cache (cold memory) over the same checkpoint dir:
        # every view's cells load, nothing recomputes, floats identical.
        second_cache = _checkpointed_cache(tmp_path)
        second = _sweep(second_cache)
        assert second == first
        stats = second_cache.checkpoint.stats()
        assert stats["loads"] == 8
        assert stats["stores"] == 0

    def test_partial_checkpoints_resume_mid_sweep(self, tmp_path):
        first_cache = _checkpointed_cache(tmp_path)
        first = _sweep(first_cache)
        # Simulate a run killed mid-sweep: delete half the cell files.
        cell_files = sorted(tmp_path.glob("*.cells.json"))
        assert len(cell_files) == 8
        for path in cell_files[4:]:
            path.unlink()
        resumed_cache = _checkpointed_cache(tmp_path)
        resumed = _sweep(resumed_cache)
        assert resumed == first
        stats = resumed_cache.checkpoint.stats()
        assert stats["loads"] == 4
        assert stats["stores"] == 4  # the missing half was recomputed

    def test_checkpoints_are_execution_knob_independent(self, tmp_path):
        # Checkpoints are keyed by the view they were computed over, so
        # a 4-shard run's serve any run that builds the same views;
        # sweeping through the per-degree oracle doesn't fragment them.
        first_cache = _checkpointed_cache(tmp_path)
        first = _sweep(first_cache, shards=4)
        other_cache = _checkpointed_cache(tmp_path)
        with oracle_sweeps():
            other = _sweep(other_cache, shards=4)
        assert other == first
        assert other_cache.checkpoint.stats()["loads"] == 8

    def test_other_shard_counts_find_nothing_stale(self, tmp_path):
        # Each shard count keys its own views and the eager sweep is one
        # view, so no count ever finds a checkpoint it must discard —
        # and every count sweeps to the identical series.
        first = _sweep(_checkpointed_cache(tmp_path), shards=4)
        for shards in (3, 2, None, 4):
            cache = _checkpointed_cache(tmp_path)
            assert _sweep(cache, shards=shards) == first, shards
            assert cache.checkpoint.stats()["stale"] == 0, shards

    def test_batch_rerun_at_another_shard_count_reads_nothing_stale(
        self, tmp_path
    ):
        outputs = []
        for shards in (2, 3, 1, 2):
            run_batch(tmp_path, scale=TINY, ids=["fig3"], shards=shards)
            summary = json.loads(
                (tmp_path / "batch_summary.json").read_text()
            )
            assert summary["checkpoints"]["stale"] == 0, shards
            result = load_result(tmp_path / "fig3.json")
            result.pop("timings")
            outputs.append(result)
        assert all(output == outputs[0] for output in outputs)
        # The last run repeats the first one's views: all of them load.
        assert summary["checkpoints"]["stores"] == 0

    def test_run_batch_wires_checkpoints_into_the_journal(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["fig3"])
        blob = json.loads((tmp_path / "journal.json").read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION
        assert blob["checkpoints"]
        cell_files = list((tmp_path / "checkpoints").glob("*.cells.json"))
        assert len(cell_files) == len(blob["checkpoints"])
        # Resume with lost outputs: the sweep serves from checkpoints.
        (tmp_path / "fig3.json").unlink()
        (tmp_path / "fig3.txt").unlink()
        run_batch(tmp_path, scale=TINY, ids=["fig3"], resume=True)
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["checkpoints"]["loads"] == len(cell_files)
        assert summary["checkpoints"]["stores"] == 0
