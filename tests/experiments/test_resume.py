"""Tests for the batch journal and --resume semantics."""

import json

import pytest

from repro.experiments import (
    BatchJournal,
    DONE,
    FAILED,
    JOURNAL_FORMAT_VERSION,
    PENDING,
    RUNNING,
    load_result,
    run_batch,
)
from repro.experiments.figures import EXPERIMENTS
from tests.experiments.test_config_and_registry import TINY


class TestBatchJournal:
    def test_fresh_journal_is_all_pending(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a", "b"])
        assert journal.statuses == {"a": PENDING, "b": PENDING}
        blob = json.loads(path.read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION
        assert blob["scale"] == "tiny"
        assert blob["experiments"] == {"a": PENDING, "b": PENDING}

    def test_mark_persists_atomically(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a"])
        journal.mark("a", DONE)
        assert json.loads(path.read_text())["experiments"]["a"] == DONE
        assert not list(tmp_path.glob("*.tmp"))
        assert journal.done_ids() == ["a"]

    def test_mark_rejects_unknown_status(self, tmp_path):
        journal = BatchJournal.open(
            tmp_path / "journal.json", scale="tiny", ids=["a"]
        )
        with pytest.raises(ValueError):
            journal.mark("a", "exploded")

    def test_resume_keeps_done_and_demotes_running(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a", "b", "c"])
        journal.mark("a", DONE)
        journal.mark("b", RUNNING)  # the run dies here
        resumed = BatchJournal.open(
            path, scale="tiny", ids=["a", "b", "c", "d"], resume=True
        )
        assert resumed.statuses == {
            "a": DONE,
            "b": FAILED,  # died mid-experiment: outputs are suspect
            "c": PENDING,
            "d": PENDING,  # newly requested id
        }

    def test_resume_rejects_scale_mismatch(self, tmp_path):
        path = tmp_path / "journal.json"
        BatchJournal.open(path, scale="tiny", ids=["a"])
        with pytest.raises(ValueError, match="scale"):
            BatchJournal.open(path, scale="full", ids=["a"], resume=True)

    def test_resume_rejects_format_mismatch(self, tmp_path):
        path = tmp_path / "journal.json"
        path.write_text(
            json.dumps(
                {"format_version": 999, "scale": "tiny", "experiments": {}}
            )
        )
        with pytest.raises(ValueError, match="format_version"):
            BatchJournal.open(path, scale="tiny", ids=["a"], resume=True)

    def test_without_resume_existing_journal_is_reset(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = BatchJournal.open(path, scale="tiny", ids=["a"])
        journal.mark("a", DONE)
        fresh = BatchJournal.open(path, scale="tiny", ids=["a"])
        assert fresh.statuses == {"a": PENDING}


class TestRunBatchJournal:
    def test_journal_written_and_all_done(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["table1", "x1"])
        blob = json.loads((tmp_path / "journal.json").read_text())
        assert blob["experiments"] == {"table1": DONE, "x1": DONE}

    def test_failure_marks_journal_and_writes_summary(self, tmp_path):
        # 'nope' is rejected by run_experiment after table1 completes.
        with pytest.raises(ValueError):
            run_batch(tmp_path, scale=TINY, ids=["table1", "nope"])
        blob = json.loads((tmp_path / "journal.json").read_text())
        assert blob["experiments"] == {"table1": DONE, "nope": FAILED}
        # The summary still covers the completed prefix.
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["num_experiments"] == 1
        assert (tmp_path / "table1.txt").exists()

    def test_interrupt_marks_journal_and_writes_summary(self, tmp_path):
        calls = []
        original = EXPERIMENTS["x1"]

        def _interrupted(scale, ex):
            calls.append(scale)
            raise KeyboardInterrupt

        EXPERIMENTS["x1"] = _interrupted
        try:
            with pytest.raises(KeyboardInterrupt):
                run_batch(tmp_path, scale=TINY, ids=["table1", "x1"])
        finally:
            EXPERIMENTS["x1"] = original
        assert calls  # the stub actually ran
        blob = json.loads((tmp_path / "journal.json").read_text())
        assert blob["experiments"] == {"table1": DONE, "x1": FAILED}
        assert (tmp_path / "batch_summary.json").exists()

    def test_resume_skips_done_and_matches_uninterrupted(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        clean = tmp_path / "clean"
        original = EXPERIMENTS["fig5"]

        def _dies(scale, ex):
            raise KeyboardInterrupt

        EXPERIMENTS["fig5"] = _dies
        try:
            with pytest.raises(KeyboardInterrupt):
                run_batch(interrupted, scale=TINY, ids=["fig3", "fig5"])
        finally:
            EXPERIMENTS["fig5"] = original
        # Resume finishes only fig5; fig3 is skipped as already done.
        run_batch(
            interrupted, scale=TINY, ids=["fig3", "fig5"], resume=True
        )
        summary = json.loads(
            (interrupted / "batch_summary.json").read_text()
        )
        assert summary["skipped"] == ["fig3"]
        assert summary["num_experiments"] == 1  # only fig5 recomputed
        blob = json.loads((interrupted / "journal.json").read_text())
        assert blob["experiments"] == {"fig3": DONE, "fig5": DONE}
        # Bit-identical to a batch that was never interrupted.
        run_batch(clean, scale=TINY, ids=["fig3", "fig5"])
        for eid in ("fig3", "fig5"):
            a = load_result(interrupted / f"{eid}.json")
            b = load_result(clean / f"{eid}.json")
            a.pop("timings")
            b.pop("timings")
            assert a == b

    def test_resume_recomputes_done_with_missing_files(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["table1"])
        (tmp_path / "table1.json").unlink()  # outputs lost, journal says done
        run_batch(tmp_path, scale=TINY, ids=["table1"], resume=True)
        assert (tmp_path / "table1.json").exists()
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["skipped"] == []
        assert summary["num_experiments"] == 1

    def test_resume_scale_mismatch_rejected(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["table1"])
        from repro.experiments import get_scale

        with pytest.raises(ValueError, match="scale"):
            run_batch(
                tmp_path, scale=get_scale("bench"), ids=["table1"], resume=True
            )
