"""Tests for batch running and JSON serialisation."""

import json
import math

import pytest

from repro.cache import SweepCache
from repro.experiments import (
    dejsonify,
    jsonify,
    load_result,
    render_batch_summary,
    result_to_dict,
    run_batch,
    run_experiment,
)
from repro.experiments.report import ExperimentResult
from repro.parallel import ParallelExecutor
from tests.experiments.test_config_and_registry import TINY


class TestJsonify:
    def test_primitives(self):
        assert jsonify(5) == 5
        assert jsonify("x") == "x"
        assert jsonify(None) is None
        assert jsonify(1.5) == 1.5
        assert jsonify(True) is True

    def test_non_finite_floats_become_strings(self):
        assert jsonify(math.inf) == "inf"
        assert jsonify(-math.inf) == "-inf"
        assert jsonify(math.nan) == "nan"

    def test_containers(self):
        assert jsonify((1, 2)) == [1, 2]
        assert jsonify({1: (2, 3)}) == {"1": [2, 3]}

    def test_dataclass(self):
        from repro.core.fairness import FairnessReport

        report = FairnessReport(
            num_hosts=2,
            total_load=3,
            mean_load=1.5,
            max_load=2,
            jain=0.9,
            gini=0.1,
            top_decile_share=0.6,
        )
        out = jsonify(report)
        assert out["num_hosts"] == 2
        assert out["jain"] == 0.9

    def test_fallback_repr(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert jsonify(Odd()) == "<odd>"


class TestDejsonify:
    def test_inverts_non_finite_encoding(self):
        assert dejsonify("inf") == math.inf
        assert dejsonify("-inf") == -math.inf
        assert math.isnan(dejsonify("nan"))

    def test_other_strings_untouched(self):
        assert dejsonify("infinite") == "infinite"
        assert dejsonify("Inf") == "Inf"  # exact-match only
        assert dejsonify("") == ""

    def test_recurses_containers(self):
        out = dejsonify({"a": [1.5, "inf", {"b": "-inf"}], "c": None})
        assert out["a"][0] == 1.5
        assert out["a"][1] == math.inf
        assert out["a"][2]["b"] == -math.inf
        assert out["c"] is None

    def test_round_trips_jsonify(self):
        value = {"x": [1, math.inf, -math.inf], "y": 2.5, "z": "plain"}
        assert dejsonify(json.loads(json.dumps(jsonify(value)))) == value


class TestResultToDict:
    def test_round_trips_through_json(self):
        result = ExperimentResult("idx", "T", "D", paper_expectation="E")
        result.add_table("cap", ("a", "b"), [(1, math.inf)])
        result.data["series"] = [1.0, 2.0]
        blob = json.dumps(result_to_dict(result))
        parsed = json.loads(blob)
        assert parsed["experiment_id"] == "idx"
        assert parsed["tables"][0]["rows"][0] == [1, "inf"]
        assert parsed["data"]["series"] == [1.0, 2.0]


class TestRunBatch:
    def test_writes_txt_and_json(self, tmp_path):
        written = run_batch(tmp_path, scale=TINY, ids=["table1", "x1"])
        names = sorted(p.name for p in written)
        assert names == [
            "batch_summary.json",
            "table1.json",
            "table1.txt",
            "x1.json",
            "x1.txt",
        ]
        parsed = json.loads((tmp_path / "x1.json").read_text())
        assert parsed["experiment_id"] == "x1"
        assert "DES" in (tmp_path / "x1.txt").read_text()

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "dir"
        run_batch(target, scale=TINY, ids=["table1"])
        assert (target / "table1.txt").exists()

    def test_load_result_restores_non_finite_floats(self, tmp_path):
        # Infinite delays are written by jsonify as the string "inf";
        # load_result must hand back the float.
        result = ExperimentResult("idx", "T", "D", paper_expectation="E")
        result.add_table("cap", ("a", "b"), [(1, math.inf)])
        result.data["delays"] = [2.5, math.inf, -math.inf]
        path = tmp_path / "idx.json"
        path.write_text(json.dumps(result_to_dict(result)))
        loaded = load_result(path)
        assert loaded["tables"][0]["rows"][0] == [1, math.inf]
        assert loaded["data"]["delays"] == [2.5, math.inf, -math.inf]
        assert not _contains(loaded, "inf")

    def test_load_result_includes_timings(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["table1"])
        loaded = load_result(tmp_path / "table1.json")
        timings = loaded["timings"]
        assert timings["jobs"] == 1
        assert timings["total_seconds"] > 0
        assert all(
            set(phase) == {"seconds", "items", "calls", "items_per_second"}
            for phase in timings["phases"].values()
        )

    @pytest.mark.parametrize("jobs", [2, 0])
    def test_summary_jobs_is_the_executor_that_ran(self, tmp_path, jobs):
        executor = ParallelExecutor(jobs=jobs)
        run_batch(tmp_path, scale=TINY, ids=["table1"], executor=executor)
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        timings = load_result(tmp_path / "table1.json")["timings"]
        assert summary["jobs"] == timings["jobs"] == executor.effective_jobs

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["fig3"])
        assert not list(tmp_path.glob("*.tmp"))
        assert (tmp_path / "fig3.json").exists()

    def test_batch_summary_contents(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["fig3", "fig5"])
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["num_experiments"] == 2
        assert summary["scale"] == TINY.name
        assert set(summary["experiments"]) == {"fig3", "fig5"}
        # fig5 is a view over fig3's sweep: the batch-shared cache must
        # have served it entirely from memory.
        assert summary["cache"]["hits"] >= 12
        assert summary["cache"]["entries"] == summary["cache"]["stores"]
        fig5 = summary["experiments"]["fig5"]
        assert fig5["cache"]["misses"] == 0
        assert summary["pool"] == {  # jobs=1: no pool activity at all
            "starts": 0,
            "rebuilds": 0,
            "retries": 0,
            "timeouts": 0,
            "quarantined": 0,
        }
        assert summary["failures"] is None
        assert summary["skipped"] == []
        assert "sweep[sporadic]" in summary["phase_totals"]

    def test_no_cache_batch_is_identical(self, tmp_path):
        run_batch(tmp_path / "cached", scale=TINY, ids=["fig5"])
        run_batch(
            tmp_path / "plain", scale=TINY, ids=["fig5"], use_cache=False
        )
        cached = load_result(tmp_path / "cached" / "fig5.json")
        plain = load_result(tmp_path / "plain" / "fig5.json")
        cached.pop("timings")
        plain.pop("timings")
        assert cached == plain
        summary = json.loads(
            (tmp_path / "plain" / "batch_summary.json").read_text()
        )
        assert summary["cache"] is None

    def test_shared_cache_spans_batches(self, tmp_path):
        cache = SweepCache()
        run_batch(tmp_path / "one", scale=TINY, ids=["fig3"], cache=cache)
        mark = cache.stats.snapshot()
        run_batch(tmp_path / "two", scale=TINY, ids=["fig3"], cache=cache)
        assert cache.stats.since(mark)["misses"] == 0
        one = load_result(tmp_path / "one" / "fig3.json")
        two = load_result(tmp_path / "two" / "fig3.json")
        one.pop("timings")
        two.pop("timings")
        assert one == two

    def test_finished_batch_leaves_nothing_on_a_shared_cache(self, tmp_path):
        # A batch hangs no resume state on a caller's cache: reusing the
        # cache afterwards must not write into the finished batch.
        cache = SweepCache()
        out = tmp_path / "out"
        run_batch(out, scale=TINY, ids=["fig8"], cache=cache)
        files = sorted(p.relative_to(out) for p in out.rglob("*"))
        journal = (out / "journal.json").read_bytes()
        run_experiment("fig3", TINY, cache=cache)
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == files
        assert (out / "journal.json").read_bytes() == journal

    def test_entries_count_series_and_payloads(self, tmp_path):
        # fig3 stores sweep series, x6 a DES replay payload: both are
        # entries of the batch's cache.
        run_batch(tmp_path, scale=TINY, ids=["fig3", "x6"])
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["cache"]["entries"] == summary["cache"]["stores"]
        assert summary["experiments"]["x6"]["cache"]["stores"] == 1

    def test_render_batch_summary_foot(self, tmp_path):
        run_batch(tmp_path, scale=TINY, ids=["fig3"])
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        foot = render_batch_summary(summary)
        assert "[batch] 1 experiments" in foot
        assert "cache:" in foot
        assert "fig3:" in foot


def _contains(value, needle):
    if isinstance(value, dict):
        return any(_contains(v, needle) for v in value.values())
    if isinstance(value, list):
        return any(_contains(v, needle) for v in value)
    return value == needle
