"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q`` from
the repository root (about 45 s: every workload runs once at
toy size, against its frozen control).
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


class TestStatistics:
    def test_quartiles_are_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
        assert run.quartiles(values) == statistics.quantiles(values, n=4)
        q1, mid, q3 = statistics.quantiles(values, n=4)
        assert run.spread(values) == pytest.approx((q3 - q1) / mid)

    def test_single_value_has_no_spread(self):
        assert run.quartiles([2.5]) == [2.5, 2.5, 2.5]
        assert run.spread([2.5]) == 0.0


class TestVerdict:
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]

    def pairs(self, change):
        return list(zip(self.parent, change))

    def test_faster_in_every_pair_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        assert run.verdict(self.parent, change, self.pairs(change), "lower", 0.1) == "improved"

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in self.parent]
        assert run.verdict(self.parent, change, self.pairs(change), "higher", 0.1) == "improved"
        assert run.verdict(self.parent, change, self.pairs(change), "lower", 0.1) == "regressed"

    def test_worse_by_more_than_the_bound_is_regressed(self):
        change = [v * 1.15 for v in self.parent]
        assert run.verdict(self.parent, change, self.pairs(change), "lower", 0.1) == "regressed"

    def test_small_change_is_within_bound(self):
        change = [v * 1.03 for v in self.parent]
        assert run.verdict(self.parent, change, self.pairs(change), "lower", 0.1) == "within bound"

    def test_wide_spread_is_unresolved(self):
        noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
        change = [v * 1.02 for v in noisy]
        pairs = list(zip(noisy, change))
        assert run.verdict(noisy, change, pairs, "lower", 0.1) == "unresolved"

    def test_nine_tenths_of_pairs_are_needed_for_a_gain(self):
        change = [v * 0.8 for v in self.parent]
        change[0] = change[1] = 11.0  # the change loses two pairs of ten
        assert run.verdict(self.parent, change, self.pairs(change), "lower", 0.25) != "improved"


class TestCompareTree:
    def test_equal_trees(self):
        tree = {"a": [1, 2.5, "inf"], "b": {"c": True}}
        assert workloads.compare_tree(tree, json.loads(json.dumps(tree))) == []

    def test_floats_within_the_relative_tolerance(self):
        assert workloads.compare_tree([1.0], [1.0 + 1e-12]) == []
        assert workloads.compare_tree([1.0], [1.0 + 1e-6]) != []

    def test_ints_and_structure_must_match_exactly(self):
        assert workloads.compare_tree({"n": 3}, {"n": 4}) != []
        assert workloads.compare_tree({"n": 3}, {"n": 3.0}) != []
        assert workloads.compare_tree({"n": 3}, {"m": 3}) != []
        assert workloads.compare_tree([1, 2], [1]) != []


class TestCompareCommand:
    def _runs(self, path, scale):
        with open(path, "w") as fh:
            for seed in range(5):
                metrics = {
                    m["name"]: {"value": (10.0 + 0.01 * seed) * scale, "unit": m["unit"]}
                    for m in SPEC["end_to_end"]
                }
                fh.write(json.dumps({"workload": "replay", "seed": seed, "trace": 0,
                                     "metrics": metrics}) + "\n")

    def test_regression_fails_and_equal_sets_pass(self, tmp_path):
        self._runs(tmp_path / "a.jsonl", 1.0)
        self._runs(tmp_path / "same.jsonl", 1.0)
        self._runs(tmp_path / "slow.jsonl", 1.5)
        assert run.main(["compare", str(tmp_path / "a.jsonl"), str(tmp_path / "same.jsonl")]) == 0
        assert run.main(["compare", str(tmp_path / "a.jsonl"), str(tmp_path / "slow.jsonl")]) == 1
        run.main(["compare", str(tmp_path / "a.jsonl"), "--json", str(tmp_path / "s.json")])
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["workloads"]["replay"]["wall_s"]["n"] == 5
        assert summary["machine"]["cpus"] >= 1


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_at_toy_size(workload):
    result = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "0", "--size", "toy"))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    trace = tmp_path / "trace.json"
    result = _result(_bench("--workload", "sharded", "--seed", "5", "--seconds", "1",
                            "--trace", "1", "--size", "toy", "--trace-file", str(trace)))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    assert result["metrics"]["datasets.shard_builds"]["value"] == 2
    events = json.loads(trace.read_text())["traceEvents"]
    assert {"workload.op", "datasets.shard_build", "parallel.map"} <= {e["name"] for e in events}


def test_outputs_must_match_the_control(tmp_path):
    # A program whose every derived seed changed gives other outputs.
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e", ignore=ignore)
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    seeding = tmp_path / "src/repro/seeding.py"
    seeding.write_text(seeding.read_text().replace("hashlib.sha256(", "hashlib.sha1("))
    proc = _bench("--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0",
                  "--size", "toy", cwd=tmp_path)
    assert proc.returncode != 0
    assert "against the control" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
