"""Tests for experiment scales, dataset caching, and the registry."""

import pytest

from repro.experiments import (
    BENCH,
    FULL,
    EXPERIMENTS,
    ExperimentScale,
    experiment_ids,
    facebook_dataset,
    get_scale,
    run_experiment,
    twitter_dataset,
)

#: A deliberately tiny scale so registry smoke tests stay fast.
TINY = ExperimentScale(
    name="tiny-test",
    facebook_users=400,
    twitter_users=400,
    cohort_degree=8,
    max_cohort_users=5,
    repeats=1,
    seed=7,
)


class TestScales:
    def test_bench_and_full_presets(self):
        assert BENCH.name == "bench"
        assert FULL.facebook_users == 13884
        assert FULL.repeats == 5

    def test_get_scale(self):
        assert get_scale("bench") is BENCH
        assert get_scale("full") is FULL
        with pytest.raises(ValueError):
            get_scale("gigantic")

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(name="x", facebook_users=10, twitter_users=500)
        with pytest.raises(ValueError):
            ExperimentScale(
                name="x", facebook_users=500, twitter_users=500, repeats=0
            )


class TestDatasetCaching:
    def test_same_object_returned(self):
        assert facebook_dataset("bench") is facebook_dataset("bench")
        assert twitter_dataset("bench") is twitter_dataset("bench")

    def test_kinds(self):
        assert facebook_dataset("bench").kind == "facebook"
        assert twitter_dataset("bench").kind == "twitter"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        assert ids[0] == "table1"
        for fig in range(2, 12):
            assert f"fig{fig}" in ids
        assert "x1" in ids

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_every_experiment_callable(self):
        for eid, fn in EXPERIMENTS.items():
            assert callable(fn), eid


class TestSmokeRuns:
    """Cheap end-to-end runs of representative experiments at TINY scale."""

    def test_table1(self):
        result = run_experiment("table1", TINY)
        assert result.experiment_id == "table1"
        assert result.tables
        assert result.data["facebook"].num_users > 0

    def test_fig2(self):
        result = run_experiment("fig2", TINY)
        assert sum(result.data["facebook"].values()) > 0

    def test_fig2_renders_a_dataset_the_filter_empties(self):
        # At this seed the §IV-A filter fixpoint removes every Twitter
        # user (500 -> 463 -> ... -> 13 -> 3 -> 0 over 14 rounds): its
        # column renders as zeros next to the Facebook counts.
        scale = ExperimentScale(
            name="e2e",
            facebook_users=500,
            twitter_users=500,
            max_cohort_users=6,
            repeats=2,
            seed=401,
        )
        assert twitter_dataset(scale).graph.num_users == 0
        result = run_experiment("fig2", scale)
        assert result.data["twitter"] == {}
        fb = result.data["facebook"]
        (table,) = result.tables
        assert [row[0] for row in table.rows] == list(
            range(1, min(50, max(fb)) + 1)
        )
        assert all(row[1] == fb.get(row[0], 0) for row in table.rows)
        assert all(row[2] == 0 for row in table.rows)
        result.render()

    def test_fig4_structure(self):
        result = run_experiment("fig4", TINY)
        assert set(result.data) >= {"FixedLength-2h", "FixedLength-8h", "degrees"}
        series = result.data["FixedLength-8h"]["maxav"]["availability"]
        assert len(series) == 11
        assert all(0 <= v <= 1 for v in series)

    def test_x1(self):
        result = run_experiment("x1", TINY)
        assert result.data["max_avail_delta"] < 0.1
        assert (
            result.data["worst_des_delay"]
            <= result.data["analytic_bound"] + 1e-6
        )
