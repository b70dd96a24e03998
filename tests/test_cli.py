"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig3"])
        assert args.experiment == "fig3"
        assert args.scale == "bench"
        assert args.output is None

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig3"], ["batch", "out"], ["query"]],
        ids=lambda argv: argv[0],
    )
    def test_engine_flag_is_gone(self, argv):
        # One production engine: the per-degree oracle lives in the tests.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--engine", "naive"])

    @pytest.mark.parametrize(
        "argv", [["run", "fig3"], ["batch", "out"]], ids=lambda a: a[0]
    )
    def test_shard_mode_flag_is_gone(self, argv):
        # One meaning of --shards: above 1 the sweeps stream shards.
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--shard-mode", "dataset"])

    @pytest.mark.parametrize(
        "argv",
        [["run", "fig3"], ["batch", "out"], ["query"]],
        ids=lambda argv: argv[0],
    )
    def test_backend_flag_is_gone(self, argv):
        # One timeline kernel: sweeps, placements and queries have no
        # backend to choose.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--backend", "numpy"])
        assert exc.value.code == 2

    def test_simulate_keeps_its_replay_engine_choice(self):
        parser = build_parser()
        assert parser.parse_args(["simulate"]).backend == "python"
        args = parser.parse_args(["simulate", "--backend", "numpy"])
        assert args.backend == "numpy"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["simulate", "--backend", "cuda"])
        assert exc.value.code == 2

    def test_run_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--scale", "huge"])

    def test_generate_requires_paths(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate"])

    def test_batch_defaults(self):
        args = build_parser().parse_args(["batch", "out"])
        assert args.out_dir == "out"
        assert args.ids == []
        assert not args.resume
        assert not args.strict
        assert args.chunk_timeout is None
        assert args.retry_attempts is None

    def test_batch_supervision_flags(self):
        args = build_parser().parse_args(
            [
                "batch",
                "out",
                "fig3",
                "fig5",
                "--resume",
                "--strict",
                "--chunk-timeout",
                "2.5",
                "--retry-attempts",
                "5",
            ]
        )
        assert args.ids == ["fig3", "fig5"]
        assert args.resume and args.strict
        assert args.chunk_timeout == 2.5
        assert args.retry_attempts == 5

    def test_shards_flag_parses(self):
        assert build_parser().parse_args(["run", "fig3"]).shards == 1
        assert (
            build_parser()
            .parse_args(["run", "fig3", "--shards", "4"])
            .shards
            == 4
        )
        assert (
            build_parser().parse_args(["batch", "out", "--shards", "8"]).shards
            == 8
        )

    @pytest.mark.parametrize("attempts", ["0", "-2", "two"])
    def test_retry_attempts_below_one_is_a_usage_error(self, attempts, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "out", "--retry-attempts", attempts])
        assert exc.value.code == 2
        assert "--retry-attempts" in capsys.readouterr().err

    def test_shards_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--shards", "0"])

    def test_chunk_timeout_must_be_positive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig3", "--chunk-timeout", "0"])

    def test_hidden_fault_knobs_parse(self):
        args = build_parser().parse_args(
            ["batch", "out", "--fault-crash", "0.1", "--fault-seed", "7"]
        )
        assert args.fault_crash == 0.1
        assert args.fault_seed == 7
        # Hidden: absent from the rendered help text.
        parser = build_parser()
        sub = next(
            a for a in parser._subparsers._group_actions
        ).choices["batch"]
        assert "--fault-crash" not in sub.format_help()
        assert "--chunk-timeout" in sub.format_help()

    @pytest.mark.parametrize("command", [["run", "fig2"], ["batch", "out"]])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--fault-crash", "1.5"),
            ("--fault-hang", "2"),
            ("--fault-error", "-0.2"),
            ("--fault-crash", "nan"),
        ],
    )
    def test_fault_probabilities_must_be_in_unit_interval(
        self, command, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(command + [flag, value])
        assert exc.value.code == 2

    def test_fault_probability_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["run", "fig2", "--fault-crash", "0", "--fault-error", "1"]
        )
        assert (args.fault_crash, args.fault_error) == (0.0, 1.0)

    def test_reap_command_is_gone(self):
        # Nothing allocates shared memory, so there is nothing to reap.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["reap"])
        assert exc.value.code == 2


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "table1" in out
        assert "x1" in out

    def test_stats(self, capsys):
        assert main(["stats", "--users", "400", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "facebook" in out
        assert "users" in out

    def test_stats_twitter(self, capsys):
        assert (
            main(["stats", "--dataset", "twitter", "--users", "400"]) == 0
        )
        assert "twitter" in capsys.readouterr().out

    def test_generate_roundtrip(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        trace_path = tmp_path / "t.txt"
        rc = main(
            [
                "generate",
                "--users",
                "400",
                "--seed",
                "1",
                "--graph",
                str(graph_path),
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 0
        assert graph_path.exists()
        assert trace_path.exists()
        # The generated files reload through the public loaders.
        from repro.datasets import load_facebook_wall_trace
        from repro.graph import read_friendship_graph

        graph = read_friendship_graph(str(graph_path))
        assert graph.num_users > 0
        # Trace file format: creator receiver timestamp (one per line).
        lines = [
            line
            for line in trace_path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) > 100
        assert len(lines[0].split()) == 3

    def test_simulate_small(self, capsys):
        rc = main(
            [
                "simulate",
                "--users",
                "400",
                "--degree",
                "6",
                "--cohort",
                "4",
                "--k",
                "2",
                "--days",
                "1",
            ]
        )
        out = capsys.readouterr().out + capsys.readouterr().err
        if rc == 0:
            assert "write service" in out
        else:
            # No degree-6 users in this tiny dataset: graceful error.
            assert rc == 1

    def test_simulate_unknown_degree_fails_gracefully(self, capsys):
        rc = main(
            ["simulate", "--users", "400", "--degree", "9999", "--days", "1"]
        )
        assert rc == 1

    def test_run_table1_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        rc = main(["run", "table1", "--output", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        assert "table1" in text
        assert "Measured" in text

    def test_run_with_plot(self, tmp_path):
        out_file = tmp_path / "plot.txt"
        rc = main(["run", "x1", "--plot", "--output", str(out_file)])
        assert rc == 0
        text = out_file.read_text()
        # The aggregate table is numeric and must render as a chart.
        assert "|" in text


class TestBatchCommand:
    def test_batch_writes_outputs_and_journal(self, tmp_path, capsys):
        rc = main(["batch", str(tmp_path), "table1", "x1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[batch] 2 experiments" in out
        for name in (
            "table1.txt",
            "table1.json",
            "x1.txt",
            "x1.json",
            "journal.json",
            "batch_summary.json",
        ):
            assert (tmp_path / name).exists()
        journal = json.loads((tmp_path / "journal.json").read_text())
        assert journal["experiments"] == {"table1": "done", "x1": "done"}

    def test_batch_resume_skips_done(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path), "table1"]) == 0
        capsys.readouterr()
        assert main(["batch", str(tmp_path), "table1", "--resume"]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 already-done" in out
        summary = json.loads((tmp_path / "batch_summary.json").read_text())
        assert summary["skipped"] == ["table1"]
        assert summary["num_experiments"] == 0

    def test_batch_unknown_experiment_fails_with_hint(self, tmp_path, capsys):
        rc = main(["batch", str(tmp_path), "nope"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "batch failed" in err
        assert "--resume" in err
        journal = json.loads((tmp_path / "journal.json").read_text())
        assert journal["experiments"]["nope"] == "failed"

    def test_batch_with_injected_errors_still_succeeds(self, tmp_path):
        # Serial supervision retries injected first-attempt errors; the
        # outputs must be identical to a fault-free run.
        clean = tmp_path / "clean"
        faulted = tmp_path / "faulted"
        assert main(["batch", str(clean), "x1"]) == 0
        assert (
            main(
                [
                    "batch",
                    str(faulted),
                    "x1",
                    "--fault-error",
                    "1.0",
                    "--fault-seed",
                    "3",
                ]
            )
            == 0
        )
        a = json.loads((clean / "x1.json").read_text())
        b = json.loads((faulted / "x1.json").read_text())
        a.pop("timings")
        b.pop("timings")
        assert a == b


class TestQueryCommand:
    def test_query_parser_defaults(self):
        args = build_parser().parse_args(["query"])
        assert args.dataset == "facebook"
        assert args.policy == "maxav"
        assert args.mode == "conrep"
        assert args.k == 3
        assert args.user is None

    def test_query_user_flag_repeats(self):
        args = build_parser().parse_args(
            ["query", "--user", "3", "--user", "17"]
        )
        assert args.user == [3, 17]

    def test_query_rejects_bad_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "--mode", "sideways"])

    def test_query_cohort_smoke(self, capsys):
        rc = main(
            [
                "query",
                "--users", "300",
                "--seed", "2",
                "--degree", "6",
                "--cohort", "4",
                "--k", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "[query]" in out
        assert "p99" in out

    def test_query_explicit_users_match_library(self, capsys):
        # The CLI must print exactly what the library's plane computes.
        from repro.core import make_policy
        from repro.datasets import synthetic_facebook
        from repro.onlinetime import SporadicModel
        from repro.query import QueryPlane

        dataset = synthetic_facebook(300, seed=2)
        user = sorted(dataset.graph.users())[5]
        expected = QueryPlane(dataset, SporadicModel(), seed=2).evaluate(
            user, make_policy("maxav"), 2
        )
        rc = main(
            [
                "query",
                "--users", "300",
                "--seed", "2",
                "--user", str(user),
                "--k", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"{expected.availability:.3f}" in out
        assert " ".join(str(r) for r in expected.replicas) in out

    def test_query_p50_is_the_sample_median(self, monkeypatch, capsys):
        # Stub the clock the query command reads, so each first-pass
        # query takes 1..10 ms (shuffled) and each repeat 0.1..1.0 ms.
        import sys
        import time

        from repro.datasets import synthetic_facebook

        users = sorted(synthetic_facebook(300, seed=2).graph.users())[:10]
        first = [3, 9, 1, 7, 5, 10, 2, 8, 4, 6]
        stamps = [0.0, 0.0]  # the warm-up
        now = 0.0
        for ms in first + [m / 10 for m in first]:
            stamps += [now, now + ms / 1e3]
            now += 1.0
        real = time.perf_counter

        def fake():
            if sys._getframe(1).f_code.co_name == "_cmd_query":
                return stamps.pop(0)
            return real()

        monkeypatch.setattr(time, "perf_counter", fake)
        argv = ["query", "--users", "300", "--seed", "2", "--k", "1"]
        for user in users:
            argv += ["--user", str(user)]
        assert main(argv) == 0
        assert not stamps
        out = capsys.readouterr().out
        # Median of 1..10 ms is 5.5 ms; of 0.1..1.0 ms, 0.55 ms.
        assert "first-pass p50 5.50ms" in out
        assert "repeat p50 0.550ms" in out

    def test_query_unknown_degree_fails_gracefully(self, capsys):
        rc = main(
            ["query", "--users", "300", "--degree", "9999"]
        )
        assert rc == 1
        assert "no users of degree" in capsys.readouterr().err

    def test_query_cache_dir_round_trip(self, tmp_path, capsys):
        argv = [
            "query",
            "--users", "300",
            "--seed", "2",
            "--user", "5",
            "--k", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        # Second run serves from the content-addressed store: same table.
        table = lambda text: [
            line for line in text.splitlines() if not line.startswith("[")
        ]
        assert table(first) == table(second)
        assert "1 store hits" in second
