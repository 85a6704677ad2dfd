"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestListingCommands:
    def test_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "piecemeal-uniform" in out
        assert "equidepth" in out
        assert "ground truth" in out

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("USAGE", "MGCTY", "ZIPF", "MULTIFRAC"):
            assert name in out

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "F4" in out and "Figure 13" in out


class TestRun:
    def test_quick_figure_run(self, capsys):
        code = main(
            ["run", "F7", "--size", "400", "--methods", "piecemeal-uniform,equidepth"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "piecemeal-uniform" in out
        assert "RMSE_n" in out

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "F99"])


class TestMetrics:
    def test_run_with_metrics_prints_obs_table(self, capsys):
        code = main(
            [
                "run",
                "F7",
                "--size",
                "300",
                "--methods",
                "piecemeal-uniform,wholesale-uniform",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p50 us" in out and "p99 us" in out
        assert "realloc(w)" in out and "realloc(p)" in out

    def test_stats_table(self, capsys):
        code = main(
            ["stats", "F7", "--size", "300", "--methods", "piecemeal-uniform"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p50 us" in out
        assert "update.latency_ns" in out

    def test_stats_prometheus(self, capsys):
        code = main(
            [
                "stats",
                "F7",
                "--size",
                "300",
                "--methods",
                "piecemeal-uniform",
                "--format",
                "prometheus",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert 'method="piecemeal-uniform"' in out
        assert "repro_update_latency_ns" in out

    def test_estimate_metrics_json(self, capsys):
        import json

        code = main(
            [
                "estimate",
                "--dataset",
                "ZIPF",
                "--independent",
                "min",
                "--epsilon",
                "1000",
                "--size",
                "400",
                "--metrics",
                "--metrics-format",
                "json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The JSON document is the trailing block; the query description
        # above it also contains braces, so anchor on the document's own
        # opening line.
        payload = out[out.rindex("\n{\n") + 1 :]
        document = json.loads(payload)
        assert "metrics" in document
        assert "update.latency_ns" in document["metrics"]


class TestEstimate:
    def test_min_query(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset",
                "ZIPF",
                "--independent",
                "min",
                "--epsilon",
                "1000",
                "--size",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MIN(x)" in out
        assert "final RMSE_n" in out

    def test_sliding_avg_query(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset",
                "MGCTY",
                "--independent",
                "avg",
                "--window",
                "100",
                "--size",
                "400",
                "--method",
                "piecemeal-uniform",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sliding w=100" in out

    def test_two_sided_flag(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset",
                "USAGE",
                "--independent",
                "avg",
                "--epsilon",
                "5",
                "--two-sided",
                "--size",
                "300",
            ]
        )
        assert code == 0
        assert "|x - AVG(x)| < 5" in capsys.readouterr().out

    def test_invalid_query_is_reported_not_raised(self, capsys):
        # MIN without epsilon is a configuration error -> exit code 2.
        code = main(
            ["estimate", "--dataset", "USAGE", "--independent", "min", "--size", "100"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_time_window_scope(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset",
                "USAGE",
                "--independent",
                "min",
                "--epsilon",
                "1000",
                "--size",
                "400",
                "--time-window",
                "80",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time window, trailing 80" in out
        assert "final RMSE_n" in out

    def test_time_window_rejects_tuple_window(self, capsys):
        code = main(
            [
                "estimate",
                "--dataset",
                "USAGE",
                "--independent",
                "avg",
                "--window",
                "50",
                "--time-window",
                "80",
                "--size",
                "200",
            ]
        )
        assert code == 2
        assert "mutually" in capsys.readouterr().err


class TestCheckpointFlags:
    RUN = ["run", "F7", "--size", "400", "--methods", "piecemeal-uniform"]

    def test_checkpoint_every_needs_dir(self, capsys):
        code = main([*self.RUN, "--checkpoint-every", "100"])
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_metrics_and_checkpointing_are_exclusive(self, tmp_path, capsys):
        code = main(
            [
                *self.RUN,
                "--checkpoint-every",
                "100",
                "--checkpoint-dir",
                str(tmp_path),
                "--metrics",
            ]
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--serve-metrics", "0"], ["--metrics"], ["--audit-every", "50"]],
        ids=["serve-metrics", "metrics", "audit-every"],
    )
    def test_instrumented_checkpointing_refused_before_anything_starts(
        self, tmp_path, capsys, flags
    ):
        # Regression: the metrics server used to start (and print its
        # address) before evaluate_methods refused the combination.
        code = main(
            [*self.RUN, "--checkpoint-every", "100", "--checkpoint-dir", str(tmp_path), *flags]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "mutually exclusive" in captured.err
        assert "serving metrics" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_resume_dir_mismatch_rejected(self, tmp_path, capsys):
        code = main(
            [
                *self.RUN,
                "--checkpoint-dir",
                str(tmp_path / "a"),
                "--resume-from",
                str(tmp_path / "b"),
            ]
        )
        assert code == 2
        assert "same directory" in capsys.readouterr().err

    def test_checkpointed_run_matches_plain_run(self, tmp_path, capsys):
        assert main(self.RUN) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    *self.RUN,
                    "--checkpoint-every",
                    "100",
                    "--checkpoint-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        checkpointed = capsys.readouterr().out
        assert checkpointed == plain
        assert list((tmp_path / "panel0").glob("ckpt-*.ckpt"))

    def test_resume_after_complete_run_reprints_results(self, tmp_path, capsys):
        args = [*self.RUN, "--checkpoint-every", "100", "--checkpoint-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main([*self.RUN, "--resume-from", str(tmp_path)]) == 0
        resumed = capsys.readouterr().out
        assert resumed == first

    def test_resume_from_empty_directory_rejected(self, tmp_path, capsys):
        code = main([*self.RUN, "--resume-from", str(tmp_path)])
        assert code == 2
        assert "no checkpoint" in capsys.readouterr().err

    def test_batched_checkpointed_run_and_resume_match_plain_run(self, tmp_path, capsys):
        run = ["run", "F7", "--size", "400"]  # every F7 method, offline ones too
        assert main(run) == 0
        plain = capsys.readouterr().out
        batched = [*run, "--batch-size", "64"]
        assert main([*batched, "--checkpoint-every", "100", "--checkpoint-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain
        generations = sorted((tmp_path / "panel0").glob("ckpt-*.ckpt"))
        assert [p.name for p in generations] == [
            "ckpt-000000000200.ckpt", "ckpt-000000000300.ckpt", "ckpt-000000000400.ckpt"
        ]
        assert main([*batched, "--resume-from", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain
        for path in generations[1:]:  # a crash after the offset-200 generation
            path.unlink()
        assert main([*batched, "--resume-from", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain


class TestBatchSizeFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "F7", "--size", "400"],
            ["estimate", "--dataset", "USAGE", "--independent", "min", "--size", "400"],
            ["estimate", "--dataset", "USAGE", "--time-window", "50", "--size", "400"],
        ],
    )
    @pytest.mark.parametrize("batch_size", ["0", "-5"])
    def test_nonpositive_batch_size_rejected(self, capsys, argv, batch_size):
        code = main([*argv, "--batch-size", batch_size])
        assert code == 2
        assert f"--batch-size must be >= 1, got {batch_size}" in capsys.readouterr().err


    def test_time_window_feeds_batch_size_chunks(self, capsys, monkeypatch):
        """--time-window honours --batch-size: chunks of N, same report."""
        from repro.core.time_sliding import TimeSlidingEstimator

        argv = [
            "estimate", "--dataset", "USAGE", "--independent", "avg",
            "--time-window", "50", "--size", "300",
        ]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        calls: list[int] = []
        update_columns = TimeSlidingEstimator.update_columns

        def spy(self, xs, ys=None, collect="all", *, times=None):
            calls.append(len(xs))
            return update_columns(self, xs, ys, collect, times=times)

        monkeypatch.setattr(TimeSlidingEstimator, "update_columns", spy)
        assert main([*argv, "--batch-size", "7"]) == 0
        assert calls == [7] * 42 + [6]
        assert capsys.readouterr().out == plain


class TestShardFlags:
    ESTIMATE = [
        "estimate",
        "--dataset",
        "ZIPF",
        "--independent",
        "min",
        "--epsilon",
        "1000",
        "--size",
        "600",
    ]

    def test_estimate_sharded(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded: 2 workers, round-robin partitioning" in out
        assert "merged estimate" in out
        assert "per-shard records" in out

    def test_run_sharded_smoke(self, capsys):
        code = main(
            [
                "run",
                "F4",
                "--size",
                "400",
                "--shards",
                "2",
                "--methods",
                "piecemeal-uniform",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded: 2 workers" in out
        assert "merge bound" in out

    def test_partition_did_you_mean(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2", "--partition", "hsah"])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean 'hash'" in err

    def test_shards_and_checkpointing_are_exclusive(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "F4",
                "--size",
                "400",
                "--shards",
                "2",
                "--checkpoint-every",
                "100",
                "--checkpoint-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "mutually exclusive" in err
        assert "per-coordinator" in err

    def test_shards_and_serve_metrics_are_exclusive(self, capsys):
        code = main(["run", "F4", "--size", "400", "--shards", "2", "--serve-metrics", "0"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_shards_accept_batch_size_as_chunk_size(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2", "--batch-size", "64"])
        assert code == 0
        assert "merged estimate" in capsys.readouterr().out

    def test_shards_reject_nonpositive_batch_size(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2", "--batch-size", "0"])
        assert code == 2
        assert "--batch-size must be >= 1" in capsys.readouterr().err

    def test_shards_and_time_window_are_exclusive(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2", "--time-window", "5"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sliding_query_sharded_is_rejected(self, capsys):
        code = main([*self.ESTIMATE, "--shards", "2", "--window", "100"])
        assert code == 2
        assert "not shardable" in capsys.readouterr().err


class TestKeyed:
    KEYED = [
        "keyed",
        "--dataset",
        "ZIPF",
        "--size",
        "3000",
        "--keys",
        "500",
        "--sketch-capacity",
        "128",
        "--promote-after",
        "8",
        "--top",
        "5",
    ]

    def test_keyed_run_prints_top_table(self, capsys):
        assert main(self.KEYED) == 0
        out = capsys.readouterr().out
        assert "zipf(1.1) keys" in out
        assert "estimate" in out and "interval" in out and "kind" in out
        assert "promoted" in out
        assert "throughput" in out

    def test_keyed_with_budget_and_metrics(self, capsys):
        code = main([*self.KEYED, "--budget-kb", "64", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "budget 64 KiB" in out
        assert "events.keyed.promote" in out

    def test_keyed_paper_notation_query(self, capsys):
        code = main(
            [*self.KEYED, "--query", "SUM{y: x <= (1+9)*MIN(x)}"]
        )
        assert code == 0
        assert "SUM" in capsys.readouterr().out

    def test_keyed_invalid_config_is_reported_not_raised(self, capsys):
        code = main([*self.KEYED, "--promote-after", "0"])
        assert code == 2
        assert "promote_threshold" in capsys.readouterr().err
