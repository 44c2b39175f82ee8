"""Tests for the analysis runners, table formatting, CLI and simulator churn."""

from __future__ import annotations

import pytest

from repro.analysis import fig3_runner, format_table, run_fig3_experiment
from repro.cli import build_parser, main
from repro.sim import singleton_grouping


class TestFormatTable:
    def test_basic_alignment(self):
        table = format_table(["name", "value"], [["alpha", 1.0], ["b", 22.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0] and "value" in lines[0]
        assert set(lines[1]) <= {"-", " "}
        assert "1.000" in table and "22.500" in table

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1.0]])

    def test_empty_rows_produce_header_only(self):
        table = format_table(["a", "b"], [])
        assert len(table.splitlines()) == 2


class TestAnalysisRunners:
    def test_fig3_runner_produces_both_panels(self):
        result = run_fig3_experiment(
            fig3_runner(seed=4, num_users=10, num_eval_intervals=2, interval_s=80.0)
        )
        cumulative = list(result.cumulative_swiping().values())
        assert cumulative[-1] == pytest.approx(1.0)
        rows = result.demand_rows()
        assert len(rows) == 2
        assert all(len(row) == 5 for row in rows)
        assert 0.0 <= result.mean_radio_accuracy <= 1.0
        assert result.max_radio_accuracy >= result.mean_radio_accuracy


class TestCli:
    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        for command in ("fig3", "grouping-ablation", "staleness-ablation", "predictors", "dataset"):
            args = parser.parse_args([command] if command != "dataset" else [command, "--output", "x.json"])
            assert args.command == command

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_subcommand_writes_file(self, tmp_path, capsys):
        output = tmp_path / "bundle.json"
        code = main(
            ["dataset", "--output", str(output), "--users", "3", "--videos", "8", "--intervals", "1"]
        )
        assert code == 0
        assert output.exists()
        assert "swipe traces" in capsys.readouterr().out

    def test_fig3_subcommand_prints_tables(self, capsys):
        code = main(
            ["fig3", "--users", "8", "--intervals", "2", "--interval-seconds", "60", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig. 3(a)" in out
        assert "Fig. 3(b)" in out
        assert "mean radio accuracy" in out

    def test_negative_seed_runs_fig3_and_dataset(self, tmp_path, capsys):
        """A negative seed is taken modulo 2**64, as every keyed stream takes it."""
        assert main(["fig3", "--users", "6", "--intervals", "3", "--seed", "-1"]) == 0
        assert "mean radio accuracy" in capsys.readouterr().out
        output = tmp_path / "bundle.json"
        argv = ["dataset", "--output", str(output), "--users", "3", "--videos", "8"]
        assert main(argv + ["--intervals", "1", "--seed", "-1"]) == 0
        assert output.exists()
        assert "swipe traces" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig3", "--users", "0"], "num_users and num_videos must be positive"),
            (["fig3", "--intervals", "0"], "num_intervals must be positive"),
            (["dataset", "--users", "0"], "num_users and num_videos must be positive"),
            (["dataset", "--intervals", "0"], "num_intervals must be at least 1"),
            (["grouping-ablation", "--intervals", "0"], "num_intervals must be positive"),
            (["staleness-ablation", "--intervals", "0"], "num_intervals must be positive"),
            (
                ["predictors", "--intervals", "0"],
                "the predictor comparison needs at least 2 intervals, got 0",
            ),
            (
                ["predictors", "--intervals", "1"],
                "the predictor comparison needs at least 2 intervals, got 1",
            ),
        ],
    )
    def test_bad_value_is_a_one_line_error(self, argv, message, tmp_path, capsys):
        """Each analysis command reports a bad value as ``repro run`` does,
        before running anything (no output file is written)."""
        output = tmp_path / "bundle.json"
        if argv[0] == "dataset":
            argv = argv + ["--output", str(output)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not output.exists()


class TestSimulatorChurn:
    def test_add_user_registers_twin_and_joins_next_interval(self, tiny_simulator):
        before = set(tiny_simulator.user_ids())
        new_id = tiny_simulator.add_user(favourite="News")
        assert new_id not in before
        assert new_id in tiny_simulator.twins
        grouping = singleton_grouping(tiny_simulator.user_ids())
        result = tiny_simulator.run_interval(grouping)
        assert any(new_id in usage.member_ids for usage in result.usage_by_group.values())
        assert tiny_simulator.twins.twin(new_id).watch_records()

    def test_add_user_unknown_favourite_rejected(self, tiny_simulator):
        with pytest.raises(ValueError):
            tiny_simulator.add_user(favourite="Opera")

    def test_remove_user_keeps_twin_by_default(self, tiny_simulator):
        victim = tiny_simulator.user_ids()[0]
        tiny_simulator.remove_user(victim)
        assert victim not in tiny_simulator.users
        assert victim in tiny_simulator.twins
        grouping = singleton_grouping(tiny_simulator.user_ids())
        tiny_simulator.run_interval(grouping)  # still runs without the departed user

    def test_remove_user_can_drop_twin(self, tiny_simulator):
        victim = tiny_simulator.user_ids()[0]
        tiny_simulator.remove_user(victim, keep_twin=False)
        assert victim not in tiny_simulator.twins

    def test_remove_unknown_user_rejected(self, tiny_simulator):
        with pytest.raises(KeyError):
            tiny_simulator.remove_user(12345)
