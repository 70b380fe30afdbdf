"""Tests for the experiment CLI."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for cmd in ("capacity", "fig1", "fig9", "deployment", "scenarios",
                    "ablations", "multihop", "sosr", "churn", "all"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_perf_command_is_gone(self):
        # Host wall time and memory are measured by bench/, not the CLI.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf"])

    def test_nodes_alias_and_rate(self):
        args = build_parser().parse_args(
            ["churn", "--nodes", "64", "--rate", "0.05", "--seed", "1"]
        )
        assert args.n == 64 and args.rate == 0.05 and args.seed == 1

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_options(self):
        args = build_parser().parse_args(
            ["fig9", "--n", "36", "--duration", "60", "--seed", "7"]
        )
        assert args.n == 36 and args.duration == 60.0 and args.seed == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig1", "--n", "0"],
            ["fig1", "--n", "1"],
            ["churn", "--n", "8", "--rate", "0"],
            ["churn", "--rate", "-0.05"],
            ["fig9", "--duration", "0"],
            ["fig9", "--duration", "nan"],
        ],
    )
    def test_invalid_size_rate_or_duration_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --" in capsys.readouterr().err

    def test_smallest_overlay_is_accepted(self):
        args = build_parser().parse_args(["fig1", "--n", "2", "--rate", "1e-3"])
        assert args.n == 2 and args.rate == 1e-3

    def test_in_band_flag(self):
        args = build_parser().parse_args(["membership", "--in-band", "--smoke"])
        assert args.in_band and args.smoke
        assert not build_parser().parse_args(["membership"]).in_band


class TestCommands:
    def test_capacity_prints_headlines(self, capsys):
        assert main(["capacity"]) == 0
        out = capsys.readouterr().out
        assert "165" in out
        assert "49.07" in out

    def test_fig1_small(self, capsys):
        assert main(["fig1", "--n", "120"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "best_one_hop" in out

    def test_scenarios_small(self, capsys):
        assert main(["scenarios", "--n", "25"]) == 0
        out = capsys.readouterr().out
        assert "scenario-1" in out

    def test_multihop_small(self, capsys):
        assert main(["multihop", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "multi-hop" in out

    def test_out_dir_writes_files(self, tmp_path, capsys):
        assert main(["capacity", "--out", str(tmp_path)]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert "table_capacity.txt" in written
        assert "table_config.txt" in written

    def test_deployment_small(self, tmp_path, capsys):
        assert main(
            ["deployment", "--n", "25", "--duration", "120", "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "Figure 12" in out
        # Every table lands under its published name.
        written = {p.name for p in tmp_path.iterdir()}
        published = {p.name for p in (REPO_ROOT / "results").iterdir()}
        assert len(written) == 6
        assert written <= published, sorted(written - published)

    def test_adversarial_small(self, capsys):
        assert main(["adversarial", "--n", "25", "--duration", "120"]) == 0
        out = capsys.readouterr().out
        assert "adversarial" in out

    def test_sosr_small(self, capsys):
        assert main(["sosr", "--n", "60"]) == 0
        out = capsys.readouterr().out
        assert "Availability" in out

    def test_churn_small(self, tmp_path, capsys):
        assert main(
            ["churn", "--nodes", "20", "--duration", "150", "--seed", "3",
             "--out", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Churn comparison" in out
        assert "Mass failure" in out
        assert "Flash crowd" in out
        written = {p.name for p in tmp_path.iterdir()}
        assert "table_churn_comparison.txt" in written
        assert "table_churn_mass_failure.txt" in written
