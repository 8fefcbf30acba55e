"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.problem == "combo"
        assert args.method == "a3c"
        assert args.nodes == 256

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--method", "dqn"])


class TestCommands:
    def test_spaces(self, capsys):
        assert main(["spaces"]) == 0
        out = capsys.readouterr().out
        assert "combo-small" in out and "2.0968e+14" in out

    def test_baselines(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "13,772,001" in out and "19,274,001" in out

    def test_search_analyze_posttrain_pipeline(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        assert main(["search", "--problem", "combo", "--method", "rdm",
                     "--minutes", "15", "--output", str(log)]) == 0
        assert log.exists()
        assert main(["analyze", str(log), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "unique architectures" in out
        assert main(["posttrain", str(log), "--top", "2",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "acc_ratio" in out

    def test_nt3_large_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--problem", "nt3", "--size", "large",
                  "--minutes", "5"])

    def test_preempt_requires_journal_dir(self):
        with pytest.raises(SystemExit, match="--journal-dir"):
            main(["search", "--preempt", "--minutes", "5"])

    def test_fresh_run_into_used_journal_dir_exits_cleanly(self, tmp_path):
        argv = ["search", "--backend", "serial", "--iterations", "1",
                "--journal-dir", str(tmp_path / "journal")]
        assert main(argv) == 0
        with pytest.raises(SystemExit, match="--resume-durable"):
            main(argv)

    def test_preempt_points_to_resume_durable(self, tmp_path, capsys,
                                              monkeypatch):
        class PreemptedAtStart(cli.NasSearch):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.request_preemption("test")

        monkeypatch.setattr(cli, "NasSearch", PreemptedAtStart)
        argv = ["search", "--method", "rdm", "--minutes", "5",
                "--journal-dir", str(tmp_path / "journal")]
        assert main(argv + ["--preempt"]) == 0
        out = capsys.readouterr().out
        assert "preempted" in out and "--resume-durable" in out
        assert main(argv + ["--resume-durable"]) == 0
        assert "preempted" not in capsys.readouterr().out

    def test_figure_command_validates_choice(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_parser_accepts_known_figures(self):
        args = build_parser().parse_args(["figure", "fig4", "--problem",
                                          "nt3"])
        assert args.figure == "fig4" and args.problem == "nt3"
