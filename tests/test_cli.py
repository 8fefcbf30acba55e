"""Tests for the command-line interface."""

import argparse
import inspect

import pytest

from repro import cli
from repro.bench.cli import build_parser as build_bench_parser
from repro.bench.sweep import SweepConfig
from repro.cli import build_parser, main
from repro.evaluator import BACKENDS, HOST_BACKENDS
from repro.search import SearchConfig
from repro.search.chaos import crashpoint_matrix


def _option_choices(parser, command, dest):
    """The ``choices`` of one subcommand option, as a set."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions
                  if a.dest == dest)
    return set(action.choices)


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

    def test_backend_choices_are_the_one_backend_constant(self):
        """Every ``--backend`` flag, config validator and default reads
        the backend names declared once in ``repro.evaluator``."""
        assert _option_choices(build_parser(), "search", "backend") \
            == set(BACKENDS)
        assert _option_choices(build_bench_parser(), "sweep", "backend") \
            == set(HOST_BACKENDS) == set(BACKENDS) - {"balsam"}
        default = inspect.signature(crashpoint_matrix) \
            .parameters["backends"].default
        assert default == HOST_BACKENDS
        assert BACKENDS == ("balsam", "serial", "process")
        for name in BACKENDS:
            SearchConfig(backend=name, max_iterations=1)
        for name in HOST_BACKENDS:
            SweepConfig(backend=name)
        for bad in ("gpu", "balsam"):
            with pytest.raises(ValueError):
                SweepConfig(backend=bad)
        with pytest.raises(ValueError):
            SearchConfig(backend="gpu", max_iterations=1)


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
