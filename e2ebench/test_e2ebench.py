"""Unit tests of the benchmark's own logic, on synthetic data, plus two
subprocess runs of ``run.py`` (spawn safety, and refusal to run without
the program).  Run from the repository root::

    python3 -m pytest e2ebench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import (METRIC_NAME, Tracer, failed_frac,  # noqa: E402
                    percentile, tail_percentile)


class ScriptedClock:
    """Returns the given timestamps in order, one per call."""

    def __init__(self, *stamps):
        self.stamps = list(stamps)

    def __call__(self):
        return self.stamps.pop(0)


class TestPercentileRule:
    @pytest.mark.parametrize("n, expected", [
        (10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0),
        (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
        (0, None)])
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_linear_interpolation(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        assert percentile(xs, 50.0) == 2.5
        assert percentile(xs, 0.0) == 1.0
        assert percentile(xs, 100.0) == 4.0
        assert percentile(xs, 90.0) == pytest.approx(3.7)

    def test_distribution_reports_the_rule(self):
        samples = [float(i) for i in range(1, 101)]     # 100 samples
        p50, tail, pct, count = run._distribution(samples, 1.0)
        assert (pct, count) == (90.0, 100)
        assert p50 == 50.5 and tail == pytest.approx(90.1)
        assert run._distribution(samples[:19], 1.0)[1:3] == (0.0, 0.0)


class TestSelfTime:
    def test_nested_spans_subtract_direct_children(self):
        # a [0, 10] holds b [1, 3] and c [4, 5]; c holds d [4.5, 4.75]
        tracer = Tracer(clock=ScriptedClock(0, 1, 3, 4, 4.5, 4.75, 5, 10))
        tracer.enter("a")
        tracer.enter("b")
        tracer.exit()
        tracer.enter("c")
        tracer.enter("d")
        tracer.exit()
        tracer.exit()
        tracer.exit()
        self_time = {k: st.self_time for k, st in tracer.stats.items()}
        assert self_time == {"a": 7.0, "b": 2.0, "c": 0.75, "d": 0.25}
        assert tracer.stats["a"].total == 10.0
        assert sum(self_time.values()) == tracer.stats["a"].total

    def test_same_name_spans_aggregate(self):
        tracer = Tracer(clock=ScriptedClock(0, 1, 2, 5))
        for _ in range(2):
            with tracer.span("x"):
                pass
        st = tracer.stats["x"]
        assert (st.calls, st.total, st.durations) == (2, 4.0, [1, 3])

    def test_patch_wraps_and_restore_puts_back(self):
        class Layer:
            def forward(self, x):
                return x + 1

        original = Layer.__dict__["forward"]
        tracer = Tracer()
        tracer.patch(Layer, "forward", "layer.fwd")
        assert Layer().forward(1) == 2
        assert tracer.stats["layer.fwd"].calls == 1
        tracer.restore()
        assert Layer.__dict__["forward"] is original

    def test_generator_is_timed_only_while_running(self):
        clock = ScriptedClock(0, 1, 10, 12)

        class Exchange:
            def on_gradient(self):
                got = yield "push"
                return got * 2

        tracer = Tracer(clock=clock)
        tracer.patch(Exchange, "on_gradient", "exchange")
        gen = Exchange().on_gradient()
        assert next(gen) == "push"             # slice [0, 1]
        with pytest.raises(StopIteration) as stop:
            gen.send(21)                       # suspended 1..10, slice [10, 12]
        assert stop.value.value == 42
        st = tracer.stats["exchange"]
        assert (st.calls, st.self_time) == (2, 3)


class TestFailedFrac:
    def test_counts_failed_evals_and_failed_checks(self):
        assert failed_frac(2, 1, 30) == pytest.approx(0.1)
        assert failed_frac(0, 0, 5) == 0.0

    def test_nothing_attempted_is_an_error(self):
        with pytest.raises(ValueError):
            failed_frac(0, 0, 0)


class TestMetricNames:
    @pytest.mark.parametrize("name", ["evals_per_s", "nn.dense.fwd_ms",
                                      "search.journal.append_p50_us",
                                      "a-b.c_1"])
    def test_accepts_charset(self, name):
        assert METRIC_NAME.fullmatch(name)

    @pytest.mark.parametrize("name", ["", ".leading", "has space",
                                      "per/s", "ms%", "x" * 65, "naïve",
                                      "trailing\n"])
    def test_rejects_outside_charset(self, name):
        assert not METRIC_NAME.fullmatch(name)

    def test_every_printed_name_is_valid_and_unique(self):
        names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
        assert all(METRIC_NAME.fullmatch(n) for n in names)
        assert len(names) == len(set(names))

    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
            == list(run.END_TO_END)
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
            == list(run.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] \
            == list(run.WORKLOAD_NAMES)


def _run_py(args, cwd):
    return subprocess.run([sys.executable, "e2ebench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run_py(["--workload", "sim", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_durable_workers_never_crash_respawn_or_fall_back():
    """Spawned workers re-import ``run.py`` as ``__mp_main__``;
    every side effect of it sits under its ``__main__`` guard,
    so no worker re-runs the benchmark and none crashes."""
    out = _run_py(["--workload", "durable", "--seed", "3", "--seconds", "1",
                   "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert res["correct"] and res["failed"] == 0
    assert m["evaluator.process.worker_spawns"] == 4   # 2 agents x 2 launches
    for key in ("worker_crashes", "respawns", "inline_evals"):
        assert m[f"evaluator.process.{key}"] == 0


def _session_members(sid: int) -> list[int]:
    """PIDs (zombies included) whose session id is ``sid``."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:     # exited while being read
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            out.append(int(entry.name))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
def test_durable_leaves_no_process_behind():
    """The worker pool and multiprocessing's resource tracker are all
    waited for before the benchmark exits."""
    proc = subprocess.Popen(
        [sys.executable, "e2ebench/run.py", "--workload", "durable",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=180) == 0
    assert _session_members(proc.pid) == []
