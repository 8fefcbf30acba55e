"""End-to-end and per-layer benchmark of the NAS search stack.

Run from the repository root::

    python3 e2ebench/run.py --workload train --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of untraced repetitions;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when a check failed and 2
when the program under test cannot be imported.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench_out"

WORKLOAD_NAMES = ("train", "sim", "ambs", "durable")

#: (metric, unit) of every end-to-end metric, in print order
END_TO_END = (("setup_s", "s"), ("evals_per_s", "1/s"), ("wall_s", "s"),
              ("best_reward", "reward"), ("ok_frac", "frac"),
              ("rss_anon_mb", "MiB"))

#: spans reported as self time and call count per traced repetition
SPANS = ("nn.dense.fwd", "nn.dense.bwd", "nn.conv1d.fwd", "nn.conv1d.bwd",
         "nn.maxpool1d.fwd", "nn.maxpool1d.bwd", "nn.merge.fwd",
         "nn.merge.bwd", "nn.flatadam.step", "nn.trainer.fit",
         "rewards.training.eval", "rewards.surrogate.eval",
         "problems.build", "nas.plancache.get_or_compile",
         "nas.plan.materialize", "nas.signature", "rl.ppo.update",
         "rl.policy.sample", "search.exchange.on_gradient",
         "search.ambs.propose", "evaluator.add_eval_batch",
         "evaluator.process.wait", "evaluator.process.shutdown",
         "search.journal.append", "search.checkpoint.save",
         "search.journal.read", "search.journal.build_replay",
         "search.checkpoint.load", "search.setup", "search.run")

#: spans whose per-call distribution is reported: (span, unit, scale)
DISTRIBUTIONS = (("rewards.training.eval", "ms", 1e3),
                 ("rl.ppo.update", "ms", 1e3),
                 ("search.ambs.propose", "ms", 1e3),
                 ("search.journal.append", "us", 1e6))

#: self-time groups whose shares of traced time confirm the workload design
SHARE_GROUPS = {
    "nn": ("nn.",),
    "rewards": ("rewards.",),
    "nas": ("nas.",),
    "rl": ("rl.", "search.exchange."),
    "ambs": ("search.ambs.",),
    "durable_io": ("evaluator.process.", "search.journal.",
                   "search.checkpoint."),
    "evaluator": ("evaluator.add_eval_batch",),
    "runtime": ("search.setup", "search.run", "problems."),
}


def _per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in print order."""
    out = []
    for span in SPANS:
        out += [(f"{span}_ms", "ms"), (f"{span}.calls", "count")]
    for span, unit, _ in DISTRIBUTIONS:
        out += [(f"{span}_p50_{unit}", unit), (f"{span}_tail_{unit}", unit),
                (f"{span}_tail_pct", "pct"), (f"{span}.samples", "count")]
    out += [("search.iteration_p50_ms", "ms"),
            ("search.iteration_tail_ms", "ms"),
            ("search.iteration_tail_pct", "pct"),
            ("search.iteration.samples", "count"),
            ("rewards.valid_frac", "frac"),
            ("nas.plancache.hit_frac", "frac"),
            ("evaluator.cache_hit_frac", "frac"),
            ("evaluator.process.first_result_ms", "ms"),
            ("evaluator.process.worker_spawns", "count"),
            ("evaluator.process.worker_crashes", "count"),
            ("evaluator.process.respawns", "count"),
            ("evaluator.process.inline_evals", "count"),
            ("evaluator.process.worker_rss_anon_mb", "MiB"),
            ("durable.resume_s", "s"),
            ("hpc.balsam.node_utilization", "frac"),
            ("hpc.balsam.jobs_finished", "count"),
            ("trace.overhead_frac", "frac")]
    out += [(f"trace.share.{group}", "frac") for group in SHARE_GROUPS]
    return out


PER_LAYER = tuple(_per_layer_names())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distribution(samples: list[float], scale: float) -> tuple:
    """(p50, tail, tail percentile, sample count) under the rule: report
    the highest percentile with at least ten samples beyond it."""
    from tracer import percentile, tail_percentile
    if not samples:
        return 0.0, 0.0, 0.0, 0
    p = tail_percentile(len(samples))
    tail = percentile(samples, p) * scale if p is not None else 0.0
    return (percentile(samples, 50.0) * scale, tail, p or 0.0,
            len(samples))


def _repeat(fn, seconds: float, min_reps: int, start: float) -> None:
    """Call ``fn`` at least ``min_reps`` times, then again while another
    call (at the median duration so far) still fits in ``seconds``."""
    took: list[float] = []
    while len(took) < min_reps or \
            time.perf_counter() - start + statistics.median(took) <= seconds:
        t0 = time.perf_counter()
        fn()
        took.append(time.perf_counter() - t0)


def _check_same(reps, checks: list) -> None:
    """Every repetition reproduces the first one's per-agent
    (arch, reward) sequences (traced ones included)."""
    ref = reps[0].sequences
    for i, rep in enumerate(reps[1:], start=1):
        for label, seqs in ref.items():
            checks.append((f"{label}.rep{i}.same_sequences",
                           rep.sequences.get(label) == seqs,
                           "per-agent (arch, reward) sequences differ"))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the result object."""
    from calibration import REFERENCE_S, calibrate
    from tracer import NullTracer, Tracer, failed_frac
    from workloads import WORKLOADS, install_spans

    wl = WORKLOADS[name]
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    untraced = NullTracer()
    start = time.perf_counter()
    cal_setup = calibrate()
    setups = wl.setup_samples(seed, untraced, scratch)
    cal_setup = (cal_setup + calibrate()) / 2
    wl.warmup(seed, untraced, scratch)
    reps, traced = [], []
    #: kernel time at each untraced repetition's start and end
    cals = [calibrate()]
    tracer = Tracer()

    def untraced_rep() -> None:
        reps.append(wl.rep(seed, untraced, scratch))
        cals.append(calibrate())

    def pair() -> None:
        reps.append(wl.rep(seed, untraced, scratch))
        install_spans(tracer)
        try:
            traced.append(wl.rep(seed, tracer, scratch))
        finally:
            tracer.restore()
        if tracer.keep_spans:       # keep the first traced timeline only
            OUT.mkdir(exist_ok=True)
            tracer.write_chrome(OUT / f"trace-{name}-seed{seed}.json")
            tracer.keep_spans = False
            tracer.spans.clear()

    _repeat(pair if trace else untraced_rep, seconds, 1 if trace else 2,
            start)

    everyone = reps + traced
    checks = [c for rep in everyone for c in rep.checks]
    _check_same(everyone, checks)
    failed_checks = sum(1 for _, ok, _ in checks if not ok)
    failed_evals = sum(rep.failed_evals for rep in everyone)
    attempted = sum(rep.attempted for rep in everyone) + len(checks)
    if trace:
        metrics = _layer_metrics(tracer, traced, reps)
        slowdown = None
    else:
        # timings are scaled to the reference host speed: k is how much
        # slower than the reference the host ran during each repetition
        slow = [(a + b) / 2 / REFERENCE_S for a, b in zip(cals, cals[1:])]
        slowdown = statistics.median(slow)
        metrics = {
            "setup_s": statistics.median(
                [s / (cal_setup / REFERENCE_S) for s in setups]
                + [r.setup_s / k for r, k in zip(reps, slow)]),
            "evals_per_s": statistics.median(
                r.evals / (r.run_s / k) for r, k in zip(reps, slow)),
            "wall_s": statistics.median(r.wall_s / k
                                        for r, k in zip(reps, slow)),
            "best_reward": statistics.fmean(reps[0].best),
            "ok_frac": 1.0 - failed_frac(failed_evals, failed_checks,
                                         attempted),
            "rss_anon_mb": statistics.median(r.rss_mb for r in reps),
        }
    units = dict(PER_LAYER if trace else END_TO_END)
    return {"correct": failed_checks == 0, "attempted": attempted,
            "failed": failed_evals + failed_checks,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                        for k in units},
            "failures": [(n, d) for n, ok, d in checks if not ok],
            "repetitions": len(everyone),
            "host_slowdown": slowdown}


def _layer_metrics(tracer, traced, untraced) -> dict:
    """Per-layer metrics, each per traced repetition."""
    n = len(traced)
    stats = tracer.stats
    out = {}
    for span in SPANS:
        st = stats.get(span)
        out[f"{span}_ms"] = st.self_time * 1e3 / n if st else 0.0
        out[f"{span}.calls"] = st.calls / n if st else 0.0
    for span, unit, scale in DISTRIBUTIONS:
        st = stats.get(span)
        p50, tail, pct, count = _distribution(
            st.durations if st else [], scale)
        out.update({f"{span}_p50_{unit}": p50, f"{span}_tail_{unit}": tail,
                    f"{span}_tail_pct": pct, f"{span}.samples": count})
    p50, tail, pct, count = _distribution(
        [g for rep in traced for g in rep.gaps], 1e3)
    out.update({"search.iteration_p50_ms": p50,
                "search.iteration_tail_ms": tail,
                "search.iteration_tail_pct": pct,
                "search.iteration.samples": count})
    # counts repeat exactly across repetitions; the two timings among
    # them (first result, resume) come from the untraced repetitions
    c = untraced[0].counters
    out.update({
        "rewards.valid_frac": _ratio(c["valid"], c["records"]),
        "nas.plancache.hit_frac": _ratio(c["plan_hits"], c["plan_lookups"]),
        "evaluator.cache_hit_frac": _ratio(c["eval_cache_hits"],
                                           c["eval_submitted"]),
        "evaluator.process.first_result_ms": c["first_result_s"] * 1e3,
        "evaluator.process.worker_spawns": c["worker_spawns"],
        "evaluator.process.worker_crashes": c["worker_crashes"],
        "evaluator.process.respawns": c["respawns"],
        "evaluator.process.inline_evals": c["inline_evals"],
        "evaluator.process.worker_rss_anon_mb":
            statistics.median(r.worker_rss_mb for r in untraced),
        "durable.resume_s": statistics.median(r.resume_s for r in untraced),
        "hpc.balsam.node_utilization": c["node_utilization"],
        "hpc.balsam.jobs_finished": c["jobs_finished"],
        "trace.overhead_frac":
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced) - 1.0,
    })
    total = sum(st.self_time for st in stats.values())
    for group, prefixes in SHARE_GROUPS.items():
        mine = sum(st.self_time for span, st in stats.items()
                   if span.startswith(prefixes))
        out[f"trace.share.{group}"] = _ratio(mine, total)
    return out


def _print_human(name: str, res: dict) -> None:
    for key, m in res["metrics"].items():
        print(f"{name:8s} {key:44s} {m['value']:14.6g} {m['unit']}")
    for check, detail in res["failures"]:
        print(f"{name:8s} CHECK FAILED {check}: {detail}")
    print(f"{name:8s} correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} repetitions={res['repetitions']}")
    if res["host_slowdown"] is not None:
        print(f"{name:8s} host ran {res['host_slowdown']:.3f}x the reference "
              f"calibration time; end-to-end timings are scaled by it")


def _reap_children() -> None:
    """Wait for every process this run started.  Worker pools join their
    workers on shutdown; multiprocessing's resource tracker, which the
    first worker pool starts, would otherwise outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    gc.collect()        # release queues so the tracker has nothing left
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {src}",
              file=sys.stderr)
        return 2
    # one BLAS thread per process: this process and its (at most two)
    # workers then fit two cores, and spin-waiting BLAS threads stop
    # adding their own noise.  Set before numpy is first imported;
    # spawned workers inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace))
            _print_human(name, results[name])
    finally:
        _reap_children()
    if len(names) == 1:
        res = results[names[0]]
        summary = {k: res[k] for k in ("correct", "attempted", "failed",
                                       "metrics")}
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": m for name, r in results.items()
                        for k, m in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
