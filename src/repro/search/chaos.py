"""Chaos harness: fault-matrix smoke of the fault-tolerant pipeline.

``make chaos`` / ``repro-chaos`` runs the same seeded NAS search under a
matrix of fault levels — none, light, moderate, heavy — and checks the
robustness invariants the fault layer promises:

* every run **completes** (no agent lost to a deadlocked barrier; the
  batch deadline and Balsam retry policy always release it);
* failures are **accounted for**, not silently dropped (failed
  evaluations surface as the paper's −1 failure reward);
* the search **degrades gracefully**: the best discovered reward stays
  within a small tolerance of the fault-free run's, because Balsam
  restarts failed tasks and the agents keep searching (§4's "tracks job
  states and restarts failed tasks").

The fault-free row doubles as a canary: it must behave bit-identically
to a search with no fault layer at all.

A second profile (``--profile numeric``) exercises the *numerical*
health layer (:mod:`repro.health`): NaN-poisoned gradients, exploding
update directions, and corrupt exchange deltas are injected into a3c and
a2c searches running under guard-mode ``recover``, and the harness
checks that the search heals — at least one policy rollback and one
agent resurrection occur, no agent is permanently lost below the restart
cap, and the best discovered reward stays finite.

Run via ``make chaos`` or::

    PYTHONPATH=src python -m repro.search.chaos --minutes 45
    PYTHONPATH=src python -m repro.search.chaos --profile numeric
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..events import EVAL_DONE
from ..evaluator import HOST_BACKENDS
from ..health import GuardConfig
from ..hpc import NodeAllocation, TrainingCostModel
from ..hpc.faults import FaultConfig
from ..nas.arch import Architecture
from ..nas.spaces import combo_small
from ..problems.combo import COMBO_PAPER_SHAPES, combo_head
from ..rewards import SurrogateReward
from ..rewards.base import EvalResult, RewardModel
from .base import SearchConfig
from .journal import JOURNAL_NAME, read_journal, resume_durable
from .methods import SEARCH_METHODS
from .runner import NasSearch

__all__ = ["ChaosEvalModel", "CountingRewardModel", "fault_levels",
           "fault_matrix", "check_rows", "numeric_matrix",
           "check_numeric_rows", "proc_matrix", "check_proc_rows",
           "crashpoint_child", "crashpoint_matrix",
           "check_crashpoint_rows", "main"]

#: default chaos allocation: small enough to run in seconds, large
#: enough that node failures hit busy pilots
_ALLOCATION = NodeAllocation(32, 4, 3)


@dataclass
class ChaosEvalModel(RewardModel):
    """A reward model that really crashes, hangs, or stalls.

    Wraps an inner model and, per architecture, draws a deterministic
    fault: ``crash_frac`` of architectures hard-kill their worker with
    ``os._exit`` (a real segfault-equivalent no ``except`` can catch),
    ``hang_frac`` sleep past any reasonable deadline, and the rest
    optionally stall ``eval_seconds`` before answering (deterministic
    stragglers for lifecycle tests).  The draw is keyed by
    ``(seed, arch.key)`` only — the *same* architecture faults the same
    way on every attempt in every process, which is exactly what makes
    it a poison job the quarantine must catch.

    The class lives here (an importable ``src`` module, not a test
    file) because ``spawn``-context workers must re-import it by module
    path when the pickled model arrives in the child.
    """

    inner: RewardModel
    crash_frac: float = 0.0
    hang_frac: float = 0.0
    hang_seconds: float = 3600.0
    eval_seconds: float = 0.0
    seed: int = 0
    #: exit code of injected crashes (visible in WORKER_CRASH causes)
    crash_exit_code: int = 23

    def _draw(self, arch: Architecture) -> float:
        return zlib.crc32(repr((self.seed, arch.key)).encode()) / 2.0 ** 32

    def fault_kind(self, arch: Architecture) -> str:
        """What this architecture will do: crash | hang | ok."""
        u = self._draw(arch)
        if u < self.crash_frac:
            return "crash"
        if u < self.crash_frac + self.hang_frac:
            return "hang"
        return "ok"

    def evaluate(self, arch: Architecture, agent_seed: int = 0) -> EvalResult:
        kind = self.fault_kind(arch)
        if kind == "crash":
            os._exit(self.crash_exit_code)
        if kind == "hang":
            time.sleep(self.hang_seconds)
        if self.eval_seconds > 0:
            time.sleep(self.eval_seconds)
        return self.inner.evaluate(arch, agent_seed=agent_seed)


@dataclass
class CountingRewardModel(RewardModel):
    """Counts real ``evaluate`` calls (module-level so ``spawn``-context
    workers can unpickle it).  The crash-point fuzzer wraps the resumed
    run's reward model with it: any journal-covered evaluation that
    sneaks past the replay layer and re-executes bumps the count."""

    inner: RewardModel
    calls: int = 0

    def evaluate(self, arch: Architecture, agent_seed: int = 0) -> EvalResult:
        self.calls += 1
        return self.inner.evaluate(arch, agent_seed=agent_seed)


def fault_levels(minutes: float, seed: int) -> list[tuple[str,
                                                          FaultConfig | None]]:
    """The fault matrix: (name, config) rows, fault-free first.

    Rates scale with the run length so every faulted level actually
    fires: "light" sees a few node failures, "heavy" adds frequent
    failures, job crashes, stragglers, and a mid-run service outage.
    """
    span = minutes * 60.0
    return [
        ("none", None),
        ("light", FaultConfig(node_mtbf=4.0 * span,
                              node_repair_time=span / 10.0,
                              job_crash_prob=0.01, seed=seed)),
        ("moderate", FaultConfig(node_mtbf=2.0 * span,
                                 node_repair_time=span / 10.0,
                                 job_crash_prob=0.02,
                                 straggler_prob=0.05, seed=seed)),
        ("heavy", FaultConfig(node_mtbf=span,
                              node_repair_time=span / 8.0,
                              job_crash_prob=0.05,
                              straggler_prob=0.10,
                              outages=((0.45 * span, 0.55 * span),),
                              seed=seed)),
    ]


def fault_matrix(minutes: float = 45.0, seed: int = 1,
                 method: str = "a3c",
                 levels: tuple[str, ...] | None = None) -> list[dict]:
    """Run the matrix; returns one result row per fault level.

    ``levels`` restricts the run to a subset of the matrix (the
    fault-free ``"none"`` row is the comparison baseline and should be
    included); ``None`` runs every level.
    """
    space = combo_small()
    rows = []
    for name, faults in fault_levels(minutes, seed):
        if levels is not None and name not in levels:
            continue
        reward_model = SurrogateReward(
            space, COMBO_PAPER_SHAPES, combo_head(),
            TrainingCostModel.combo_paper(),
            epochs=1, train_fraction=0.1, timeout=600.0,
            log_params_opt=6.5, seed=7)
        cfg = SearchConfig(
            method=method, allocation=_ALLOCATION,
            wall_time=minutes * 60.0, seed=seed,
            faults=faults,
            batch_deadline=(None if faults is None else minutes * 60.0 / 4))
        search = NasSearch(space, reward_model, cfg)
        result = search.run()
        rows.append({
            "level": name,
            "evaluations": result.num_evaluations,
            "best_reward": (result.best().reward
                            if result.records else float("-inf")),
            "failed_evals": result.num_failed_evals,
            "failed_agents": len(result.failed_agents),
            "node_failures": search.cluster.num_failures,
            "job_restarts": search.service.num_restarts,
            "mean_utilization": search.cluster.mean_utilization(
                result.end_time),
            "end_time": result.end_time,
        })
    return rows


def check_rows(rows: list[dict], tolerance: float = 0.05) -> list[str]:
    """Robustness invariants over a fault-matrix result; returns the
    list of violations (empty = pass)."""
    problems = []
    baseline = rows[0]
    for row in rows:
        if row["failed_agents"]:
            problems.append(
                f"{row['level']}: {row['failed_agents']} agent(s) lost")
        if row["evaluations"] == 0:
            problems.append(f"{row['level']}: produced no evaluations")
    for row in rows[1:]:
        drop = baseline["best_reward"] - row["best_reward"]
        if drop > tolerance * abs(baseline["best_reward"]):
            problems.append(
                f"{row['level']}: best reward degraded by {drop:.4f} "
                f"(> {tolerance:.0%} of fault-free "
                f"{baseline['best_reward']:.4f})")
    return problems


def numeric_matrix(minutes: float = 40.0, seed: int = 1,
                   methods: tuple[str, ...] = ("a3c", "a2c"),
                   max_restarts: int = 3) -> list[dict]:
    """Numerical-chaos profile: one row per PPO method.

    Each run injects NaN gradients, exploding updates, and corrupt
    exchange deltas while the health layer runs in ``recover`` mode —
    rollback first, resurrection when the rollback budget is spent.
    """
    space = combo_small()
    faults = FaultConfig(nan_grad_prob=0.05, exploding_loss_prob=0.02,
                         corrupt_delta_prob=0.05, seed=seed + 2)
    rows = []
    for method in methods:
        reward_model = SurrogateReward(
            space, COMBO_PAPER_SHAPES, combo_head(),
            TrainingCostModel.combo_paper(),
            epochs=1, train_fraction=0.1, timeout=600.0,
            log_params_opt=6.5, seed=7)
        cfg = SearchConfig(
            method=method, allocation=_ALLOCATION,
            wall_time=minutes * 60.0, seed=seed,
            faults=faults, guard=GuardConfig(mode="recover"),
            max_restarts=max_restarts)
        search = NasSearch(space, reward_model, cfg)
        result = search.run()
        best = (result.best().reward if result.records else float("nan"))
        rows.append({
            "level": f"numeric/{method}",
            "evaluations": result.num_evaluations,
            "best_reward": best,
            "rollbacks": result.num_rollbacks,
            "restarts": result.num_restarts,
            "failed_agents": len(result.failed_agents),
            "numeric_faults": (search.injector.num_numeric_faults
                               if search.injector else 0),
            "rejected_deltas": (search.ps.num_rejected_deltas
                                if search.ps is not None
                                and hasattr(search.ps,
                                            "num_rejected_deltas") else 0),
            "end_time": result.end_time,
        })
    return rows


def check_numeric_rows(rows: list[dict]) -> list[str]:
    """Health-layer invariants over the numeric profile; returns the
    list of violations (empty = pass)."""
    problems = []
    for row in rows:
        level = row["level"]
        if row["evaluations"] == 0:
            problems.append(f"{level}: produced no evaluations")
        best = row["best_reward"]
        if not (best == best and abs(best) != float("inf")):
            problems.append(f"{level}: best reward not finite ({best!r})")
        if row["numeric_faults"] == 0:
            problems.append(f"{level}: no numeric faults fired — the "
                            f"profile tested nothing")
        if row["rollbacks"] == 0:
            problems.append(f"{level}: guards never rolled a policy back")
        if row["restarts"] == 0:
            problems.append(f"{level}: no agent was resurrected")
        if row["failed_agents"]:
            problems.append(
                f"{level}: {row['failed_agents']} agent(s) permanently "
                f"lost below the restart cap")
    return problems


def proc_matrix(seed: int = 1, iterations: int = 3,
                kill_interval: float = 0.4, max_kills: int = 4,
                methods: tuple[str, ...] = ("a3c",)) -> list[dict]:
    """Real-fault chaos over the supervised process backend.

    Each row runs a small search with ``backend="process"`` against a
    :class:`ChaosEvalModel` whose architectures really crash
    (``os._exit``) and really hang, while a killer thread SIGKILLs live
    worker processes mid-evaluation.  The supervision layer must absorb
    all of it: crashed/hung workers are respawned, their jobs retried,
    poison architectures quarantined to the failure reward, and the
    search completes with supervision counters surfaced in
    ``SearchResult.worker_stats`` and WORKER_* events in the stream.

    Determinism note: rewards are pure functions of the architecture,
    so retries — however the killer interleaves with them — return the
    same values and the sampled trajectory stays seed-deterministic.
    """
    from ..evaluator.process import ProcConfig, ProcessEvaluator
    from ..events import (QUARANTINE, WORKER_CRASH, WORKER_RESPAWN,
                          WORKER_SPAWN, RecordingSink)

    space = combo_small()
    rows = []
    for method in methods:
        inner = SurrogateReward(
            space, COMBO_PAPER_SHAPES, combo_head(),
            TrainingCostModel.combo_paper(),
            epochs=1, train_fraction=0.1, timeout=600.0,
            log_params_opt=6.5, seed=7)
        model = ChaosEvalModel(inner, crash_frac=0.10, hang_frac=0.08,
                               hang_seconds=30.0, eval_seconds=0.05,
                               seed=seed)
        # generous respawn budget: quarantine (2 distinct kills) must
        # always fire before the pool can exhaust, because the inline
        # fallback must never execute a not-yet-quarantined poison job
        # in the parent process
        cfg = SearchConfig(
            method=method, allocation=NodeAllocation(10, 2, 3),
            wall_time=3600.0, seed=seed, backend="process",
            max_iterations=iterations,
            proc=ProcConfig(workers=2, job_deadline=1.0,
                            heartbeat_interval=0.1,
                            retry_backoff=0.02, max_respawns=50))
        sink = RecordingSink()
        search = NasSearch(space, model, cfg, event_sink=sink)

        stop = threading.Event()
        kills = [0]

        def killer(search=search, stop=stop, kills=kills):
            while not stop.is_set() and kills[0] < max_kills:
                stop.wait(kill_interval)
                pids = [pid for ev in search.evaluators
                        if isinstance(ev, ProcessEvaluator)
                        for pid in ev.worker_pids()]
                if not pids:
                    continue
                try:
                    os.kill(pids[kills[0] % len(pids)], signal.SIGKILL)
                    kills[0] += 1
                except OSError:
                    pass    # worker exited between listing and kill

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        try:
            result = search.run()
        finally:
            stop.set()
            thread.join(5.0)
        stats = result.worker_stats
        kinds = set(sink.kinds())
        rows.append({
            "level": f"proc/{method}",
            "evaluations": result.num_evaluations,
            "best_reward": (result.best().reward
                            if result.records else float("-inf")),
            "failed_evals": result.num_failed_evals,
            "failed_agents": len(result.failed_agents),
            "external_kills": kills[0],
            "worker_crashes": stats.get("worker_crashes", 0),
            "worker_timeouts": stats.get("worker_timeouts", 0),
            "respawns": stats.get("respawns", 0),
            "quarantined": stats.get("quarantined", 0),
            "inline_evals": stats.get("inline_evals", 0),
            "events_ok": ({WORKER_SPAWN, WORKER_CRASH, WORKER_RESPAWN,
                           QUARANTINE} <= kinds),
        })
    return rows


def check_proc_rows(rows: list[dict]) -> list[str]:
    """Supervision invariants over the proc profile; returns the list
    of violations (empty = pass)."""
    problems = []
    for row in rows:
        level = row["level"]
        if row["evaluations"] == 0:
            problems.append(f"{level}: produced no evaluations")
        if row["failed_agents"]:
            problems.append(
                f"{level}: {row['failed_agents']} agent(s) lost")
        if row["worker_crashes"] + row["worker_timeouts"] == 0:
            problems.append(f"{level}: no worker was ever killed — the "
                            f"profile tested nothing")
        if row["respawns"] == 0:
            problems.append(f"{level}: no worker was respawned")
        if row["quarantined"] == 0:
            problems.append(f"{level}: no architecture was quarantined")
        if not row["events_ok"]:
            problems.append(f"{level}: WORKER_*/QUARANTINE events missing "
                            f"from the stream")
    return problems


# ----------------------------------------------------------------------
# crash-point fuzzing (write-ahead journal durability)
# ----------------------------------------------------------------------
def crashpoint_child(journal_dir, method: str = "a3c",
                     backend: str = "serial", seed: int = 3,
                     iterations: int = 4, throttle: float = 0.0,
                     count: bool = False):
    """One durable search over ``journal_dir`` — first launch and every
    relaunch alike (it goes through
    :func:`~repro.search.journal.resume_durable`).

    This is both the subprocess entry the fuzzer SIGKILLs (``throttle``
    stalls each evaluation so the parent can aim between journal
    records; the stall never touches rewards or modeled durations, so
    fingerprints are unaffected) and the in-parent resume path
    (``count=True`` wraps the reward model in
    :class:`CountingRewardModel`).  Returns ``(result, search,
    counter)``.
    """
    space = combo_small()
    model: RewardModel = SurrogateReward(
        space, COMBO_PAPER_SHAPES, combo_head(),
        TrainingCostModel.combo_paper(),
        epochs=1, train_fraction=0.1, timeout=600.0,
        log_params_opt=6.5, seed=7)
    if throttle > 0:
        model = ChaosEvalModel(model, eval_seconds=throttle, seed=seed)
    counter = None
    if count:
        model = counter = CountingRewardModel(model)
    proc = None
    if backend == "process":
        from ..evaluator.process import ProcConfig
        proc = ProcConfig(workers=2)
    cfg = SearchConfig(
        method=method, allocation=NodeAllocation(10, 2, 3),
        wall_time=3600.0, seed=seed, backend=backend,
        max_iterations=iterations, proc=proc,
        journal_dir=os.fspath(journal_dir), checkpoint_every_records=6)
    search = resume_durable(space, model, cfg)
    result = search.run()
    return result, search, counter


def _journal_real_evals(journal_dir) -> int:
    """Real executions recorded in the journal: ``eval-done`` records
    that are neither cache hits (those emit ``cache-hit``) nor replay
    re-emissions (``replayed=True``)."""
    path = Path(journal_dir) / JOURNAL_NAME
    if not path.exists():
        return 0
    return sum(1 for e in read_journal(path)
               if e.kind == EVAL_DONE and "arch" in e.payload
               and not e.payload.get("replayed"))


def _spawn_and_kill_at(journal_dir, k: int, method: str, backend: str,
                       seed: int, iterations: int, throttle: float,
                       timeout: float = 180.0) -> bool:
    """Launch a durable search subprocess and SIGKILL its whole process
    group once the journal holds >= ``k`` records.

    ``start_new_session`` + ``killpg`` take down the search head *and*
    any spawn-context pool workers in one shot — the moral equivalent of
    losing the node, and the only way a process-backend child dies
    without leaving orphans blocked on their task queue.  Returns True
    when the kill landed, False when the child finished first (a valid
    fuzz outcome near the end of the journal: the resume is asserted
    either way).
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    code = ("from repro.search.chaos import crashpoint_child; "
            f"crashpoint_child({os.fspath(journal_dir)!r}, {method!r}, "
            f"{backend!r}, {seed}, {iterations}, {throttle})")
    child = subprocess.Popen([sys.executable, "-c", code], env=env,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL,
                             start_new_session=True)
    journal_path = Path(journal_dir) / JOURNAL_NAME
    deadline = time.monotonic() + timeout
    killed = False
    try:
        while time.monotonic() < deadline:
            if child.poll() is not None:
                return False        # finished before record k
            try:
                records = journal_path.read_bytes().count(b"\n")
            except OSError:
                records = 0
            if records >= k:
                killed = True
                break
            time.sleep(0.01)
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except OSError:
            pass                    # group already gone
        return killed
    finally:
        child.wait()


def crashpoint_matrix(seed: int = 3, iterations: int = 4, points: int = 3,
                      methods: tuple[str, ...] = ("a3c", "a2c", "rdm"),
                      backends: tuple[str, ...] = HOST_BACKENDS,
                      throttle: float = 0.05) -> list[dict]:
    """SIGKILL-anywhere fuzzing of the write-ahead journal: one row per
    (method, backend) cell.

    Per cell: run the search uninterrupted once (the baseline journal
    gives the total record count, the real-execution count, and the
    reference fingerprint), pick ``points`` stratified kill indices over
    the record range, and for each index run a fresh subprocess, SIGKILL
    its process group at that journal record, resume in-process, and
    check the two durability promises — the resumed fingerprint is
    bit-identical to the uninterrupted run's, and the total number of
    real reward-model executions across crashed run + resume equals the
    uninterrupted run's (zero re-evaluation).
    """
    rows = []
    for method in methods:
        for backend in backends:
            base_dir = tempfile.mkdtemp(prefix="crashpoint-base-")
            try:
                base_result, _search, base_counter = crashpoint_child(
                    base_dir, method, backend, seed, iterations, count=True)
                base_fp = base_result.fingerprint()
                base_real = _journal_real_evals(base_dir)
                journal_path = Path(base_dir) / JOURNAL_NAME
                total = journal_path.read_bytes().count(b"\n")
            finally:
                shutil.rmtree(base_dir, ignore_errors=True)
            kill_points = sorted({max(1, total * i // (points + 1))
                                  for i in range(1, points + 1)})
            row = {"level": f"crashpoint/{method}/{backend}",
                   "journal_records": total, "baseline_evals": base_real,
                   "kill_points": kill_points, "kills_landed": 0,
                   "replay_loaded": 0, "fingerprint_mismatches": 0,
                   "reevaluations": 0, "replay_leftover": 0,
                   "direct_reexec": 0}
            for k in kill_points:
                crash_dir = tempfile.mkdtemp(prefix="crashpoint-")
                try:
                    landed = _spawn_and_kill_at(
                        crash_dir, k, method, backend, seed, iterations,
                        throttle)
                    row["kills_landed"] += int(landed)
                    real_at_kill = _journal_real_evals(crash_dir)
                    result, search, counter = crashpoint_child(
                        crash_dir, method, backend, seed, iterations,
                        count=True)
                    row["replay_loaded"] += search.num_replay_loaded
                    if result.fingerprint() != base_fp:
                        row["fingerprint_mismatches"] += 1
                    # zero re-evaluation, from the journal itself: real
                    # executions across dead run + resume must equal the
                    # uninterrupted run's (works for every backend — the
                    # broker journals eval-done in the search head)
                    row["reevaluations"] += max(
                        0, _journal_real_evals(crash_dir) - base_real)
                    # every armed replay entry must have been consumed
                    row["replay_leftover"] += sum(
                        ev.replay_pending() for ev in search.evaluators)
                    if counter is not None and backend != "process":
                        # in-process backends: the resumed run's direct
                        # call count must be exactly the journal deficit
                        row["direct_reexec"] += max(
                            0, counter.calls - (base_real - real_at_kill))
                finally:
                    shutil.rmtree(crash_dir, ignore_errors=True)
            rows.append(row)
    return rows


def check_crashpoint_rows(rows: list[dict]) -> list[str]:
    """Durability invariants over the crash-point profile; returns the
    list of violations (empty = pass)."""
    problems = []
    for row in rows:
        level = row["level"]
        if row["fingerprint_mismatches"]:
            problems.append(
                f"{level}: {row['fingerprint_mismatches']} resumed run(s) "
                f"diverged from the uninterrupted fingerprint")
        if row["reevaluations"]:
            problems.append(
                f"{level}: {row['reevaluations']} journaled evaluation(s) "
                f"were re-executed after resume")
        if row["direct_reexec"]:
            problems.append(
                f"{level}: reward model re-invoked "
                f"{row['direct_reexec']} time(s) beyond the journal "
                f"deficit")
        if row["replay_leftover"]:
            problems.append(
                f"{level}: {row['replay_leftover']} armed replay "
                f"entr(y/ies) never consumed")
        if row["kills_landed"] == 0:
            problems.append(
                f"{level}: no SIGKILL landed — every child finished "
                f"first, the profile tested nothing")
    if rows and not any(row["replay_loaded"] for row in rows):
        problems.append("crashpoint: no run ever loaded a replay entry — "
                        "every kill landed on a checkpoint boundary")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="fault-matrix smoke of the fault-tolerant pipeline")
    parser.add_argument("--minutes", type=float, default=45.0,
                        help="virtual wall time per run (default 45)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--method", default="a3c",
                        choices=tuple(sorted(SEARCH_METHODS)))
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed best-reward degradation vs "
                             "fault-free, as a fraction (default 0.05)")
    parser.add_argument("--profile", default="faults",
                        choices=("faults", "numeric", "proc",
                                 "crashpoint", "all"),
                        help="faults = infrastructure fault matrix; "
                             "numeric = numerical health-layer chaos; "
                             "proc = real-process supervision chaos "
                             "(SIGKILLed workers, crashing/hanging "
                             "evals); crashpoint = SIGKILL the whole "
                             "search at stratified journal records and "
                             "prove bit-identical zero-re-eval resume; "
                             "all = every profile (default faults)")
    parser.add_argument("--points", type=int, default=3,
                        help="kill points per crashpoint cell (default 3)")
    parser.add_argument("--methods", default="a3c,a2c,rdm",
                        help="comma-separated methods for the crashpoint "
                             "profile (default a3c,a2c,rdm)")
    parser.add_argument("--backends", default=",".join(HOST_BACKENDS),
                        help="comma-separated backends for the "
                             "crashpoint profile (default "
                             f"{','.join(HOST_BACKENDS)})")
    args = parser.parse_args(argv)

    problems: list[str] = []
    if args.profile in ("faults", "all"):
        rows = fault_matrix(minutes=args.minutes, seed=args.seed,
                            method=args.method)
        header = (f"{'level':12s} {'evals':>6s} {'best':>8s} "
                  f"{'failed':>7s} {'lost':>5s} {'nodefail':>8s} "
                  f"{'restarts':>8s} {'util':>6s}")
        print(header)
        for row in rows:
            print(f"{row['level']:12s} {row['evaluations']:6d} "
                  f"{row['best_reward']:8.4f} {row['failed_evals']:7d} "
                  f"{row['failed_agents']:5d} {row['node_failures']:8d} "
                  f"{row['job_restarts']:8d} "
                  f"{row['mean_utilization']:6.3f}")
        problems += check_rows(rows, tolerance=args.tolerance)

    if args.profile in ("numeric", "all"):
        rows = numeric_matrix(minutes=args.minutes, seed=args.seed)
        print(f"{'level':12s} {'evals':>6s} {'best':>8s} {'faults':>7s} "
              f"{'rollbk':>6s} {'resur':>6s} {'reject':>6s} {'lost':>5s}")
        for row in rows:
            print(f"{row['level']:12s} {row['evaluations']:6d} "
                  f"{row['best_reward']:8.4f} {row['numeric_faults']:7d} "
                  f"{row['rollbacks']:6d} {row['restarts']:6d} "
                  f"{row['rejected_deltas']:6d} {row['failed_agents']:5d}")
        problems += check_numeric_rows(rows)

    if args.profile in ("proc", "all"):
        rows = proc_matrix(seed=args.seed)
        print(f"{'level':12s} {'evals':>6s} {'best':>8s} {'kills':>6s} "
              f"{'crash':>6s} {'tmout':>6s} {'respwn':>6s} {'quar':>5s} "
              f"{'inline':>6s}")
        for row in rows:
            print(f"{row['level']:12s} {row['evaluations']:6d} "
                  f"{row['best_reward']:8.4f} {row['external_kills']:6d} "
                  f"{row['worker_crashes']:6d} {row['worker_timeouts']:6d} "
                  f"{row['respawns']:6d} {row['quarantined']:5d} "
                  f"{row['inline_evals']:6d}")
        problems += check_proc_rows(rows)

    if args.profile in ("crashpoint", "all"):
        rows = crashpoint_matrix(
            seed=args.seed + 2, points=args.points,
            methods=tuple(args.methods.split(",")),
            backends=tuple(args.backends.split(",")))
        print(f"{'level':24s} {'recs':>5s} {'evals':>6s} {'kills':>6s} "
              f"{'replay':>6s} {'fpmis':>6s} {'reeval':>6s} {'left':>5s}")
        for row in rows:
            print(f"{row['level']:24s} {row['journal_records']:5d} "
                  f"{row['baseline_evals']:6d} {row['kills_landed']:6d} "
                  f"{row['replay_loaded']:6d} "
                  f"{row['fingerprint_mismatches']:6d} "
                  f"{row['reevaluations']:6d} {row['replay_leftover']:5d}")
        problems += check_crashpoint_rows(rows)

    for problem in problems:
        print(f"chaos: FAIL — {problem}")
    if not problems:
        print("chaos: all profiles within tolerance")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
