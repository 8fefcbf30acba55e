"""The four benchmark workloads and the checks every repetition runs.

Every workload is a closed loop: each agent submits its next batch only
when its previous batch has completed (the paper's per-agent barrier,
which is how :class:`repro.search.loop.AgentLoop` drives every backend).
One *repetition* builds each search from scratch, runs it, and tears it
down; a run of the benchmark repeats the same seeded repetition, so
every repetition must produce the same per-agent (arch, reward)
sequences.

Why each workload exists, which layers it stresses and which should stay
flat is recorded in ``design.json`` beside this file.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from repro import experiments
from repro.events import (AGENT_DONE, EVAL_DONE, SUBMIT, WORKER_RESPAWN,
                          WORKER_SPAWN, EventSink)
from repro.evaluator.balsam import BalsamEvaluator
from repro.evaluator.process import ProcConfig, ProcessEvaluator
from repro.evaluator.serial import SerialEvaluator
from repro.hpc import NodeAllocation
from repro.nas.builder import Plan
from repro.nas import plancache
from repro.nn.conv import Conv1D, MaxPooling1D
from repro.nn.layers import Dense
from repro.nn.merge import Add, Concatenate
from repro.nn.optimizers import FlatAdam
from repro.nn.training import Trainer
from repro.rewards import SurrogateReward, TrainingReward
from repro.rl.policy import LSTMPolicy
from repro.rl.ppo import PPOUpdater
from repro.search import SearchConfig
from repro.search import journal as journal_mod
from repro.search.ambs import AmbsProposer
from repro.search.exchange import A2CExchange, A3CExchange, RandomExchange
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, JournalWriter,
                                  SearchJournal, read_journal,
                                  resume_durable)
from repro.search.runner import NasSearch

__all__ = ["WORKLOADS", "Workload", "Spec", "Rep", "install_spans",
           "rss_anon_mb", "crash_at", "real_evals"]

FAILURE_REWARD = SurrogateReward.FAILURE_REWARD


def install_spans(tracer) -> None:
    """Wrap the program's public per-layer functions in spans."""
    targets = [
        (Dense, "forward", "nn.dense.fwd"),
        (Dense, "backward", "nn.dense.bwd"),
        (Conv1D, "forward", "nn.conv1d.fwd"),
        (Conv1D, "backward", "nn.conv1d.bwd"),
        (MaxPooling1D, "forward", "nn.maxpool1d.fwd"),
        (MaxPooling1D, "backward", "nn.maxpool1d.bwd"),
        (Concatenate, "forward_multi", "nn.merge.fwd"),
        (Add, "forward_multi", "nn.merge.fwd"),
        (Concatenate, "backward_multi", "nn.merge.bwd"),
        (Add, "backward_multi", "nn.merge.bwd"),
        (FlatAdam, "step", "nn.flatadam.step"),
        (Trainer, "fit", "nn.trainer.fit"),
        (TrainingReward, "evaluate", "rewards.training.eval"),
        (SurrogateReward, "evaluate", "rewards.surrogate.eval"),
        (plancache.PlanCache, "get_or_compile",
         "nas.plancache.get_or_compile"),
        (plancache, "plan_signature", "nas.signature"),
        (Plan, "materialize", "nas.plan.materialize"),
        (PPOUpdater, "update", "rl.ppo.update"),
        (LSTMPolicy, "sample", "rl.policy.sample"),
        (A3CExchange, "on_gradient", "search.exchange.on_gradient"),
        (A2CExchange, "on_gradient", "search.exchange.on_gradient"),
        (RandomExchange, "on_gradient", "search.exchange.on_gradient"),
        (AmbsProposer, "propose", "search.ambs.propose"),
        (SerialEvaluator, "add_eval_batch", "evaluator.add_eval_batch"),
        (BalsamEvaluator, "add_eval_batch", "evaluator.add_eval_batch"),
        (ProcessEvaluator, "add_eval_batch", "evaluator.add_eval_batch"),
        (ProcessEvaluator, "wait_all", "evaluator.process.wait"),
        (ProcessEvaluator, "shutdown", "evaluator.process.shutdown"),
        (JournalWriter, "append", "search.journal.append"),
        (CheckpointGenerations, "save", "search.checkpoint.save"),
        (CheckpointGenerations, "load_latest", "search.checkpoint.load"),
        (SearchJournal, "read_events", "search.journal.read"),
        (journal_mod, "build_replay", "search.journal.build_replay"),
    ]
    for owner, attr, name in targets:
        tracer.patch(owner, attr, name)


def rss_anon_mb(pid="self") -> float:
    """Resident anonymous memory of a process, MiB.  File-backed pages
    (shared libraries) are left out: how many of them are resident
    depends on the host's page cache, not on the program."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no RssAnon in /proc/{pid}/status")


class Stamps(EventSink):
    """Passive sink stamping per-agent batch submissions with
    ``perf_counter`` on receipt.  ``SUBMIT`` is emitted once per batch
    on every backend (``BATCH_STATS`` is not emitted by the process
    backend, which gathers no plans).  When an agent finishes it also
    samples the resident memory of this process and of every worker,
    which are all still alive then; ``sample_memory`` samples again
    after the run (on balsam the wall-time cut ends agents silently)."""

    def __init__(self) -> None:
        self.submits: dict[int, list[float]] = defaultdict(list)
        self.first_done: float | None = None
        self.converged: dict[int, bool] = {}
        self.worker_pids: list[int] = []
        self.main_mb = 0.0
        self.worker_mb = 0.0

    def emit(self, event) -> None:
        if event.kind == SUBMIT:
            self.submits[event.agent_id].append(time.perf_counter())
        elif event.kind == EVAL_DONE and self.first_done is None:
            self.first_done = time.perf_counter()
        elif event.kind in (WORKER_SPAWN, WORKER_RESPAWN):
            self.worker_pids.append(event.payload["pid"])
        elif event.kind == AGENT_DONE:
            self.converged[event.agent_id] = bool(
                event.payload.get("converged"))
            self.sample_memory()

    def sample_memory(self) -> None:
        self.main_mb = max(self.main_mb, rss_anon_mb())
        for pid in self.worker_pids:
            try:
                self.worker_mb = max(self.worker_mb, rss_anon_mb(pid))
            except OSError:     # that worker already exited
                pass

    def iteration_gaps(self) -> list[float]:
        return [b - a for ts in self.submits.values()
                for a, b in zip(ts, ts[1:])]


@dataclass(frozen=True)
class Spec:
    """One search of a workload."""

    label: str
    problem: str            # combo | nt3
    reward: str             # training | surrogate
    method: str
    backend: str            # serial | balsam | process
    agents: int
    workers: int
    iterations: int | None = None
    minutes: float | None = None
    #: journal + checkpoint generations, crash at the journal midpoint,
    #: then ``resume_durable(...).run()``
    durable: bool = False


@dataclass
class Rep:
    """What one repetition measured and checked."""

    setup_s: float = 0.0
    run_s: float = 0.0
    wall_s: float = 0.0
    resume_s: float = 0.0
    evals: int = 0                  # non-cached evaluations
    attempted: int = 0              # reward records produced
    failed_evals: int = 0
    best: list = field(default_factory=list)
    #: label -> per-agent [(arch key, reward), ...]
    sequences: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)      # (name, ok, detail)
    counters: Counter = field(default_factory=Counter)
    gaps: list = field(default_factory=list)
    #: this process plus largest worker resident anonymous memory, MiB
    rss_mb: float = 0.0
    worker_rss_mb: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _allocation(spec: Spec) -> NodeAllocation:
    if (spec.agents, spec.workers) == (21, 11):
        return NodeAllocation.paper_256()
    return NodeAllocation(spec.agents * (spec.workers + 1) + 1,
                          spec.agents, spec.workers)


def _build(spec: Spec, seed: int, tracer, journal_dir, sink):
    """Problem, reward model and search: the part ``setup_s`` times."""
    if spec.reward == "training":
        with tracer.span("problems.build"):
            problem = experiments.working_problem.__wrapped__(spec.problem)
        space, reward = problem.space, TrainingReward(problem)
    else:
        # a new run builds its search space afresh; surrogate_for reads
        # the same cache entry, so the reward and the search share it
        experiments.space_for.cache_clear()
        with tracer.span("problems.build"):
            space = experiments.space_for(spec.problem, "small")
        reward = experiments.surrogate_for(spec.problem)
    kwargs = {}
    if spec.minutes is not None:
        kwargs["wall_time"] = spec.minutes * 60.0
    if spec.backend == "process":
        kwargs["proc"] = ProcConfig(workers=1)
    if spec.durable:
        kwargs.update(journal_dir=str(journal_dir), journal_fsync_every=1,
                      checkpoint_every_records=4 * spec.agents * spec.workers)
    cfg = SearchConfig(method=spec.method, allocation=_allocation(spec),
                       seed=seed, backend=spec.backend,
                       max_iterations=spec.iterations, **kwargs)
    if spec.durable:
        return resume_durable(space, reward, cfg, event_sink=sink)
    return NasSearch(space, reward, cfg, event_sink=sink)


def _dispose(search) -> None:
    """Release a built search that will not run (setup-only samples)."""
    for ev in search.evaluators:
        ev.shutdown()
    if search.journal is not None:
        search.journal.close()


def _sequences(records) -> dict:
    out: dict[int, list] = defaultdict(list)
    for rec in records:
        out[rec.agent_id].append((rec.arch.key, rec.reward))
    return dict(out)


def _check_records(rep: Rep, spec: Spec, result, stamps: Stamps) -> None:
    """Record counts match the configuration; rewards are in range."""
    per_agent = Counter(rec.agent_id for rec in result.records)
    for agent in range(spec.agents):
        n, subs = per_agent.get(agent, 0), len(stamps.submits.get(agent, ()))
        if spec.backend == "balsam":    # the batch in flight at wall time
            ok = n % spec.workers == 0 and subs - 1 <= n // spec.workers \
                <= subs
        else:
            ok = n == spec.workers * subs and (
                subs == spec.iterations or stamps.converged.get(agent))
        rep.check(f"{spec.label}.agent{agent}.record_count", ok,
                  f"{n} records over {subs} batches")
    bad = [r.reward for r in result.records
           if not (math.isfinite(r.reward) and -1.0 <= r.reward <= 1.0)]
    rep.check(f"{spec.label}.rewards_in_range", not bad,
              f"{len(bad)} rewards outside [-1, 1]")


def _journal_lines(journal_dir) -> int:
    return len((Path(journal_dir) / JOURNAL_NAME).read_bytes().splitlines())


def crash_at(journal_dir, k: int) -> None:
    """Leave the directory as a SIGKILL at journal record ``k`` would:
    the first ``k`` records survive, and only the checkpoint generations
    captured at or before record ``k``."""
    path = Path(journal_dir) / JOURNAL_NAME
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:k]))
    gen_dir = Path(journal_dir) / GENERATIONS_DIR
    if gen_dir.is_dir():
        for gen in list(gen_dir.iterdir()):
            if json.loads(gen.read_text())["integrity"]["journal_seq"] > k:
                gen.unlink()


def real_evals(journal_dir) -> Counter:
    """(agent, arch) -> real executions recorded in the journal: eval-done
    records that are not replay re-emissions."""
    out: Counter = Counter()
    for ev in read_journal(Path(journal_dir) / JOURNAL_NAME):
        if ev.kind == EVAL_DONE and "arch" in ev.payload \
                and not ev.payload.get("replayed"):
            out[(ev.agent_id,
                 json.dumps(ev.payload["arch"], sort_keys=True))] += 1
    return out


def _collect(rep: Rep, search, result) -> None:
    """Per-layer counters read from the program's own objects."""
    c = rep.counters
    cache = search.reward_model.plan_cache
    if cache is not None:
        st = cache.stats()
        c["plan_hits"] += st["hits"]
        c["plan_lookups"] += st["hits"] + st["misses"]
    for ev in search.evaluators:
        c["eval_submitted"] += ev.num_submitted
        c["eval_cache_hits"] += ev.num_cache_hits
    for key, val in result.worker_stats.items():
        c[key] += val
    c["records"] += len(result.records)
    c["valid"] += sum(1 for r in result.records
                      if r.reward > FAILURE_REWARD)
    if search.config.backend == "balsam":
        trace = search.service.utilization_trace(
            max(result.end_time, 1e-9), 60.0)
        c["node_utilization"] += sum(u for _, u in trace) / max(len(trace), 1)
        c["jobs_finished"] += search.service.num_finished


class Workload:
    """A named list of searches run back to back in one repetition."""

    def __init__(self, specs: list[Spec], setup_repeats: int,
                 warmup: list[Spec]) -> None:
        self.specs = specs
        self.setup_repeats = setup_repeats
        self.warmup_specs = warmup

    def setup_samples(self, seed: int, tracer, scratch: Path) -> list[float]:
        """Build and dispose every search ``setup_repeats`` times."""
        out = []
        for _ in range(self.setup_repeats):
            total = 0.0
            for spec in self.specs:
                jdir = tempfile.mkdtemp(dir=scratch)
                try:
                    t0 = time.perf_counter()
                    search = _build(spec, seed, tracer, jdir, None)
                    total += time.perf_counter() - t0
                    _dispose(search)
                finally:
                    shutil.rmtree(jdir, ignore_errors=True)
            out.append(total)
        return out

    def warmup(self, seed: int, tracer, scratch: Path) -> None:
        rep = Rep()
        for spec in self.warmup_specs:
            self._search(rep, spec, seed, tracer, scratch)

    def rep(self, seed: int, tracer, scratch: Path) -> Rep:
        rep = Rep()
        t0 = time.perf_counter()
        for spec in self.specs:
            self._search(rep, spec, seed, tracer, scratch)
        rep.wall_s = time.perf_counter() - t0
        return rep

    # ------------------------------------------------------------------
    def _search(self, rep: Rep, spec: Spec, seed: int, tracer,
                scratch: Path) -> None:
        jdir = Path(tempfile.mkdtemp(dir=scratch))
        try:
            result, search, stamps, t_build = self._launch(
                rep, spec, seed, tracer, jdir)
            rep.evals += sum(1 for r in result.records if not r.cached)
            rep.attempted += len(result.records)
            rep.failed_evals += result.num_failed_evals
            rep.best.append(result.best().reward)
            rep.sequences[spec.label] = _sequences(result.records)
            rep.gaps.extend(stamps.iteration_gaps())
            rep.rss_mb = max(rep.rss_mb, stamps.main_mb + stamps.worker_mb)
            rep.worker_rss_mb = max(rep.worker_rss_mb, stamps.worker_mb)
            _check_records(rep, spec, result, stamps)
            _collect(rep, search, result)
            if spec.backend == "process" and stamps.first_done is not None:
                rep.counters["first_result_s"] += stamps.first_done - t_build
            if spec.durable:
                self._crash_and_resume(rep, spec, seed, tracer, jdir, result)
        finally:
            shutil.rmtree(jdir, ignore_errors=True)

    def _launch(self, rep: Rep, spec: Spec, seed: int, tracer, jdir):
        stamps = Stamps()
        t0 = time.perf_counter()
        with tracer.span("search.setup"):
            search = _build(spec, seed, tracer, jdir, stamps)
        t1 = time.perf_counter()
        with tracer.span("search.run"):
            result = search.run()
        stamps.sample_memory()
        rep.setup_s += t1 - t0
        rep.run_s += time.perf_counter() - t1
        return result, search, stamps, t0

    def _crash_and_resume(self, rep: Rep, spec: Spec, seed: int, tracer,
                          jdir: Path, base) -> None:
        """Truncate the journal at its midpoint, relaunch, and check the
        resumed run against the uninterrupted one."""
        baseline_real = real_evals(jdir)
        crash_at(jdir, _journal_lines(jdir) // 2)
        stamps = Stamps()
        t0 = time.perf_counter()
        with tracer.span("search.setup"):
            search = _build(spec, seed, tracer, jdir, stamps)
        with tracer.span("search.run"):
            result = search.run()
        rep.resume_s += time.perf_counter() - t0
        _collect(rep, search, result)
        rep.check(f"{spec.label}.resume_fingerprint",
                  result.fingerprint() == base.fingerprint(),
                  "resumed fingerprint differs from the uninterrupted run")
        # within-batch duplicates run twice in the uninterrupted run
        # too, so the resumed journal must match it pair for pair
        real = real_evals(jdir)
        extra = real - baseline_real
        rep.check(f"{spec.label}.no_reevaluation", real == baseline_real,
                  f"{sum(extra.values())} extra real evaluations over "
                  f"{len(extra)} (agent, arch) pairs; "
                  f"{sum(real.values())} real evals vs "
                  f"{sum(baseline_real.values())} uninterrupted")
        if spec.backend == "process":
            bad = {k: rep.counters[k] for k in
                   ("worker_crashes", "respawns", "inline_evals")
                   if rep.counters[k]}
            rep.check(f"{spec.label}.workers_clean", not bad, str(bad))


def _train_specs(combo_iters: int, nt3_iters: int) -> list[Spec]:
    return [Spec("combo", "combo", "training", "a3c", "serial", 2, 4,
                 iterations=combo_iters),
            Spec("nt3", "nt3", "training", "a3c", "serial", 2, 4,
                 iterations=nt3_iters)]


def _sim_spec(minutes: float) -> Spec:
    return Spec("sim", "combo", "surrogate", "a3c", "balsam", 21, 11,
                minutes=minutes)


def _ambs_spec(iters: int) -> Spec:
    return Spec("ambs", "combo", "surrogate", "ambs", "serial", 2, 11,
                iterations=iters)


def _durable_spec(iters: int) -> Spec:
    return Spec("durable", "combo", "surrogate", "a3c", "process", 2, 3,
                iterations=iters, durable=True)


WORKLOADS = {
    "train": Workload(_train_specs(40, 20), setup_repeats=15,
                      warmup=_train_specs(2, 2)),
    "sim": Workload([_sim_spec(30.0)], setup_repeats=15,
                    warmup=[_sim_spec(12.0)]),
    "ambs": Workload([_ambs_spec(40)], setup_repeats=15,
                     warmup=[_ambs_spec(3)]),
    "durable": Workload([_durable_spec(40)], setup_repeats=5, warmup=[]),
}
