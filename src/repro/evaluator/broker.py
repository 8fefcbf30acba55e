"""Unified evaluation broker (§4).

The paper's evaluator "enforces a complete separation of concerns
between the search and the backend".  The broker is where that
separation lives: it is the single submit/poll front-end that owns the
agent-local :class:`~repro.evaluator.cache.EvalCache`, cache-hit
short-circuiting, submission/hit/failure counters, failure-reward
conversion, the finished-record queue, and the wait/shutdown lifecycle.
Backends shrink to a pure ``execute(arch) -> EvalResult`` surface
(:class:`EvalBackend`) plus a dispatch policy — inline, the supervised
process pool, or the simulated Balsam service — and can no longer
drift apart on the shared bookkeeping they used to each reimplement.
The admission sequence (submit stamp, submission count, journal replay,
cache) is written once, in :meth:`EvalBroker._admit`.

The broker also emits the structured event stream (``submit``,
``cache-hit``, ``eval-done``) to an optional :mod:`repro.events` sink.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..events import CACHE_HIT, EVAL_DONE, SUBMIT, EventSink, emit
from ..nas.arch import Architecture
from ..rewards.base import EvalResult, RewardModel
from .base import EvalRecord, Evaluator
from .cache import EvalCache

__all__ = ["EvalBackend", "RewardModelBackend", "ReplayEval", "EvalBroker"]


@dataclass(frozen=True)
class ReplayEval:
    """One journaled completed evaluation, ready to be re-served.

    Built from the write-ahead journal's ``eval-done`` records
    (:func:`repro.search.journal.build_replay`) and loaded into a broker
    via :meth:`EvalBroker.load_replay`: when the resumed search re-submits
    the same architecture, the broker answers from this entry — same
    reward, same recorded completion time, *not* a cache hit — instead
    of re-executing the reward model.  Failures replay as failures
    (``FAILURE_REWARD``, never cached), exactly like the original run.
    """

    key: tuple                  # exact (space, choices) architecture key
    reward: float
    duration: float
    params: int
    timed_out: bool
    nonfinite: bool
    failed: bool
    end_time: float             # the original completion timestamp


class EvalBackend:
    """A pure evaluation executor: one architecture in, one result out.

    Backends never see the cache, the counters, or the record queue —
    the broker owns all of that.  ``execute`` may raise; the broker
    converts the exception into a ``FAILURE_REWARD`` record.
    """

    def execute(self, arch: Architecture) -> EvalResult:
        raise NotImplementedError


class RewardModelBackend(EvalBackend):
    """Wraps a :class:`~repro.rewards.base.RewardModel` as a backend,
    evaluating with the agent-specific seed (§4: rewards depend on the
    agent's random weight initialization)."""

    def __init__(self, reward_model: RewardModel, agent_id: int = 0) -> None:
        self.reward_model = reward_model
        self.agent_id = agent_id

    def execute(self, arch: Architecture) -> EvalResult:
        return self.reward_model.evaluate(arch, agent_seed=self.agent_id)


class EvalBroker(Evaluator):
    """Shared front-end machinery for every evaluator backend.

    Subclasses implement ``add_eval_batch`` as a loop over
    :meth:`_admit`, dispatching each architecture it yields, and report
    outcomes through ``_complete`` / ``_fail``; they may override
    ``_poll`` to pump pending completions before a drain.  Everything
    the search loop observes (counters, record order,
    ``last_batch_all_cached``, checkpoint restore) is defined here,
    once.
    """

    def __init__(self, agent_id: int = 0, use_cache: bool = True,
                 clock=time.monotonic, sink: EventSink | None = None) -> None:
        super().__init__(agent_id)
        self.cache = EvalCache() if use_cache else None
        self.clock = clock
        self.sink = sink
        self._finished: list[EvalRecord] = []
        #: journal-replay store: arch key -> FIFO of completed evals the
        #: resumed run must re-serve instead of re-executing
        self._replay: dict[tuple, deque[ReplayEval]] = {}
        #: evaluations answered from the replay store (resume accounting)
        self.num_replayed = 0

    # -- shared bookkeeping -------------------------------------------
    def _admit(self, archs: list[Architecture]):
        """The admission sequence every backend shares; yields
        ``(arch, submit_time)`` for each architecture to dispatch.

        Per architecture: stamp the submit time, count the submission,
        then answer it from the journal replay (checked *before* the
        cache, see :meth:`_replay_hit`) or the cache if either can.
        Only the rest is yielded.  The generator is lazy, so a backend
        that completes a dispatch inside its loop body (serial) has
        cached that result before the next architecture is admitted —
        a repeat within one batch is then a cache hit, exactly as if it
        came in a later batch.  ``last_batch_all_cached`` is set once
        the batch is exhausted.
        """
        emit(self.sink, SUBMIT, self.clock(), self.agent_id,
             count=len(archs))
        all_cached = True
        for arch in archs:
            submit = self.clock()
            self.num_submitted += 1
            if self._replay_hit(arch, submit):
                all_cached = False
                continue
            if self._cache_hit(arch, submit):
                continue
            all_cached = False
            yield arch, submit
        # an *empty* batch is not all-cached: absence of submissions is
        # no evidence of cache convergence
        self.last_batch_all_cached = all_cached and bool(archs)

    def _cache_hit(self, arch: Architecture, submit_time: float) -> bool:
        """Cache short-circuit: on a hit, record + count + emit.

        Returns True iff the architecture was answered from the cache
        (the caller skips dispatch).  A miss bumps the cache's own miss
        tally as a side effect of the lookup.
        """
        if self.cache is None:
            return False
        cached = self.cache.get(arch)
        if cached is None:
            return False
        self.num_cache_hits += 1
        self._finished.append(EvalRecord(
            arch, cached, self.agent_id, submit_time, submit_time,
            self.clock(), cached=True))
        emit(self.sink, CACHE_HIT, self.clock(), self.agent_id,
             reward=cached.reward)
        return True

    def _complete(self, arch: Architecture, result: EvalResult,
                  submit_time: float, start_time: float,
                  end_time: float) -> None:
        """Deliver one successful evaluation: cache it, queue the record.

        The ``eval-done`` payload carries everything a journal replay
        needs to re-serve the evaluation without re-executing it: the
        architecture, the full result tuple, and (as the event time) the
        completion timestamp.
        """
        if self.cache is not None:
            self.cache.put(arch, result)
        self._finished.append(EvalRecord(
            arch, result, self.agent_id, submit_time, start_time, end_time))
        emit(self.sink, EVAL_DONE, end_time, self.agent_id,
             reward=result.reward, failed=False, arch=arch.to_dict(),
             duration=result.duration, params=result.params,
             timed_out=result.timed_out, nonfinite=result.nonfinite)

    def _fail(self, arch: Architecture, duration: float, params: int,
              submit_time: float, start_time: float,
              end_time: float) -> None:
        """Deliver one failed evaluation as the paper's failure reward.

        Failures are never cached, so the same architecture may be
        re-attempted later.
        """
        self.num_failed += 1
        result = EvalResult(RewardModel.FAILURE_REWARD, duration, params)
        self._finished.append(EvalRecord(
            arch, result, self.agent_id, submit_time, start_time, end_time))
        emit(self.sink, EVAL_DONE, end_time, self.agent_id,
             reward=result.reward, failed=True, arch=arch.to_dict(),
             duration=result.duration, params=result.params,
             timed_out=result.timed_out, nonfinite=result.nonfinite)

    # -- journal replay ------------------------------------------------
    def load_replay(self, entries: list[ReplayEval]) -> None:
        """Arm the broker with journaled completions to re-serve.

        Entries queue FIFO per architecture key, preserving per-key
        completion order — a batch containing the same architecture
        twice (both executed for real in the original run, because the
        second submission raced the first's completion) replays both
        entries in order.
        """
        for entry in entries:
            self._replay.setdefault(tuple(entry.key),
                                    deque()).append(entry)

    def replay_pending(self) -> int:
        """Loaded replay entries not yet consumed (0 after a clean
        resume: determinism re-submits every journaled architecture)."""
        return sum(len(q) for q in self._replay.values())

    def _replay_hit(self, arch: Architecture, submit_time: float) -> bool:
        """Journal-replay short-circuit, checked *before* the cache.

        Order matters: the original run consulted its cache first and
        executed on a miss, so every replay entry corresponds to a
        miss.  Re-checking the cache first would diverge on batches
        containing the same architecture twice — the first replay seeds
        the cache and the second occurrence would flip from a real
        (replayed) record to a cache hit.  The cache's miss tally is
        bumped manually to preserve the restore-counters invariant
        (every submission performs exactly one logical lookup).
        """
        if not self._replay:
            return False
        queue = self._replay.get(arch.key)
        if not queue:
            return False
        entry = queue.popleft()
        self.num_replayed += 1
        if self.cache is not None:
            self.cache.misses += 1
        if entry.failed:
            self.num_failed += 1
            result = EvalResult(RewardModel.FAILURE_REWARD, entry.duration,
                                entry.params, entry.timed_out,
                                entry.nonfinite)
        else:
            result = EvalResult(entry.reward, entry.duration, entry.params,
                                entry.timed_out, entry.nonfinite)
            if self.cache is not None:
                self.cache.put(arch, result)
        self._finished.append(EvalRecord(
            arch, result, self.agent_id, submit_time, submit_time,
            entry.end_time))
        emit(self.sink, EVAL_DONE, entry.end_time, self.agent_id,
             reward=result.reward, failed=entry.failed, arch=arch.to_dict(),
             duration=result.duration, params=result.params,
             timed_out=result.timed_out, nonfinite=result.nonfinite,
             replayed=True)
        return True

    # -- polling -------------------------------------------------------
    def _poll(self) -> None:
        """Pump pending completions into the finished queue (hook)."""

    def get_finished_evals(self) -> list[EvalRecord]:
        self._poll()
        out, self._finished = self._finished, []
        return out

    # -- checkpoint / resurrection support -----------------------------
    def restore_counters(self, num_submitted: int, num_cache_hits: int,
                         num_failed: int) -> None:
        """Rewind the broker's counters to an iteration boundary.

        The cache's own hit/miss tally is restored alongside: every
        submitted architecture performs exactly one cache lookup, so
        ``hits == num_cache_hits`` and ``misses == num_submitted -
        num_cache_hits`` whenever the cache is enabled.
        """
        self.num_submitted = num_submitted
        self.num_cache_hits = num_cache_hits
        self.num_failed = num_failed
        if self.cache is not None:
            self.cache.hits = num_cache_hits
            self.cache.misses = num_submitted - num_cache_hits
