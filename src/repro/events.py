"""Structured search-event stream.

Every layer of the search runtime — the evaluation broker, the exchange
strategies, the lifecycle hooks, and the runner itself — emits typed
:class:`SearchEvent` records to a pluggable sink.  The stream is the
observability substrate for tracing/metrics work, and it is how tests
assert cross-layer ordering (submit → eval-done → push → barrier)
without reaching into private runner state.

Emission is strictly passive: sinks observe, they never feed back into
the search, so attaching (or detaching) a sink cannot perturb a run's
determinism fingerprint.  With no sink configured nothing is even
constructed — :func:`emit` is a no-op on ``sink=None``.

:data:`EVENT_KINDS` lists what the runtime emits today.  Readers do not
check kinds: a stream written by an older version may carry kinds it no
longer lists (such as the per-batch plan-gather report the broker used
to emit), and every consumer that dispatches on ``kind`` skips them.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field

from .util.atomicio import FsyncPolicy

__all__ = [
    "SUBMIT", "EVAL_DONE", "CACHE_HIT", "PUSH", "BARRIER",
    "ROLLBACK", "RESTART", "CHECKPOINT", "CRASH", "AGENT_DONE",
    "WORKER_SPAWN", "WORKER_CRASH", "WORKER_RESPAWN", "WORKER_TIMEOUT",
    "QUARANTINE", "PREEMPT",
    "EVENT_KINDS", "SearchEvent", "EventSink", "NullSink", "RecordingSink",
    "CallbackSink", "TeeSink", "JsonlSink", "EventLog", "emit",
    "read_events",
]

_log = logging.getLogger("repro.events")

#: a batch of architectures entered the evaluation broker
SUBMIT = "submit"
#: one evaluation finished (real or failed — see ``payload["failed"]``)
EVAL_DONE = "eval-done"
#: an architecture was answered from the agent-local cache
CACHE_HIT = "cache-hit"
#: an agent handed its delta to the exchange strategy
PUSH = "push"
#: a synchronous exchange round released its barrier
BARRIER = "barrier"
#: a health guard rolled an agent's policy back to its last snapshot
ROLLBACK = "rollback"
#: a crashed agent was resurrected from its iteration boundary
RESTART = "restart"
#: the search captured a resumable checkpoint
CHECKPOINT = "checkpoint"
#: an agent died permanently (restarts exhausted or none configured)
CRASH = "crash"
#: an agent finished (converged, wall-time, or post-crash accounting)
AGENT_DONE = "agent-done"
#: a process-pool worker was started (initial pool fill)
WORKER_SPAWN = "worker-spawn"
#: a worker died unexpectedly (crash, external kill, lost heartbeat)
WORKER_CRASH = "worker-crash"
#: a replacement worker was spawned after a death (restart budget spent)
WORKER_RESPAWN = "worker-respawn"
#: a worker was killed because its job exceeded the wall-clock deadline
WORKER_TIMEOUT = "worker-timeout"
#: an architecture was quarantined after killing too many workers
QUARANTINE = "quarantine"
#: the search was preempted (SIGTERM/SIGINT) and stopped at a
#: checkpointable boundary
PREEMPT = "preempt"

EVENT_KINDS = (SUBMIT, EVAL_DONE, CACHE_HIT, PUSH, BARRIER,
               ROLLBACK, RESTART, CHECKPOINT, CRASH, AGENT_DONE,
               WORKER_SPAWN, WORKER_CRASH, WORKER_RESPAWN, WORKER_TIMEOUT,
               QUARANTINE, PREEMPT)


@dataclass(frozen=True)
class SearchEvent:
    """One timestamped record of the search-event stream.

    ``time`` is the emitting layer's clock — virtual seconds for the
    simulated Balsam stack, wall seconds for the in-host backends.
    ``payload`` carries kind-specific detail (reward, round number,
    anomaly kind, ...); it is deliberately a plain dict so new layers
    can annotate events without schema churn.
    """

    kind: str
    time: float
    agent_id: int | None = None
    iteration: int | None = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "time": self.time,
                "agent_id": self.agent_id, "iteration": self.iteration,
                "payload": dict(self.payload)}


class EventSink:
    """Receiver contract: ``emit`` one event; ``close`` when done."""

    def emit(self, event: SearchEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class NullSink(EventSink):
    """Discards everything (explicit stand-in for "no sink")."""

    def emit(self, event: SearchEvent) -> None:
        pass


class RecordingSink(EventSink):
    """Accumulates events in order — the test-facing sink."""

    def __init__(self) -> None:
        self.events: list[SearchEvent] = []

    def emit(self, event: SearchEvent) -> None:
        self.events.append(event)

    def of_kind(self, *kinds: str) -> list[SearchEvent]:
        return [e for e in self.events if e.kind in kinds]

    def kinds(self) -> list[str]:
        return [e.kind for e in self.events]

    def __len__(self) -> int:
        return len(self.events)


class CallbackSink(EventSink):
    """Adapts a plain callable into a sink."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def emit(self, event: SearchEvent) -> None:
        self.fn(event)


class TeeSink(EventSink):
    """Fans every event out to several sinks."""

    def __init__(self, *sinks: EventSink) -> None:
        self.sinks = [s for s in sinks if s is not None]

    def emit(self, event: SearchEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlSink(EventSink):
    """Streams events to a JSONL file, one flushed line per event.

    Unlike buffering events in memory and dumping them at the end of the
    run, every record hits the OS the moment it is emitted (``flush``),
    so a *process* crash — or a SIGKILLed run — loses at most the event
    being written.  Durability against a *host* crash is the fsync
    policy's job: ``fsync=True`` forces every record to stable storage
    (the old boolean knob), ``fsync_every=N`` does so after every Nth
    record — the same :class:`~repro.util.atomicio.FsyncPolicy` the
    search journal uses.  :func:`read_events` tolerates the torn
    trailing line a crash can leave behind, and skips (with a counter)
    interior corruption.
    """

    def __init__(self, path, fsync: bool = False,
                 fsync_every: int | None = None) -> None:
        self.path = os.fspath(path)
        if fsync and fsync_every is None:
            fsync_every = 1
        self.fsync = fsync_every == 1
        self._policy = FsyncPolicy(fsync_every)
        self._fh = open(self.path, "w", encoding="utf-8")
        self.num_written = 0

    def emit(self, event: SearchEvent) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event.to_dict()) + "\n")
        self._fh.flush()
        self._policy.tick(self._fh.fileno())
        self.num_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventLog(list):
    """A list of :class:`SearchEvent` records that also reports how many
    unreadable lines the reader had to skip (``num_skipped``) — list
    subclass so every existing ``read_events`` caller keeps working."""

    def __init__(self, events=(), num_skipped: int = 0) -> None:
        super().__init__(events)
        self.num_skipped = num_skipped


def read_events(path) -> EventLog:
    """Read a JSONL event stream back into :class:`SearchEvent` records.

    Recovery is total: a torn trailing line — the partial record a crash
    mid-``write`` leaves behind — is silently dropped, and a malformed
    line anywhere *else* (bit rot, a concurrent writer's torn append) is
    skipped with a logged warning rather than sinking the whole stream.
    The returned :class:`EventLog` carries the interior-skip count in
    ``num_skipped`` (the torn tail is not counted: it is the expected
    residue of a crash, not corruption).
    """
    events: list[SearchEvent] = []
    skipped = 0
    with open(os.fspath(path), encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()     # trailing newline of a complete file
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            event = SearchEvent(rec["kind"], rec["time"],
                                rec.get("agent_id"), rec.get("iteration"),
                                rec.get("payload") or {})
        except (json.JSONDecodeError, KeyError, TypeError):
            if i == len(lines) - 1:
                break   # torn trailing line from a crash mid-write
            skipped += 1
            _log.warning("%s: skipping malformed event record at line %d",
                         path, i + 1)
            continue
        events.append(event)
    return EventLog(events, num_skipped=skipped)


def emit(sink: EventSink | None, kind: str, time: float,
         agent_id: int | None = None, iteration: int | None = None,
         **payload) -> None:
    """Emit one event, or do nothing at all when ``sink`` is None.

    The event object is only constructed when a sink is attached, so
    un-observed runs pay nothing on the hot path.
    """
    if sink is not None:
        sink.emit(SearchEvent(kind, time, agent_id, iteration, payload))
