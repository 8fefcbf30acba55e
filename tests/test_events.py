"""Tests for the structured search-event stream (repro.events).

The ordering test is the acceptance check for the runtime refactor: it
asserts the submit → eval-done → push → barrier sequence of one a2c
round purely from the event stream, never touching private runner
state.
"""

import json

import pytest

from repro.events import (AGENT_DONE, BARRIER, CACHE_HIT, EVAL_DONE, PUSH,
                          RESTART, ROLLBACK, SUBMIT, CallbackSink, JsonlSink,
                          NullSink, RecordingSink, SearchEvent, TeeSink,
                          emit, read_events)
from repro.health import GuardConfig
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.faults import FaultConfig
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


def small_config(method, minutes=40, **kwargs):
    defaults = dict(method=method, allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestSinks:
    def test_emit_none_sink_is_noop(self):
        emit(None, SUBMIT, 0.0, 1, count=4)     # must not raise

    def test_null_sink_discards(self):
        sink = NullSink()
        emit(sink, SUBMIT, 0.0, 1)

    def test_recording_sink_accumulates_in_order(self):
        sink = RecordingSink()
        emit(sink, SUBMIT, 0.0, 1, count=4)
        emit(sink, EVAL_DONE, 1.0, 1, reward=0.5, failed=False)
        assert sink.kinds() == [SUBMIT, EVAL_DONE]
        assert len(sink) == 2
        assert sink.of_kind(EVAL_DONE)[0].payload["reward"] == 0.5

    def test_callback_and_tee(self):
        seen = []
        rec = RecordingSink()
        tee = TeeSink(CallbackSink(seen.append), rec, None)
        emit(tee, PUSH, 2.0, 0, 3, mode="a3c")
        assert len(seen) == 1 and len(rec) == 1
        assert seen[0].iteration == 3

    def test_event_serializes(self):
        ev = SearchEvent(BARRIER, 12.5, agent_id=2, iteration=1,
                         payload={"round": 4})
        assert json.loads(json.dumps(ev.to_dict()))["payload"]["round"] == 4


class TestJsonlSink:
    def test_streams_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            emit(sink, SUBMIT, 0.0, 1, count=4)
            # flushed per event: readable while the sink is still open
            assert len(path.read_text().splitlines()) == 1
            emit(sink, EVAL_DONE, 1.0, 1, reward=0.5, failed=False)
            assert sink.num_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == SUBMIT

    def test_read_events_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sent = [SearchEvent(SUBMIT, 0.0, agent_id=1, payload={"count": 2}),
                SearchEvent(PUSH, 2.0, agent_id=0, iteration=3,
                            payload={"mode": "a3c"})]
        with JsonlSink(path) as sink:
            for ev in sent:
                sink.emit(ev)
        back = read_events(path)
        assert [e.to_dict() for e in back] == [e.to_dict() for e in sent]

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        """A crash mid-write leaves a truncated last line; the reader
        recovers every complete event and drops only the torn tail."""
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            emit(sink, SUBMIT, 0.0, 1, count=1)
            emit(sink, EVAL_DONE, 1.0, 1, reward=0.5)
        with open(path, "a") as fh:
            fh.write('{"kind": "push", "time": 2.0, "agent')   # no newline
        events = read_events(path)
        assert [e.kind for e in events] == [SUBMIT, EVAL_DONE]

    def test_malformed_mid_file_line_is_skipped(self, tmp_path, caplog):
        """Interior corruption (bit rot, a torn concurrent append) costs
        the one record, not the stream: the reader skips it with a
        logged warning and counts it in ``num_skipped``."""
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            emit(sink, SUBMIT, 0.0, 1)
        with open(path, "a") as fh:
            fh.write("not json\n")
            fh.write('{"kind": "push", "time": 2.0, "agent_id": 0, '
                     '"iteration": null, "payload": {}}\n')
        with caplog.at_level("WARNING", logger="repro.events"):
            events = read_events(path)
        assert [e.kind for e in events] == [SUBMIT, PUSH]
        assert events.num_skipped == 1
        assert any("line 2" in rec.message for rec in caplog.records)

    def test_torn_tail_not_counted_as_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path) as sink:
            emit(sink, SUBMIT, 0.0, 1)
        with open(path, "a") as fh:
            fh.write('{"kind": "push"')               # crash mid-write
        events = read_events(path)
        assert [e.kind for e in events] == [SUBMIT]
        assert events.num_skipped == 0

    def test_fsync_every_policy(self, tmp_path):
        """``fsync_every=N`` syncs every Nth record; ``fsync=True`` is
        the legacy every-record spelling of the same policy."""
        sink = JsonlSink(tmp_path / "a.jsonl", fsync_every=2)
        assert not sink.fsync
        assert sink._policy.every == 2
        for i in range(4):
            emit(sink, SUBMIT, float(i), 1)
        sink.close()
        assert len(read_events(tmp_path / "a.jsonl")) == 4
        legacy = JsonlSink(tmp_path / "b.jsonl", fsync=True)
        assert legacy.fsync and legacy._policy.every == 1
        legacy.close()

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "events.jsonl")
        emit(sink, SUBMIT, 0.0, 1)
        sink.close()
        sink.close()
        assert sink.num_written == 1


class TestSearchStream:
    def test_a2c_round_ordering(self, space):
        """One a2c round, observed only through the event stream:
        submit → eval-done → push → barrier, for every agent."""
        sink = RecordingSink()
        search = NasSearch(space, make_surrogate(space),
                           small_config("a2c"), event_sink=sink)
        search.run()
        for agent_id in range(4):    # NodeAllocation(32, 4, 3)
            kinds = [e.kind for e in sink.events if e.agent_id == agent_id]
            for kind in (SUBMIT, EVAL_DONE, PUSH, BARRIER):
                assert kind in kinds, f"agent {agent_id} missing {kind}"
            first = {k: kinds.index(k)
                     for k in (SUBMIT, EVAL_DONE, PUSH, BARRIER)}
            assert (first[SUBMIT] < first[EVAL_DONE] < first[PUSH]
                    < first[BARRIER])

    def test_submit_times_non_decreasing_per_agent(self, space):
        # submit events are emitted at submission instants, so each
        # agent's stream of them is time-ordered (eval-done events
        # instead carry the job's own end time, delivered at the batch
        # barrier, and are not globally sorted by design)
        sink = RecordingSink()
        NasSearch(space, make_surrogate(space), small_config("a2c"),
                  event_sink=sink).run()
        for agent_id in range(4):
            times = [e.time for e in sink.of_kind(SUBMIT)
                     if e.agent_id == agent_id]
            assert times == sorted(times)

    def test_barrier_rounds_increase(self, space):
        sink = RecordingSink()
        NasSearch(space, make_surrogate(space), small_config("a2c"),
                  event_sink=sink).run()
        rounds = [e.payload["round"] for e in sink.of_kind(BARRIER)]
        assert rounds == sorted(rounds)

    def test_a3c_emits_push_no_barrier(self, space):
        sink = RecordingSink()
        NasSearch(space, make_surrogate(space), small_config("a3c"),
                  event_sink=sink).run()
        assert sink.of_kind(PUSH)
        assert not sink.of_kind(BARRIER)

    def test_converged_search_emits_cache_hits_and_done(self, space):
        sink = RecordingSink()
        res = NasSearch(space, make_surrogate(space),
                        small_config("a3c", minutes=360),
                        event_sink=sink).run()
        assert res.converged
        assert sink.of_kind(CACHE_HIT)
        assert len(sink.of_kind(AGENT_DONE)) == 4
        assert all(e.payload["converged"] for e in sink.of_kind(AGENT_DONE))

    def test_sink_does_not_perturb_fingerprint(self, space):
        cfg = small_config("a2c")
        bare = NasSearch(space, make_surrogate(space), cfg).run()
        observed = NasSearch(space, make_surrogate(space), cfg,
                             event_sink=RecordingSink()).run()
        assert bare.fingerprint() == observed.fingerprint()

    @pytest.mark.health
    def test_restart_events_under_numeric_chaos(self, space):
        faults = FaultConfig(nan_grad_prob=0.05, seed=1)
        cfg = small_config("a3c", faults=faults, max_restarts=2,
                           guard=GuardConfig(mode="check"))
        sink = RecordingSink()
        search = NasSearch(space, make_surrogate(space), cfg,
                           event_sink=sink)
        res = search.run()
        total_restarts = sum(res.agent_restarts.values())
        assert len(sink.of_kind(RESTART)) == total_restarts
        assert total_restarts > 0

    @pytest.mark.health
    def test_rollback_events_in_recover_mode(self, space):
        faults = FaultConfig(nan_grad_prob=0.05, seed=1)
        cfg = small_config("a3c", faults=faults,
                           guard=GuardConfig(mode="recover"))
        sink = RecordingSink()
        search = NasSearch(space, make_surrogate(space), cfg,
                           event_sink=sink)
        res = search.run()
        total_rollbacks = sum(res.agent_rollbacks.values())
        assert len(sink.of_kind(ROLLBACK)) == total_rollbacks
        assert total_rollbacks > 0
