"""Unit tests for the durability layer (repro.search.journal).

The write-ahead journal, the checkpoint generations, and the shared
atomic-write primitives are each tested in isolation here; the
end-to-end crash/resume promises (bit-identical fingerprints, zero
re-evaluation) live in ``test_search_journal_resume.py`` and the
crash-point fuzzer (``repro.search.chaos --profile crashpoint``).
"""

import json
import os

import pytest

from repro.events import EVAL_DONE, PUSH, RESTART, SUBMIT, SearchEvent
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, JournalSink,
                                  JournalWriter, build_replay, read_journal,
                                  resume_durable)
from repro.util import (FsyncPolicy, atomic_write_json, atomic_write_text)


def some_events(n=3):
    kinds = [SUBMIT, EVAL_DONE, PUSH]
    return [SearchEvent(kinds[i % 3], float(i), agent_id=i % 2,
                        iteration=i, payload={"i": i, "x": 0.125 * i})
            for i in range(n)]


class TestAtomicIO:
    def test_atomic_write_text_overwrites(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert not path.with_suffix(".txt.tmp").exists()

    def test_atomic_write_json_kwargs_pass_through(self, tmp_path):
        path = atomic_write_json(tmp_path / "a.json", {"b": 1, "a": 2},
                                 sort_keys=True, separators=(",", ":"))
        assert path.read_text() == '{"a":2,"b":1}'

    def test_fsync_policy_never(self, tmp_path):
        with open(tmp_path / "f", "w") as fh:
            policy = FsyncPolicy(None)
            assert not any(policy.tick(fh.fileno()) for _ in range(5))

    def test_fsync_policy_every_nth(self, tmp_path):
        with open(tmp_path / "f", "w") as fh:
            policy = FsyncPolicy(2)
            assert [policy.tick(fh.fileno()) for _ in range(4)] \
                == [False, True, False, True]

    def test_fsync_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FsyncPolicy(0)


class TestJournalWriter:
    def test_round_trip_and_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        seqs = [writer.append(ev) for ev in some_events(4)]
        writer.close()
        assert seqs == [1, 2, 3, 4]
        back = read_journal(path)
        assert [e.to_dict() for e in back] \
            == [e.to_dict() for e in some_events(4)]
        assert back.num_skipped == 0

    def test_crc_detects_interior_bit_flip(self, tmp_path, caplog):
        """A flipped byte that keeps the JSON valid still fails the
        record CRC: the record is skipped with a warning, the rest of
        the journal survives."""
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for ev in some_events(3):
            writer.append(ev)
        writer.close()
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"x":0.125', '"x":0.625')
        path.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            back = read_journal(path)
        assert len(back) == 2
        assert back.num_skipped == 1
        assert any("line 2" in rec.message for rec in caplog.records)

    def test_torn_tail_dropped_on_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for ev in some_events(2):
            writer.append(ev)
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "crc": 1, "ev": {"kind"')   # crash mid-write
        back = read_journal(path)
        assert len(back) == 2
        assert back.num_skipped == 0          # expected crash residue

    def test_reopen_repairs_tail_and_continues_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for ev in some_events(3):
            writer.append(ev)
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 4, "crc": 1, "ev"')            # torn record
        writer = JournalWriter(path)          # the relaunch
        assert writer.seq == 3                # fragment truncated away
        writer.append(some_events(1)[0])
        writer.close()
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["seq"] for rec in raw] == [1, 2, 3, 4]

    def test_append_after_close_raises(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.append(some_events(1)[0])

    def test_sink_adapter_feeds_writer(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        sink = JournalSink(JournalWriter(path))
        for ev in some_events(2):
            sink.emit(ev)
        sink.close()
        assert [e.kind for e in read_journal(path)] == [SUBMIT, EVAL_DONE]


def make_checkpoint():
    """A deterministic mid-run checkpoint (same idiom as the golden
    wire-format test): agents in flight, boundaries and caches live."""
    space = combo_small()
    surrogate = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                                TrainingCostModel.combo_paper(),
                                epochs=1, train_fraction=0.1,
                                timeout=600.0, seed=7)
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(32, 4, 3),
                       wall_time=30 * 60.0, seed=1,
                       checkpoint_every_records=24)
    search = NasSearch(space, surrogate, cfg)
    search.run()
    return search.checkpoints[len(search.checkpoints) // 2]


@pytest.fixture(scope="module")
def ckpt():
    return make_checkpoint()


class TestCheckpointGenerations:
    def test_save_load_round_trip(self, tmp_path, ckpt):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=17)
        assert path.name == "ckpt-00000001.json"
        loaded, integrity = gens.load_latest()
        assert loaded.fingerprint() == ckpt.fingerprint()
        assert integrity["journal_seq"] == 17

    def test_generation_is_pinned_v1_plus_integrity(self, tmp_path, ckpt):
        """The on-disk generation is exactly the pinned checkpoint v1
        payload plus one additive ``integrity`` key — guard-off readers
        of the v1 schema keep working on generation files."""
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=3)
        data = json.loads(path.read_text())
        integrity = data.pop("integrity")
        assert set(integrity) == {"sha256", "journal_seq"}
        assert data == json.loads(json.dumps(ckpt.to_json()))

    def test_prune_keeps_newest(self, tmp_path, ckpt):
        gens = CheckpointGenerations(tmp_path, keep=3)
        for seq in range(5):
            gens.save(ckpt, journal_seq=seq)
        names = [p.name for p in gens.paths()]
        assert names == ["ckpt-00000003.json", "ckpt-00000004.json",
                         "ckpt-00000005.json"]
        assert gens.load_latest()[1]["journal_seq"] == 4

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path, ckpt,
                                                    caplog):
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=1)
        newest = gens.save(ckpt, journal_seq=2)
        data = json.loads(newest.read_text())
        data["time"] = -12345.0               # bit rot after the sha stamp
        newest.write_text(json.dumps(data))
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            loaded, integrity = gens.load_latest()
        assert loaded.fingerprint() == ckpt.fingerprint()
        assert integrity["journal_seq"] == 1
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_torn_newest_falls_back(self, tmp_path, ckpt):
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=1)
        newest = gens.save(ckpt, journal_seq=2)
        newest.write_bytes(newest.read_bytes()[:100])   # torn mid-write
        assert gens.load_latest()[1]["journal_seq"] == 1

    def test_no_surviving_generation_returns_none(self, tmp_path, ckpt,
                                                  caplog):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=1)
        path.write_text("garbage")
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            assert gens.load_latest() is None

    def test_empty_directory(self, tmp_path):
        gens = CheckpointGenerations(tmp_path / "missing")
        assert gens.paths() == []
        assert gens.load_latest() is None


def eval_done(agent_id, arch_dict, reward=0.5, replayed=False, time=1.0):
    payload = {"arch": arch_dict, "reward": reward, "duration": 2.0,
               "params": 100, "failed": False}
    if replayed:
        payload["replayed"] = True
    return SearchEvent(EVAL_DONE, time, agent_id=agent_id, payload=payload)


class TestBuildReplay:
    def arch(self, space, rng_seed):
        import numpy as np
        rng = np.random.default_rng(rng_seed)
        return space.random_architecture(rng)

    def test_groups_by_agent_and_preserves_order(self):
        space = combo_small()
        a0 = self.arch(space, 0).to_dict()
        a1 = self.arch(space, 1).to_dict()
        replay = build_replay([eval_done(0, a0, reward=0.1),
                               eval_done(1, a1, reward=0.2),
                               eval_done(0, a1, reward=0.3)], None)
        assert sorted(replay) == [0, 1]
        assert [e.reward for e in replay[0]] == [0.1, 0.3]
        assert [e.reward for e in replay[1]] == [0.2]

    def test_skips_replayed_and_archless_records(self):
        space = combo_small()
        a0 = self.arch(space, 0).to_dict()
        events = [eval_done(0, a0, replayed=True),
                  SearchEvent(EVAL_DONE, 1.0, agent_id=0,
                              payload={"reward": 0.5}),       # no arch
                  eval_done(0, a0, reward=0.9)]
        replay = build_replay(events, None)
        assert [e.reward for e in replay[0]] == [0.9]

    def test_restart_truncates_to_real_evals(self):
        """An in-run resurrection trimmed the agent's records; resume
        must apply the same trim so post-restart re-executions in the
        stream are the continuation, not duplicates."""
        space = combo_small()
        archs = [self.arch(space, i).to_dict() for i in range(3)]
        events = [eval_done(0, archs[0], reward=0.1),
                  eval_done(0, archs[1], reward=0.2),
                  SearchEvent(RESTART, 5.0, agent_id=0,
                              payload={"real_evals": 1}),
                  eval_done(0, archs[2], reward=0.3)]
        replay = build_replay(events, None)
        assert [e.reward for e in replay[0]] == [0.1, 0.3]

    def test_empty_stream(self):
        assert build_replay([], None) == {}

    def test_old_journal_batch_gather_records_are_ignored(self, tmp_path):
        """Journals written while the broker still gathered plans carry
        a ``batch-stats`` record after every submit; read back from
        disk, they replay exactly like the stream without them."""
        space = combo_small()
        archs = [self.arch(space, i).to_dict() for i in range(2)]
        batch_stats = SearchEvent(
            "batch-stats", 0.0, agent_id=0,
            payload={"batch": 2, "distinct": 2, "plan_hits": 0,
                     "plan_misses": 2, "iso_hits": 0})
        current = [SearchEvent(SUBMIT, 0.0, agent_id=0,
                               payload={"count": 2}),
                   eval_done(0, archs[0], reward=0.1),
                   eval_done(0, archs[1], reward=0.2, time=2.0)]
        old = current[:1] + [batch_stats] + current[1:]
        writer = JournalWriter(tmp_path / JOURNAL_NAME)
        for event in old:
            writer.append(event)
        writer.close()
        from_disk = read_journal(tmp_path / JOURNAL_NAME)
        assert [e.kind for e in from_disk] == [e.kind for e in old]
        replay = build_replay(from_disk, None)
        assert replay == build_replay(current, None)
        assert [e.reward for e in replay[0]] == [0.1, 0.2]


class TestResumeDurableValidation:
    def test_requires_journal_dir(self):
        space = combo_small()
        with pytest.raises(ValueError, match="journal_dir"):
            resume_durable(space, None, SearchConfig(method="a3c"))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SearchConfig(method="a3c", journal_fsync_every=2)  # no dir
        with pytest.raises(ValueError):
            SearchConfig(method="a3c", checkpoint_every_records=0)
        cfg = SearchConfig(method="a3c", journal_dir=os.fspath(tmp_path),
                           journal_fsync_every=2,
                           checkpoint_every_records=6)
        assert cfg.journal_fsync_every == 2


class TestFreshRunInUsedJournalDir:
    """A fresh search must not append to a directory holding a run: a
    later resume would replay the old run's rewards into the new one."""

    def config(self, journal_dir):
        return SearchConfig(method="a3c",
                            allocation=NodeAllocation(10, 2, 3),
                            wall_time=3600.0, seed=3, backend="serial",
                            max_iterations=12, checkpoint_every_records=12,
                            journal_dir=os.fspath(journal_dir))

    def surrogate(self, space):
        return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                               TrainingCostModel.combo_paper(),
                               epochs=1, train_fraction=0.1,
                               timeout=600.0, seed=7)

    def test_refuses_dir_holding_a_finished_run(self, tmp_path):
        space = combo_small()
        cfg = self.config(tmp_path)
        full = NasSearch(space, self.surrogate(space), cfg).run()
        journal = tmp_path / JOURNAL_NAME
        before = journal.read_bytes()
        with pytest.raises(ValueError, match="resume_durable"):
            NasSearch(space, self.surrogate(space), cfg)
        assert journal.read_bytes() == before
        # the one way to continue it still works
        resumed = resume_durable(space, self.surrogate(space), cfg).run()
        assert resumed.fingerprint() == full.fingerprint()

    def test_refuses_dir_holding_only_a_generation(self, tmp_path, ckpt):
        CheckpointGenerations(tmp_path / GENERATIONS_DIR).save(
            ckpt, journal_seq=0)
        space = combo_small()
        with pytest.raises(ValueError, match="resume_durable"):
            NasSearch(space, self.surrogate(space), self.config(tmp_path))
