"""Property-based tests of the tabular benchmark layer.

Three families of invariants (hypothesis where the input space is worth
fuzzing, exhaustive checks where the space is exactly enumerable):

* **enumeration** — ``enumerate_space`` is exhaustive and duplicate-free
  for every capped paper space, matching the space's exact cardinality;
  stratified sampling yields exactly ``cap`` distinct valid
  architectures and is a pure function of (space, cap, seed);
* **persistence** — a table save/load round-trips bit-identically
  (rows, metadata, fingerprint), for any row content and any shard
  size, including through a resume-reopen;
* **serving** — ``TabularReward`` is referentially transparent: the
  same architecture maps to the same ``EvalResult`` across calls, agent
  seeds, fresh loads, and evaluator backends.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import ArchTable, TableRow, TableWriter, enumerate_space
from repro.bench.subspace import capped_space, enumeration_count
from repro.evaluator import ProcConfig, ProcessEvaluator, SerialEvaluator
from repro.nas.arch import Architecture
from repro.nas.plancache import SignatureResolver
from repro.nas.spaces import get_space
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import TabularReward

from _bench_common import capped_combo, sweep_combo_table

pytestmark = pytest.mark.bench


# -- enumeration -------------------------------------------------------
@pytest.mark.parametrize("space_name", ["combo-small", "uno-small",
                                        "nt3-small"])
def test_exhaustive_enumeration_matches_exact_cardinality(space_name):
    """Capped to 2 options per decision, every paper space is exactly
    enumerable: the stream is duplicate-free and its length equals both
    the rebuilt space's ``size`` and the closed-form product."""
    space = capped_space(get_space(space_name, scale=0.05), 2)
    dims = space.action_dims
    expected = math.prod(dims)
    assert space.size == expected
    assert all(d <= 2 for d in dims)

    seen = set()
    for arch in enumerate_space(space):
        assert arch.space == space.name
        assert len(arch.choices) == len(dims)
        assert all(0 <= c < d for c, d in zip(arch.choices, dims))
        seen.add(arch.choices)
    assert len(seen) == expected == enumeration_count(space)


@settings(max_examples=15, deadline=None)
@given(cap=st.integers(min_value=5, max_value=400),
       seed=st.integers(min_value=0, max_value=2**16))
def test_stratified_sample_is_exact_distinct_and_seeded(cap, seed):
    space = capped_combo()
    assert space.size > cap
    dims = space.action_dims
    first = [a.choices for a in enumerate_space(space, cap=cap, seed=seed)]
    assert len(first) == cap == enumeration_count(space, cap)
    assert len(set(first)) == cap
    for choices in first:
        assert all(0 <= c < d for c, d in zip(choices, dims))
    again = [a.choices for a in enumerate_space(space, cap=cap, seed=seed)]
    assert first == again
    other = [a.choices for a in enumerate_space(space, cap=cap,
                                                seed=seed + 1)]
    assert first != other


def test_cap_above_cardinality_falls_back_to_exhaustive():
    space = capped_space(get_space("combo-small", scale=0.05), 1)
    assert space.size == 1
    archs = list(enumerate_space(space, cap=100, seed=3))
    assert len(archs) == 1


# -- persistence -------------------------------------------------------
_row = st.builds(
    dict,
    reward=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    duration=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    params=st.integers(min_value=0, max_value=10**9),
    timed_out=st.booleans())


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(_row, min_size=0, max_size=25),
       shard_size=st.integers(min_value=1, max_value=7))
def test_table_roundtrip_is_bit_identical(tmp_path_factory, rows,
                                          shard_size):
    d = tmp_path_factory.mktemp("table")
    table_rows = [TableRow(sig=f"sig-{i:04d}", space="toy",
                           choices=(i, i % 3), **payload)
                  for i, payload in enumerate(rows)]
    with TableWriter(d, "toy", shard_size=shard_size,
                     metadata={"k": 1}) as writer:
        for row in table_rows:
            assert writer.append(row)

    loaded = ArchTable.load(d)
    assert loaded.space_name == "toy"
    assert loaded.metadata == {"k": 1}
    assert len(loaded) == len(table_rows)
    for row in table_rows:
        assert loaded.get(row.sig) == row
    # the fingerprint is a pure function of content: stable across
    # loads, and across a resume-reopen that adds nothing
    fp = loaded.fingerprint()
    assert ArchTable.load(d).fingerprint() == fp
    with TableWriter(d, "toy", shard_size=shard_size,
                     metadata={"k": 1}) as writer:
        for row in table_rows:
            assert not writer.append(row)   # everything already known
    assert ArchTable.load(d).fingerprint() == fp


def test_writer_rejects_mismatched_metadata_and_space(tmp_path):
    with TableWriter(tmp_path, "toy", metadata={"k": 1}) as writer:
        writer.append(TableRow("s", "toy", (0,), 0.5, 1.0, 10))
    with pytest.raises(ValueError, match="metadata"):
        TableWriter(tmp_path, "toy", metadata={"k": 2})
    with pytest.raises(ValueError, match="space"):
        TableWriter(tmp_path, "other", metadata={"k": 1})


# -- serving -----------------------------------------------------------
@pytest.fixture(scope="module")
def small_table(tmp_path_factory):
    d = tmp_path_factory.mktemp("bench_table")
    space, report = sweep_combo_table(d, cap=40, shard_size=16)
    assert report.evaluated > 0
    return d, space


def _reward(table_dir, space) -> TabularReward:
    return TabularReward.from_table_dir(
        table_dir, space, COMBO_PAPER_SHAPES, combo_head())


def test_tabular_reward_referentially_transparent(small_table):
    table_dir, space = small_table
    model = _reward(table_dir, space)
    archs = [Architecture(space.name, row.choices)
             for row in list(model.table.rows.values())[:10]]

    for arch in archs:
        baseline = model.evaluate(arch, agent_seed=0)
        # across calls and agent seeds
        for seed in (0, 1, 17, 12345):
            assert model.evaluate(arch, agent_seed=seed) == baseline
        # across fresh loads (independent processes see the same file)
        assert _reward(table_dir, space).evaluate(arch) == baseline


@pytest.mark.proc
def test_tabular_reward_identical_across_backends(small_table):
    table_dir, space = small_table
    archs = [Architecture(space.name, row.choices)
             for row in list(_reward(table_dir, space).table
                             .rows.values())[:12]]

    def rewards_via(evaluator):
        evaluator.add_eval_batch(archs)
        evaluator.wait_all()
        by_key = {rec.arch.choices: rec.result
                  for rec in evaluator.get_finished_evals()}
        evaluator.shutdown()
        return [by_key[a.choices] for a in archs]

    serial = rewards_via(SerialEvaluator(_reward(table_dir, space), 0,
                                         use_cache=False))
    pooled = rewards_via(ProcessEvaluator(_reward(table_dir, space), 3,
                                          config=ProcConfig(workers=2),
                                          use_cache=False))
    assert serial == pooled


def test_resolver_space_mismatch_is_rejected(small_table):
    from repro.problems.uno import UNO_PAPER_SHAPES, uno_head
    table_dir, space = small_table
    other = get_space("uno-small", scale=0.05)
    resolver = SignatureResolver(other, UNO_PAPER_SHAPES, uno_head())
    with pytest.raises(ValueError, match="space"):
        TabularReward(ArchTable.load(table_dir), resolver)
