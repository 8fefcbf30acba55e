"""Tests for plan signatures and the sweep's compile cache
(repro.nas.plancache).

Isomorphic architectures share one signature and non-isomorphic ones do
not; :class:`PlanCache` is an exact ``(space, choices)`` map whose hits
return the compiled object; and a search leaves the reward model without
a cache on every backend (only the space sweep attaches one).  The
``perf``-marked :class:`TestKernelPerf` adds one coarse wall-clock
claim: a warm cache hit is far cheaper than a fresh compile.
"""

import time

import numpy as np
import pytest

from repro.evaluator import ProcConfig
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.builder import compile_architecture
from repro.nas.nodes import VariableNode
from repro.nas.plancache import PlanCache, plan_signature
from repro.nas.space import Block, Cell, Structure
from repro.nas.spaces import combo_small
from repro.nas.ops import DenseOp, DropoutOp
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import SearchConfig, run_search

SHAPES = {"x": (8,)}


def dup_space():
    """One variable node whose option list repeats an operation, so
    choices 0 and 1 decode to structurally identical networks while
    choice 2 does not."""
    s = Structure("dup", ["x"], output_sources="last_cell")
    node = VariableNode("N0", [DenseOp(16), DenseOp(16), DenseOp(32)])
    s.add_cell(Cell("C0").add_block(Block("B0", ["x"]).add_node(node)))
    s.validate()
    return s


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


def small_config(minutes=20, **kwargs):
    defaults = dict(method="a3c", allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestPlanSignature:
    def test_isomorphic_choices_same_signature(self):
        s = dup_space()
        p0 = compile_architecture(s, (0,), SHAPES)
        p1 = compile_architecture(s, (1,), SHAPES)
        assert p0 is not p1
        assert plan_signature(p0) == plan_signature(p1)

    def test_different_ops_different_signature(self):
        s = dup_space()
        p0 = compile_architecture(s, (0,), SHAPES)
        p2 = compile_architecture(s, (2,), SHAPES)
        assert plan_signature(p0) != plan_signature(p2)

    def test_signature_deterministic(self):
        space = combo_small()
        rng = np.random.default_rng(3)
        for _ in range(5):
            arch = space.random_architecture(rng)
            plans = [compile_architecture(space, arch.choices,
                                          COMBO_PAPER_SHAPES, combo_head())
                     for _ in range(2)]
            assert plan_signature(plans[0]) == plan_signature(plans[1])

    def test_op_params_distinguish(self):
        # same op type, different constructor state -> different plan
        s1 = Structure("d1", ["x"])
        s1.add_cell(Cell("C0").add_block(
            Block("B0", ["x"]).add_node(VariableNode("N0", [DropoutOp(0.1)]))))
        s2 = Structure("d1", ["x"])
        s2.add_cell(Cell("C0").add_block(
            Block("B0", ["x"]).add_node(VariableNode("N0", [DropoutOp(0.5)]))))
        p1 = compile_architecture(s1, (0,), SHAPES)
        p2 = compile_architecture(s2, (0,), SHAPES)
        assert plan_signature(p1) != plan_signature(p2)


class TestPlanCache:
    def test_exact_hit_returns_same_object(self):
        cache = PlanCache()
        s = dup_space()
        p = cache.get_or_compile(s, (0,), SHAPES)
        assert cache.get_or_compile(s, (0,), SHAPES) is p
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_non_isomorphic_architectures_do_not_share(self):
        cache = PlanCache()
        s = dup_space()
        p0 = cache.get_or_compile(s, (0,), SHAPES)
        p2 = cache.get_or_compile(s, (2,), SHAPES)
        assert p2 is not p0
        assert cache.stats() == {"entries": 2, "hits": 0, "misses": 2}

    def test_numpy_choices_normalized(self):
        cache = PlanCache()
        s = dup_space()
        p = cache.get_or_compile(s, (np.int64(0),), SHAPES)
        assert cache.get_or_compile(s, (0,), SHAPES) is p

    def test_compile_error_propagates_and_not_cached(self):
        cache = PlanCache()
        s = dup_space()
        with pytest.raises(KeyError):
            cache.get_or_compile(s, (0,), {"wrong_input": (8,)})
        assert len(cache) == 0
        with pytest.raises(KeyError):   # still re-attemptable, still raises
            cache.get_or_compile(s, (0,), {"wrong_input": (8,)})

    def test_max_entries_bounds_memory(self):
        cache = PlanCache(max_entries=2)
        s = dup_space()
        for choice in (0, 1, 2):
            cache.get_or_compile(s, (choice,), SHAPES)
        assert len(cache) <= 2


@pytest.mark.proc
class TestSearchIntegration:
    def test_search_leaves_plan_cache_none(self):
        """No backend attaches a compile cache to the search's reward
        model: the agent-local evaluation cache removes repeats, so a
        plan cache would only answer second lookups of one arch."""
        space = combo_small()
        for backend in ("serial", "balsam", "process"):
            surrogate = make_surrogate(space)
            cfg = small_config(
                allocation=NodeAllocation(8, 2, 2), backend=backend,
                max_iterations=None if backend == "balsam" else 2,
                proc=ProcConfig(workers=1) if backend == "process" else None)
            result = run_search(space, surrogate, cfg)
            assert result.records, backend
            assert surrogate.plan_cache is None, backend


@pytest.mark.perf
class TestKernelPerf:
    """Coarse wall-clock claims with wide margins; tier ``perf`` keeps
    them out of the fast inner loop on noisy machines."""

    @staticmethod
    def _best_ms(fn, repeats=20):
        fn()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    def test_plan_cache_hit_much_faster_than_compile(self):
        space = combo_small()
        head = combo_head()
        cache = PlanCache()
        rng = np.random.default_rng(0)
        archs = [space.random_architecture(rng) for _ in range(20)]
        for a in archs:
            cache.get_or_compile(space, a.choices, COMBO_PAPER_SHAPES, head)

        cold = self._best_ms(lambda: [
            compile_architecture(space, a.choices, COMBO_PAPER_SHAPES, head)
            for a in archs])
        warm = self._best_ms(lambda: [
            cache.get_or_compile(space, a.choices, COMBO_PAPER_SHAPES, head)
            for a in archs])
        assert warm * 5 < cold     # measured ~40x; 5x is the safety floor
