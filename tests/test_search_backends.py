"""Search-level backend parity: the full RL search driven through the
serial and process evaluation backends lands on bit-identical
trajectory fingerprints.

This is the acceptance check for the supervised process pool: in
deterministic mode (no injected faults) nothing observable may change
across the process boundary — worker scheduling and completion order
can differ, but actions, rewards, and policy updates cannot.  The
process legs are ``proc``-marked.
"""

import pytest

from repro.evaluator import ProcConfig
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig

METHODS = ("a3c", "a2c", "rdm", "ambs", "evolution")


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=7)


def run_search(space, method, backend, workers=1):
    cfg = SearchConfig(
        method=method, allocation=NodeAllocation(10, 2, 3),
        wall_time=3600.0, seed=1, backend=backend, max_iterations=3,
        proc=ProcConfig(workers=workers) if backend == "process" else None)
    return NasSearch(space, make_surrogate(space), cfg).run()


@pytest.fixture(scope="module")
def serial_runs(space):
    return {m: run_search(space, m, "serial") for m in METHODS}


class TestInlineBackendParity:
    def test_serial_backend_runs_all_agents(self, serial_runs):
        for method, res in serial_runs.items():
            assert res.num_evaluations > 0, method
            assert not res.preempted


@pytest.mark.proc
class TestProcessBackendSearchParity:
    @pytest.mark.parametrize("method", METHODS)
    def test_process_matches_serial(self, space, serial_runs, method):
        res = run_search(space, method, "process")
        assert res.num_evaluations > 0
        assert res.fingerprint() == serial_runs[method].fingerprint()

    def test_worker_stats_surface_in_result(self, space):
        res = run_search(space, "a3c", "process", workers=2)
        stats = res.worker_stats
        assert stats["worker_spawns"] >= 2
        assert stats["worker_crashes"] == 0
        assert stats["worker_timeouts"] == 0
        assert stats["quarantined"] == 0
