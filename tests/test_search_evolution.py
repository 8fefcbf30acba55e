"""Tests for the aging-evolution comparator."""

import numpy as np
import pytest

from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, run_search
from repro.search.proposer import mutate_choices


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_reward(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           log_params_opt=6.5, seed=seed)


def evolution_config(population_size, tournament_size, minutes, seed):
    return SearchConfig(method="evolution",
                        population_size=population_size,
                        tournament_size=tournament_size,
                        wall_time=minutes * 60.0,
                        allocation=NodeAllocation(32, 4, 3), seed=seed)


def mutate(space, arch, rng):
    return space.decode(mutate_choices(space, arch.choices, rng))


class TestConfig:
    def test_defaults(self):
        cfg = SearchConfig(method="evolution")
        assert cfg.population_size == 50
        assert cfg.tournament_size == 10
        assert cfg.allocation == NodeAllocation.paper_256()

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=1)
        with pytest.raises(ValueError):
            SearchConfig(method="evolution", population_size=5,
                         tournament_size=6)


class TestMutation:
    def test_mutates_exactly_one_decision(self, space):
        rng = np.random.default_rng(0)
        parent = space.random_architecture(rng)
        for _ in range(20):
            child = mutate(space, parent, rng)
            diff = sum(a != b for a, b in
                       zip(parent.choices, child.choices))
            assert diff == 1

    def test_child_is_valid(self, space):
        rng = np.random.default_rng(1)
        parent = space.random_architecture(rng)
        child = mutate(space, parent, rng)
        space.decode(child.choices)  # raises if invalid


class TestRuns:
    def test_run_produces_records(self, space):
        cfg = evolution_config(12, 4, minutes=60, seed=1)
        res = run_search(space, make_reward(space), cfg)
        assert res.num_evaluations > 20
        assert all(-1.0 <= r.reward <= 1.0 for r in res.records)

    def test_population_bounded(self, space):
        cfg = evolution_config(10, 3, minutes=60, seed=1)
        search = NasSearch(space, make_reward(space), cfg)
        search.run()
        assert len(search.proposer.population()) <= 10

    def test_deterministic(self, space):
        cfg = evolution_config(10, 3, minutes=30, seed=5)
        keys = []
        for _ in range(2):
            res = run_search(space, make_reward(space), cfg)
            keys.append([(r.time, r.arch.key) for r in res.records])
        assert keys[0] == keys[1]

    def test_evolution_improves_over_random_start(self, space):
        cfg = evolution_config(16, 6, minutes=240, seed=2)
        res = run_search(space, make_reward(space), cfg)
        recs = sorted(res.records, key=lambda r: r.time)
        # baseline on the random warm-up era (proposals made while the
        # population was still filling), so the comparison holds however
        # quickly tournament selection converges afterwards
        warm = 2 * cfg.population_size
        first = float(np.mean([r.reward for r in recs[:warm]]))
        last = float(np.mean([r.reward for r in recs[-(len(recs) // 4):]]))
        assert last > first + 0.05
