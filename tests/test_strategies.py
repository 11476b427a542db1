"""The Section 4.2 labeling strategies and cost model."""

import pytest

from repro.core.batch import build_lattice_batch
from repro.core.context import FormalContext
from repro.core.trace_clustering import cluster_traces
from repro.strategies.base import (
    LabelingSimulator,
    StuckError,
    reference_labeling_from_fa,
)
from repro.strategies.baseline import baseline_cost
from repro.strategies.bottomup import bottom_up_strategy
from repro.strategies.expert import expert_strategy
from repro.strategies.optimal import optimal_cost, optimal_strategy
from repro.strategies.random_strategy import random_strategy, random_strategy_mean
from repro.strategies.runner import StrategyTable, best_of, evaluate_strategies
from repro.strategies.topdown import top_down_strategy
from repro.util.rng import make_rng


@pytest.fixture
def clustering(stdio_traces, stdio_reference):
    return cluster_traces(stdio_traces, stdio_reference)


@pytest.fixture
def lattice(clustering):
    return clustering.lattice


@pytest.fixture
def reference(stdio_labels):
    return dict(stdio_labels)


def check_complete(sim_labels, reference):
    assert sim_labels == reference


class TestSimulator:
    def test_visit_uniform_labels(self, lattice, reference):
        sim = LabelingSimulator(lattice, reference)
        # Find a concept whose traces are uniformly labeled.
        for c in lattice:
            extent = lattice.extent(c)
            if extent and len({reference[o] for o in extent}) == 1:
                assert sim.visit(c)
                assert sim.labels == {o: reference[o] for o in extent}
                break
        else:
            pytest.fail("no uniform concept in fixture")

    def test_visit_mixed_does_not_label(self, lattice, reference):
        sim = LabelingSimulator(lattice, reference)
        assert not sim.visit(lattice.top)
        assert sim.inspections == 1
        assert sim.labelings == 0

    def test_partial_reference_rejected(self, lattice):
        with pytest.raises(ValueError):
            LabelingSimulator(lattice, {0: "good"})

    def test_partial_reference_rejected_by_optimal(self, lattice):
        # The same check as every other strategy, not a bare KeyError
        # from regrouping the labels.
        with pytest.raises(ValueError, match="partial"):
            optimal_cost(lattice, {0: "good"})
        with pytest.raises(ValueError, match="partial"):
            optimal_strategy(lattice, {0: "good"})

    def test_reference_labeling_from_fa(self, stdio_traces, stdio_fixed, stdio_labels):
        derived = reference_labeling_from_fa(list(stdio_traces), stdio_fixed)
        assert derived == stdio_labels


class TestStrategiesComplete:
    """Every strategy reproduces the reference labeling exactly."""

    def test_top_down(self, lattice, reference):
        outcome = top_down_strategy(lattice, reference)
        assert outcome.completed
        assert outcome.cost == outcome.inspections + outcome.labelings

    def test_bottom_up(self, lattice, reference):
        assert bottom_up_strategy(lattice, reference).completed

    def test_random(self, lattice, reference):
        assert random_strategy(lattice, reference, make_rng(1)).completed

    def test_expert(self, lattice, reference):
        assert expert_strategy(lattice, reference).completed

    def test_final_labels_match_reference(self, lattice, reference):
        sim = LabelingSimulator(lattice, reference)
        while not sim.done():
            for c in lattice.bfs_top_down():
                if not sim.fully_labeled(c):
                    sim.visit(c)
        check_complete(sim.labels, reference)


class TestCostRelationships:
    def test_optimal_is_cheapest(self, lattice, clustering, reference):
        opt = optimal_cost(lattice, reference)
        assert opt is not None
        for strategy in (top_down_strategy, bottom_up_strategy, expert_strategy):
            assert strategy(lattice, reference).cost >= opt

    def test_expert_includes_verification(self, lattice, reference):
        with_checks = expert_strategy(lattice, reference)
        without = expert_strategy(lattice, reference, verification_ops=0)
        assert with_checks.cost == without.cost + 2

    def test_bottom_up_never_visits_unlabelable(self, lattice, reference):
        # Every bottom-up visit must label (on a well-formed lattice).
        outcome = bottom_up_strategy(lattice, reference)
        assert outcome.inspections == outcome.labelings

    def test_baseline_cost(self, stdio_traces):
        outcome = baseline_cost(stdio_traces)
        assert outcome.cost == 2 * len(stdio_traces)  # fixture has no dups
        assert baseline_cost(7).cost == 14


class TestStuck:
    @pytest.fixture
    def bad_lattice(self):
        # Two indistinguishable objects that need different labels.
        ctx = FormalContext(["o0", "o1"], ["a"], [{0}, {0}])
        return build_lattice_batch(ctx)

    def test_top_down_raises(self, bad_lattice):
        with pytest.raises(StuckError):
            top_down_strategy(bad_lattice, {0: "good", 1: "bad"})

    def test_bottom_up_raises(self, bad_lattice):
        with pytest.raises(StuckError):
            bottom_up_strategy(bad_lattice, {0: "good", 1: "bad"})

    def test_random_raises(self, bad_lattice):
        with pytest.raises(StuckError):
            random_strategy(bad_lattice, {0: "good", 1: "bad"}, make_rng(0))

    def test_expert_raises(self, bad_lattice):
        with pytest.raises(StuckError):
            expert_strategy(bad_lattice, {0: "good", 1: "bad"})

    def test_optimal_returns_none(self, bad_lattice):
        assert optimal_cost(bad_lattice, {0: "good", 1: "bad"}) is None


class TestOptimal:
    def test_trivial_uniform(self):
        ctx = FormalContext(["o0", "o1"], ["a"], [{0}, {0}])
        lattice = build_lattice_batch(ctx)
        assert optimal_cost(lattice, {0: "good", 1: "good"}) == 2

    def test_empty_context(self):
        ctx = FormalContext([], ["a"], [])
        lattice = build_lattice_batch(ctx)
        assert optimal_cost(lattice, {}) == 0

    def test_two_moves_needed(self):
        # Antichain of two objects, different labels.
        ctx = FormalContext(["o0", "o1"], ["a", "b"], [{0}, {1}])
        lattice = build_lattice_batch(ctx)
        assert optimal_cost(lattice, {0: "good", 1: "bad"}) == 4

    def test_budget_exhaustion_returns_none(self, lattice, reference):
        assert optimal_cost(lattice, reference, max_states=1) is None

    def test_strategy_wrapper(self, lattice, reference):
        outcome = optimal_strategy(lattice, reference)
        assert outcome is not None
        assert outcome.cost == optimal_cost(lattice, reference)

    def test_optimal_exploits_ordering(self):
        # Labeling the pure child first makes the parent's rest uniform:
        # 2 moves; any one-shot cover needs the same — but a greedy
        # biggest-first works too.  The point: optimal == 4 here, not 6.
        ctx = FormalContext(
            ["g1", "g2", "b1"],
            ["common", "badsig"],
            [{0}, {0}, {0, 1}],
        )
        lattice = build_lattice_batch(ctx)
        reference = {0: "good", 1: "good", 2: "bad"}
        assert optimal_cost(lattice, reference) == 4


class TestRandomMean:
    def test_mean_is_deterministic_given_seed(self, lattice, reference):
        m1 = random_strategy_mean(lattice, reference, trials=16, seed="s")
        m2 = random_strategy_mean(lattice, reference, trials=16, seed="s")
        assert m1 == m2

    def test_mean_at_least_optimal(self, lattice, reference):
        mean = random_strategy_mean(lattice, reference, trials=32)
        assert mean >= optimal_cost(lattice, reference)

    def test_bad_trials(self, lattice, reference):
        with pytest.raises(ValueError):
            random_strategy_mean(lattice, reference, trials=0)


class TestRunner:
    def test_best_of_no_worse_than_single(self, lattice, reference):
        single = top_down_strategy(lattice, reference).cost
        best = best_of(top_down_strategy, lattice, reference, 8, "x")
        assert best is not None and best <= single

    def test_evaluate_strategies_table(self, clustering, reference):
        table = evaluate_strategies(
            clustering, reference, name="stdio", random_trials=8, shuffle_trials=2
        )
        assert isinstance(table, StrategyTable)
        assert table.baseline == 2 * clustering.num_objects
        assert table.optimal is not None
        assert table.expert >= table.optimal
        row = table.as_row()
        assert row[0] == "stdio"
        assert len(row) == len(StrategyTable.HEADERS)

    def test_optimal_max_objects_declines(self, clustering, reference):
        table = evaluate_strategies(
            clustering,
            reference,
            random_trials=4,
            shuffle_trials=1,
            optimal_max_objects=2,
        )
        assert table.optimal is None
