"""Differential tests: the int-mask labeling strategies ≡ the frozenset ones.

The labeling simulator and the Section 4.2 strategies run on int extent
masks for speed.  These tests pin that representation to the set
semantics: a frozenset reference simulator and frozenset copies of every
strategy are written out here, and on random contexts, reference
labelings and rng seeds the production strategies must agree with them
exactly — the same :class:`StrategyOutcome`, the same concepts visited in
the same order, the same final labels, the same :class:`StuckError`
behaviour and the same rng draws.
"""

from __future__ import annotations

import importlib
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.rank.strategy as rank_strategy_module
from repro import obs
import repro.strategies.bottomup as bottomup_module
import repro.strategies.expert as expert_module
import repro.strategies.topdown as topdown_module
from repro.core.batch import build_lattice_batch
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.core.trace_clustering import TraceClustering
from repro.rank.scores import concept_scores
from repro.strategies.base import (
    LabelingSimulator,
    LabelMasks,
    StrategyOutcome,
    StuckError,
)
from repro.strategies.optimal import optimal_cost
from repro.util.rng import make_rng

# The package re-exports a function under this submodule's name.
random_module = importlib.import_module("repro.strategies.random_strategy")


# --------------------------------------------------------------------- #
# reference semantics: the frozenset simulator and strategies
# --------------------------------------------------------------------- #


class RefSimulator:
    """The simulator over frozenset extents, straight from Section 4.2."""

    def __init__(self, lattice, reference):
        missing = lattice.context.all_objects - set(reference)
        if missing:
            raise ValueError(f"reference labeling is partial; missing {sorted(missing)}")
        self.lattice = lattice
        self.reference = reference
        self.labels: dict[int, str] = {}
        self.inspections = 0
        self.labelings = 0
        self.visited: list[int] = []

    def unlabeled_in(self, concept):
        return frozenset(o for o in self.lattice.extent(concept) if o not in self.labels)

    def fully_labeled(self, concept):
        return not self.unlabeled_in(concept)

    def done(self):
        return len(self.labels) == self.lattice.context.num_objects

    def visit(self, concept):
        self.inspections += 1
        self.visited.append(concept)
        unlabeled = self.unlabeled_in(concept)
        if not unlabeled:
            return False
        wanted = {self.reference[o] for o in unlabeled}
        if len(wanted) != 1:
            return False
        self.labelings += 1
        label = next(iter(wanted))
        for o in unlabeled:
            self.labels[o] = label
        return True

    def outcome(self, strategy):
        return StrategyOutcome(strategy, self.inspections, self.labelings, self.done())


def ref_passes(sim, name, order_of_pass):
    """Repeated passes over ``order_of_pass()`` until done."""
    while not sim.done():
        progressed = False
        for concept in order_of_pass():
            if sim.fully_labeled(concept):
                continue
            if sim.visit(concept):
                progressed = True
        if not progressed:
            raise StuckError(name)
    return sim.outcome(name)


def ref_top_down(sim, rng):
    lattice = sim.lattice

    def bfs():
        order, seen, queue = [lattice.top], {lattice.top}, deque([lattice.top])
        while queue:
            children = list(lattice.children[queue.popleft()])
            if rng is not None:
                rng.shuffle(children)
            for child in children:
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
        return order

    return ref_passes(sim, "top-down", bfs)


def ref_bottom_up(sim, rng):
    lattice = sim.lattice
    while not sim.done():
        candidates = [
            c
            for c in lattice
            if not sim.fully_labeled(c)
            and all(sim.fully_labeled(child) for child in lattice.children[c])
        ]
        if not candidates:
            raise StuckError("no candidate")
        concept = rng.choice(candidates) if rng is not None else candidates[0]
        if not sim.visit(concept):
            raise StuckError("mixed")
    return sim.outcome("bottom-up")


def ref_random(sim, rng):
    def shuffled():
        pending = [c for c in sim.lattice if not sim.fully_labeled(c)]
        rng.shuffle(pending)
        return pending

    return ref_passes(sim, "random", shuffled)


def ref_expert(sim, verification_ops=2):
    lattice = sim.lattice
    while not sim.done():
        best, best_key = None, None
        for concept in lattice:
            unlabeled = sim.unlabeled_in(concept)
            if not unlabeled or len({sim.reference[o] for o in unlabeled}) != 1:
                continue
            key = (len(unlabeled), len(lattice.extent(concept)))
            if best_key is None or key > best_key:
                best, best_key = concept, key
        if best is None:
            raise StuckError("no uniform concept")
        sim.visit(best)
    return StrategyOutcome(
        "expert", sim.inspections + verification_ops, sim.labelings, True
    )


def ref_ranked(sim, clustering):
    scores = concept_scores(clustering)
    order = sorted(sim.lattice, key=lambda c: (-scores[c], c))
    return ref_passes(sim, "ranked", lambda: order)


def ref_optimal_cost(lattice, reference):
    """Uniform-cost BFS over frozenset states, without a budget."""
    all_objects = lattice.context.all_objects
    extents = [lattice.extent(c) for c in lattice]
    if not all_objects:
        return 0
    seen = {frozenset()}
    frontier = [frozenset()]
    moves = 0
    while frontier:
        moves += 1
        next_frontier = []
        for state in frontier:
            for extent in extents:
                unlabeled = extent - state
                if not unlabeled or len({reference[o] for o in unlabeled}) != 1:
                    continue
                new_state = state | extent
                if new_state == all_objects:
                    return 2 * moves
                if new_state not in seen:
                    seen.add(new_state)
                    next_frontier.append(new_state)
        frontier = next_frontier
    return None


# --------------------------------------------------------------------- #
# running both sides
# --------------------------------------------------------------------- #


def run_ref(strategy, lattice, reference, *args):
    """``(outcome or "stuck", labels, visited concepts, labelings)``."""
    sim = RefSimulator(lattice, reference)
    try:
        outcome = strategy(sim, *args)
    except StuckError:
        outcome = "stuck"
    return outcome, sim.labels, sim.visited, sim.labelings


def run_masks(module, strategy, *args):
    """The same tuple for a production strategy, read off the simulator
    it builds; the simulator's ``visited`` log records the visits, both
    through :meth:`LabelingSimulator.visit` and the inlined pass loop."""
    made = []

    class Recording(LabelingSimulator):
        def __init__(self, *args):
            super().__init__(*args)
            self.visited = []
            made.append(self)

    with mock.patch.object(module, "LabelingSimulator", Recording):
        try:
            outcome = strategy(*args)
        except StuckError:
            outcome = "stuck"
    sim = made[-1]
    return outcome, sim.labels, sim.visited, sim.labelings


@st.composite
def labeled_lattices(draw):
    """A random context's lattice and a two- or three-label reference."""
    num_objects = draw(st.integers(min_value=0, max_value=7))
    num_attrs = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=num_attrs - 1)),
            min_size=num_objects,
            max_size=num_objects,
        )
    )
    context = FormalContext(
        [f"o{i}" for i in range(num_objects)],
        [f"a{i}" for i in range(num_attrs)],
        rows,
    )
    labels = ["good", "bad", "ugly"][: draw(st.integers(min_value=2, max_value=3))]
    reference = {
        o: draw(st.sampled_from(labels)) for o in range(num_objects)
    }
    return build_lattice_godin(context), reference


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIFFERENTIAL = settings(max_examples=150, deadline=None)


def rng_pair(seed):
    return random.Random(seed), random.Random(seed)


#: The strategies take the reference labeling as a mapping, or checked
#: once as :class:`LabelMasks`; both must behave the same.
AS_GIVEN = st.sampled_from(["mapping", "masks"])


def given_as(how, lattice, reference):
    return LabelMasks(lattice, reference) if how == "masks" else reference


class TestDifferential:
    @DIFFERENTIAL
    @given(labeled_lattices(), st.one_of(st.none(), SEEDS), AS_GIVEN)
    def test_top_down(self, case, seed, how):
        lattice, reference = case
        rng_ref, rng_masks = rng_pair(seed) if seed is not None else (None, None)
        expected = run_ref(ref_top_down, lattice, reference, rng_ref)
        got = run_masks(
            topdown_module,
            topdown_module.top_down_strategy,
            lattice,
            given_as(how, lattice, reference),
            rng_masks,
        )
        assert got == expected
        if seed is not None:
            assert rng_masks.random() == rng_ref.random()

    @DIFFERENTIAL
    @given(labeled_lattices(), st.one_of(st.none(), SEEDS), AS_GIVEN)
    def test_bottom_up(self, case, seed, how):
        lattice, reference = case
        rng_ref, rng_masks = rng_pair(seed) if seed is not None else (None, None)
        expected = run_ref(ref_bottom_up, lattice, reference, rng_ref)
        got = run_masks(
            bottomup_module,
            bottomup_module.bottom_up_strategy,
            lattice,
            given_as(how, lattice, reference),
            rng_masks,
        )
        assert got == expected
        if seed is not None:
            assert rng_masks.random() == rng_ref.random()

    @DIFFERENTIAL
    @given(labeled_lattices(), SEEDS, AS_GIVEN)
    def test_random(self, case, seed, how):
        lattice, reference = case
        rng_ref, rng_masks = rng_pair(seed)
        expected = run_ref(ref_random, lattice, reference, rng_ref)
        got = run_masks(
            random_module,
            random_module.random_strategy,
            lattice,
            given_as(how, lattice, reference),
            rng_masks,
        )
        assert got == expected
        assert rng_masks.random() == rng_ref.random()

    @DIFFERENTIAL
    @given(labeled_lattices(), AS_GIVEN)
    def test_expert(self, case, how):
        lattice, reference = case
        expected = run_ref(ref_expert, lattice, reference)
        got = run_masks(
            expert_module,
            expert_module.expert_strategy,
            lattice,
            given_as(how, lattice, reference),
        )
        assert got == expected

    @DIFFERENTIAL
    @given(labeled_lattices(), st.lists(st.integers(min_value=1), min_size=7, max_size=7))
    def test_ranked(self, case, counts):
        lattice, reference = case
        n = lattice.context.num_objects
        # Ranking reads only the lattice and the class frequencies.
        clustering = TraceClustering(
            reference_fa=None,
            lattice=lattice,
            representatives=(None,) * n,
            class_counts=tuple(counts[:n]),
            class_members=((),) * n,
            rejected=(),
        )
        expected = run_ref(ref_ranked, lattice, reference, clustering)
        got = run_masks(
            rank_strategy_module, rank_strategy_module.ranked_strategy, clustering, reference
        )
        assert got == expected

    @DIFFERENTIAL
    @given(labeled_lattices())
    def test_optimal(self, case):
        lattice, reference = case
        assert optimal_cost(lattice, reference) == ref_optimal_cost(lattice, reference)

    @DIFFERENTIAL
    @given(labeled_lattices(), st.lists(st.integers(min_value=0, max_value=40), max_size=25))
    def test_simulator_step_by_step(self, case, visits):
        lattice, reference = case
        ref = RefSimulator(lattice, reference)
        sim = LabelingSimulator(lattice, reference)
        for index in visits:
            concept = index % len(lattice)
            assert sim.fully_labeled(concept) == ref.fully_labeled(concept)
            assert sim.visit(concept) == ref.visit(concept)
            assert sim.labels == ref.labels
            assert sim.done() == ref.done()
        assert sim.outcome("s") == ref.outcome("s")

    @DIFFERENTIAL
    @given(labeled_lattices(), SEEDS, AS_GIVEN)
    def test_random_mean(self, case, seed, how):
        lattice, reference = case
        given_reference = given_as(how, lattice, reference)
        rng = make_rng(seed)
        costs = []
        for _ in range(4):
            outcome = run_ref(ref_random, lattice, reference, rng)[0]
            if outcome == "stuck":
                with pytest.raises(StuckError):
                    random_module.random_strategy_mean(lattice, given_reference, 4, seed)
                return
            costs.append(outcome.cost)
        got = random_module.random_strategy_mean(lattice, given_reference, 4, seed)
        assert got == sum(costs) / 4


# --------------------------------------------------------------------- #
# the strategy.* counters: bumped once per run, same totals
# --------------------------------------------------------------------- #


class TestCounters:
    @settings(max_examples=60, deadline=None)
    @given(labeled_lattices(), SEEDS)
    def test_totals_match_the_runs(self, case, seed):
        lattice, reference = case
        obs.configure(record=True)
        try:
            expected = {"inspections": 0, "labelings": 0, "traces_labeled": 0}
            for module, strategy, args in (
                (topdown_module, topdown_module.top_down_strategy, (random.Random(seed),)),
                (bottomup_module, bottomup_module.bottom_up_strategy, (random.Random(seed),)),
                (random_module, random_module.random_strategy, (random.Random(seed),)),
                (expert_module, expert_module.expert_strategy, ()),
            ):
                _, labels, visited, labelings = run_masks(
                    module, strategy, lattice, reference, *args
                )
                expected["inspections"] += len(visited)
                expected["labelings"] += labelings
                expected["traces_labeled"] += len(labels)
            counters = obs.get_registry().counters
            for name, total in expected.items():
                counter = counters.get(f"strategy.{name}")
                assert (counter.value if counter else 0) == total
        finally:
            obs.shutdown()


# --------------------------------------------------------------------- #
# Optimal's state budget is deterministic
# --------------------------------------------------------------------- #


class TestOptimalBudgetEdge:
    """Cases where one BFS level holds more new states than the budget.

    Whether the goal comes out before the state that trips the budget
    must not depend on set iteration order: the goal is checked before
    the budget, and each state's successors are visited in ascending
    order, so the answer is fixed.
    """

    def test_goal_in_level_beats_budget(self):
        # Nested extents {0} ⊂ {0,1} ⊂ ... ⊂ {0..4}, all one label: one
        # move labels everything, and four smaller one-move states
        # compete with it for the budget.
        rows = [set(range(o, 5)) for o in range(5)]
        context = FormalContext(
            [f"o{i}" for i in range(5)], [f"a{i}" for i in range(5)], rows
        )
        lattice = build_lattice_batch(context)
        reference = {o: "good" for o in range(5)}
        for budget in range(0, 6):
            assert optimal_cost(lattice, reference, max_states=budget) == 2

    def test_budget_cutoff_in_ascending_state_order(self):
        # Extents ∅, {0}, {0,1}, {2}, {0,1,2}; objects 0 and 1 are bad.
        # Optimal labels {0,1} then {2}: cost 4.  Level 1 adds the states
        # {0}, {0,1} and {2}, filling a budget of four with the start.
        # Level 2 expands {0} first, whose new state {0,2} trips the
        # budget before {0,1} reaches the goal; expanding in descending
        # order would have found the goal instead.
        context = FormalContext(
            ["o0", "o1", "o2"], ["a0", "a1", "a2", "a3"], [{0, 2, 3}, {2}, {1}]
        )
        lattice = build_lattice_batch(context)
        assert sorted(lattice.extent_masks) == [0b000, 0b001, 0b011, 0b100, 0b111]
        reference = {0: "bad", 1: "bad", 2: "good"}
        assert optimal_cost(lattice, reference) == 4
        assert optimal_cost(lattice, reference, max_states=5) == 4
        for _ in range(3):
            assert optimal_cost(lattice, reference, max_states=4) is None
