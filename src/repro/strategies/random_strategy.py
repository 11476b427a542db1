"""The Random strategy (Section 4.2).

Visits concepts in random order, never visiting FullyLabeled concepts,
and stops when every concept is FullyLabeled.  The paper reports the
arithmetic mean over 1024 trials; :func:`random_strategy_mean` reproduces
that measurement.
"""

from __future__ import annotations

import random
from collections.abc import Mapping

from repro.core.concepts import ConceptLattice
from repro.strategies.base import LabelingSimulator, StrategyOutcome, StuckError
from repro.util.rng import make_rng


def random_strategy(
    lattice: ConceptLattice,
    reference: Mapping[int, str],
    rng: random.Random,
) -> StrategyOutcome:
    """One random-order run (repeated random passes until done)."""
    sim = LabelingSimulator(lattice, reference)
    while not sim.done():
        unlabeled = sim.unlabeled
        pending = [c for c, extent in enumerate(sim.extents) if extent & unlabeled]
        rng.shuffle(pending)
        progressed = False
        for concept in pending:
            if sim.fully_labeled(concept):
                continue
            if sim.visit(concept):
                progressed = True
        if not progressed:
            raise StuckError(
                "random pass made no progress; "
                "the lattice is not well-formed for this labeling"
            )
    return sim.outcome("random")


def random_strategy_mean(
    lattice: ConceptLattice,
    reference: Mapping[int, str],
    trials: int = 1024,
    seed: int | str = "random-strategy",
) -> float:
    """Mean cost over ``trials`` random runs (the paper's 1024)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    rng = make_rng(seed)
    total = 0
    for _ in range(trials):
        total += random_strategy(lattice, reference, rng).cost
    return total / trials
