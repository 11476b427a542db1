"""The Random strategy (Section 4.2).

Visits concepts in random order, never visiting FullyLabeled concepts,
and stops when every concept is FullyLabeled.  The paper reports the
arithmetic mean over 1024 trials; :func:`random_strategy_mean` reproduces
that measurement.
"""

from __future__ import annotations

import random

from repro.core.concepts import ConceptLattice
from repro.strategies.base import (
    LabelingSimulator,
    LabelMasks,
    Reference,
    StrategyOutcome,
)
from repro.util.rng import make_rng


def random_strategy(
    lattice: ConceptLattice,
    reference: Reference,
    rng: random.Random,
) -> StrategyOutcome:
    """One random-order run (repeated random passes until done)."""
    sim = LabelingSimulator(lattice, reference)
    extents = sim.extents

    def shuffled(unlabeled: int) -> list[int]:
        pending = [c for c, extent in enumerate(extents) if extent & unlabeled]
        rng.shuffle(pending)
        return pending

    return sim.run_passes(
        shuffled,
        "random",
        "random pass made no progress; "
        "the lattice is not well-formed for this labeling",
    )


def random_strategy_mean(
    lattice: ConceptLattice,
    reference: Reference,
    trials: int = 1024,
    seed: int | str = "random-strategy",
) -> float:
    """Mean cost over ``trials`` random runs (the paper's 1024)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    masks = LabelMasks.of(lattice, reference)
    rng = make_rng(seed)
    total = 0
    for _ in range(trials):
        total += random_strategy(lattice, masks, rng).cost
    return total / trials
