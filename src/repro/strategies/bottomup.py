"""The Bottom-up strategy (Section 4.2).

Repeatedly visits a concept that is not FullyLabeled but whose children
are all FullyLabeled.  Such a concept's unlabeled traces are exactly its
*own* traces (those in no child), so on a well-formed lattice every visit
labels; if a visit fails to label, no order can succeed and the strategy
raises :class:`~repro.strategies.base.StuckError`.

Advantage: never visits a concept that is too general to label.
Disadvantage: misses opportunities to label many traces at once — on the
paper's loop-free specifications it degenerates to the Baseline, because
every identical-trace class surfaces as its own concept near the bottom.
"""

from __future__ import annotations

import random

from repro.core.concepts import ConceptLattice
from repro.strategies.base import LabelingSimulator, Reference, StrategyOutcome


def bottom_up_strategy(
    lattice: ConceptLattice,
    reference: Reference,
    rng: random.Random | None = None,
) -> StrategyOutcome:
    """Run Bottom-up to completion (or :class:`StuckError`)."""
    sim = LabelingSimulator(lattice, reference)
    extents = sim.extents
    # A concept's children are all FullyLabeled iff the union of their
    # extents holds no unlabeled object.
    below = [0] * len(extents)
    for c in lattice:
        for child in lattice.children[c]:
            below[c] |= extents[child]
    # Concepts with unlabeled objects; a concept that leaves never returns.
    live = list(zip(range(len(extents)), extents, below))
    while not sim.done():
        unlabeled = sim.unlabeled
        live = [row for row in live if row[1] & unlabeled]
        candidates = [c for c, _, under in live if not under & unlabeled]
        if not candidates:
            raise sim.stuck("no bottom-up candidate concept (internal error)")
        concept = rng.choice(candidates) if rng is not None else candidates[0]
        if not sim.visit(concept):
            raise sim.stuck(
                f"concept {concept}'s own traces are mixed; "
                "the lattice is not well-formed for this labeling"
            )
    return sim.outcome("bottom-up")
