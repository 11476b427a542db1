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

The candidates are kept as a sorted list rather than found by a scan of
every concept at every visit.  A visit labels only traces whose object
concept is the visited one, so only that concept and its ancestors can
change status; the list is patched for them alone and stays the list a
scan would give, so a seeded run draws the same concepts.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort

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
    parents = lattice.parents
    # A concept's children are all FullyLabeled iff the union of their
    # extents holds no unlabeled object.
    below = [0] * len(extents)
    for c in lattice:
        for child in lattice.children[c]:
            below[c] |= extents[child]
    unlabeled = sim.unlabeled
    # The candidates in ascending order, as a scan of every concept
    # would list them.
    candidates = [
        c
        for c, (extent, under) in enumerate(zip(extents, below))
        if extent & unlabeled and not under & unlabeled
    ]
    while not sim.done():
        if not candidates:
            raise sim.stuck("no bottom-up candidate concept (internal error)")
        concept = rng.choice(candidates) if rng is not None else candidates[0]
        if not sim.visit(concept):
            raise sim.stuck(
                f"concept {concept}'s own traces are mixed; "
                "the lattice is not well-formed for this labeling"
            )
        # The visit labeled the concept's own traces, whose object
        # concept it is, so only it and its ancestors change.  It is
        # now FullyLabeled; no ancestor was a candidate (the concept
        # lay below it unlabeled), and one becomes a candidate when its
        # children are all FullyLabeled now and it is not.  Above a
        # concept with unlabeled traces nothing can be, so the climb
        # goes on only through FullyLabeled ancestors.
        del candidates[bisect_left(candidates, concept)]
        unlabeled = sim.unlabeled
        climb = list(parents[concept])
        reached = set(climb)
        while climb:
            ancestor = climb.pop()
            if extents[ancestor] & unlabeled:
                if not below[ancestor] & unlabeled:
                    insort(candidates, ancestor)
                continue
            for parent in parents[ancestor]:
                if parent not in reached:
                    reached.add(parent)
                    climb.append(parent)
    return sim.outcome("bottom-up")
