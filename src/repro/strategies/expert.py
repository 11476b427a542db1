"""The simulated Expert (the paper's Table 3 "Expert" row).

The paper's expert is a human who "used a mostly top-down approach, but
sometimes directed his search based on transitions he found interesting",
and whose cost "includes choosing labels to ensure good generalization and
verifying that the learner generalized well".

We simulate that skill level with a greedy heuristic: at every step,
inspect-and-label the concept whose uniform unlabeled extent is largest
(an expert recognizes the big coherent cluster and deals with it first);
ties break toward higher concepts (larger extents — the top-down habit).
Two verification operations are added at the end for the Step 2b check
(viewing the inferred good FA, and the bad one, at the top of the
lattice).  The result is an idealized expert: at least as costly as
Optimal, usually far below Top-down, exactly the band the paper's human
lands in.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.concepts import ConceptLattice
from repro.strategies.base import LabelingSimulator, Reference, StrategyOutcome

#: Step 2b cost: the expert checks the learned "good" automaton and the
#: residual "bad" traces before declaring the labeling final.
VERIFICATION_OPS = 2


def expert_strategy(
    lattice: ConceptLattice,
    reference: Reference,
    verification_ops: int = VERIFICATION_OPS,
) -> StrategyOutcome:
    """Greedy largest-uniform-cluster labeling plus final verification."""
    sim = LabelingSimulator(lattice, reference)
    label_of = sim.masks.label_of
    sizes = [extent.bit_count() for extent in sim.extents]
    while not sim.done():
        best: int | None = None
        best_key: tuple[int, int] | None = None
        for concept, extent in enumerate(sim.extents):
            unlabeled = extent & sim.unlabeled
            if not unlabeled or label_of(unlabeled) is None:
                continue
            key = (unlabeled.bit_count(), sizes[concept])
            if best_key is None or key > best_key:
                best, best_key = concept, key
        if best is None:
            raise sim.stuck(
                "no uniform concept remains; "
                "the lattice is not well-formed for this labeling"
            )
        sim.visit(best)
    outcome = sim.outcome("expert")
    return replace(outcome, inspections=outcome.inspections + verification_ops)
