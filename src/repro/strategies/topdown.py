"""The Top-down strategy (Section 4.2).

Makes repeated lattice traversals, each visiting the not-FullyLabeled
concepts in breadth-first order from the top.  At every visited concept it
inspects the unlabeled traces and labels them if they all deserve the same
label.  Its advantage: it never wastes visits on concepts whose parent
already labeled everything; its disadvantage: it visits many concepts that
cannot be labeled yet because their traces are mixed.

Tie-breaking among BFS siblings is nondeterministic; the paper reports the
lowest observed cost, which :func:`repro.strategies.runner.best_of`
approximates by running with several shuffles.
"""

from __future__ import annotations

import random
from collections import deque

from repro.core.concepts import ConceptLattice
from repro.strategies.base import LabelingSimulator, Reference, StrategyOutcome


def _bfs_order(
    lattice: ConceptLattice, rng: random.Random | None
) -> list[int]:
    order = [lattice.top]
    seen = {lattice.top}
    queue = deque([lattice.top])
    while queue:
        node = queue.popleft()
        children = list(lattice.children[node])
        if rng is not None:
            rng.shuffle(children)
        for child in children:
            if child not in seen:
                seen.add(child)
                order.append(child)
                queue.append(child)
    return order


def top_down_strategy(
    lattice: ConceptLattice,
    reference: Reference,
    rng: random.Random | None = None,
) -> StrategyOutcome:
    """Run Top-down to completion; raises :class:`StuckError` when a full
    pass makes no progress (the lattice is not well-formed)."""
    sim = LabelingSimulator(lattice, reference)
    if rng is None:
        order = _bfs_order(lattice, None)

        def next_pass(unlabeled: int) -> list[int]:
            return order

    else:

        def next_pass(unlabeled: int) -> list[int]:
            return _bfs_order(lattice, rng)

    return sim.run_passes(
        next_pass,
        "top-down",
        "top-down made a full pass without labeling anything; "
        "the lattice is not well-formed for this labeling",
    )
