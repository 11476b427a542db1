"""The Optimal strategy: exact minimum-cost labeling.

Under the Section 4.2 cost model, a useful move is "inspect concept c and
label its unlabeled traces" (cost 2); an inspection that does not lead to a
labeling changes nothing and can never help, so the optimal cost is twice
the minimum number of concepts whose uniform unlabeled-trace sets cover
all objects *in some order* — a set-cover-flavored search over labeling
states.  (Like the paper's strategies, Optimal only labels unlabeled
traces with their correct label; Cable's relabeling moves are never needed
to *reach* a labeling and only enlarge the search space.)

The search is uniform-cost BFS over states (int masks of labeled
objects), visiting each level's states in a fixed order so the budget
cutoff is deterministic.  It is exponential in the worst case — the
paper reports that its own optimal-cost program "took too long to run"
for the four largest specifications — so a state budget caps the search
and ``None`` is returned on blow-up, which benchmarks display as the
paper's missing entries.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.concepts import ConceptLattice
from repro.strategies.base import StrategyOutcome, masks_by_label


def optimal_cost(
    lattice: ConceptLattice,
    reference: Mapping[int, str],
    max_states: int = 200_000,
) -> int | None:
    """Minimum total operations, or ``None`` if the budget is exhausted or
    no order can complete the labeling (non-well-formed lattice)."""
    num_objects = lattice.context.num_objects
    all_objects = (1 << num_objects) - 1
    extents = lattice.extent_masks
    uniform = tuple(masks_by_label(reference, num_objects).values())

    if not all_objects:
        return 0
    seen = {0}
    frontier = [0]
    moves = 0
    while frontier:
        moves += 1
        next_frontier: list[int] = []
        for state in frontier:
            free = ~state
            # A move labels a concept whose unlabeled objects are nonempty
            # and all of one label: they miss every unlabeled object of
            # the other labels.
            successors = {
                state | extent
                for others in [free & ~mask for mask in uniform]
                for extent in extents
                if extent & free and not extent & others
            }
            if all_objects in successors:
                return 2 * moves
            # Sorted, so the budget cutoff below never depends on set
            # iteration order.
            for new_state in sorted(successors):
                if new_state in seen:
                    continue
                seen.add(new_state)
                if len(seen) > max_states:
                    return None
                next_frontier.append(new_state)
        frontier = next_frontier
    return None


def optimal_strategy(
    lattice: ConceptLattice,
    reference: Mapping[int, str],
    max_states: int = 200_000,
) -> StrategyOutcome | None:
    """Like :func:`optimal_cost` but packaged as a strategy outcome."""
    cost = optimal_cost(lattice, reference, max_states=max_states)
    if cost is None:
        return None
    return StrategyOutcome(
        strategy="optimal",
        inspections=cost // 2,
        labelings=cost // 2,
        completed=True,
    )
