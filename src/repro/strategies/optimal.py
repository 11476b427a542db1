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

The moves out of a state are found without testing every concept
against every label.  A *pure* extent (all one reference label) is a
move exactly when it holds an unlabeled object; one that holds none
yields the state itself, which falls out with the states already seen,
so every pure extent is OR-ed in untested.  A *mixed* extent is a move
exactly when its unlabeled objects are nonempty and lie inside one
label, that is, when for some label it meets, the rest of it is already
labeled (again, if nothing of it is unlabeled the state itself falls
out).  Each state's new successors go into the seen set and the next
level in ascending order, one at a time, so the visited states, the
level order and the point where the budget trips are those of a search
that tests each successor in turn; growing the seen set one state at a
time also keeps its memory to what that search allocates.
"""

from __future__ import annotations

from repro.core.concepts import ConceptLattice
from repro.strategies.base import LabelMasks, Reference, StrategyOutcome


def optimal_cost(
    lattice: ConceptLattice,
    reference: Reference,
    max_states: int = 200_000,
) -> int | None:
    """Minimum total operations, or ``None`` if the budget is exhausted or
    no order can complete the labeling (non-well-formed lattice)."""
    masks = LabelMasks.of(lattice, reference)
    all_objects = masks.all_objects
    if not all_objects:
        return 0
    label_masks = [mask for _, mask in masks.label_masks]
    pure: list[int] = []
    # A mixed extent once per label it meets, with the rest of it
    # outside that label.
    mixed: list[tuple[int, int]] = []
    for extent in masks.extents:
        rests = [(extent, extent & ~mask) for mask in label_masks if extent & mask]
        if len(rests) == 1:
            pure.append(extent)
        else:
            mixed += rests

    seen = {0}
    frontier = [0]
    moves = 0
    while frontier:
        moves += 1
        next_frontier: list[int] = []
        for state in frontier:
            successors = {state | extent for extent in pure}
            successors.update([
                state | extent for extent, rest in mixed if rest & state == rest
            ])
            if all_objects in successors:
                return 2 * moves
            new = successors - seen
            # Adding the new states one by one would trip the budget
            # at the first state past it.
            if len(seen) + len(new) > max_states:
                return None
            # Ascending, so the cutoff never depends on set iteration
            # order; a list grows the seen set one state at a time.
            ordered = sorted(new)
            seen.update(ordered)
            next_frontier += ordered
        frontier = next_frontier
    return None


def optimal_strategy(
    lattice: ConceptLattice,
    reference: Reference,
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
