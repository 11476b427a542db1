"""The Ranked labeling strategy: suspicious concepts first.

Visits concepts in descending deviance order (repeating passes like the
other strategies), labeling a visited concept's unlabeled traces when
they deserve one label.  This models a user who lets an xgcc-style ranker
pick *where to look* while Cable's clustering still lets them decide
*en masse* — the combination Section 6 anticipates.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.trace_clustering import TraceClustering
from repro.rank.scores import concept_scores
from repro.strategies.base import LabelingSimulator, StrategyOutcome


def ranked_strategy(
    clustering: TraceClustering,
    reference: Mapping[int, str],
) -> StrategyOutcome:
    """Run the ranked strategy to completion (or :class:`StuckError`)."""
    lattice = clustering.lattice
    scores = concept_scores(clustering)
    order = sorted(lattice, key=lambda c: (-scores[c], c))
    sim = LabelingSimulator(lattice, reference)
    return sim.run_passes(
        lambda unlabeled: order,
        "ranked",
        "ranked strategy made a full pass without labeling; "
        "the lattice is not well-formed for this labeling",
    )
