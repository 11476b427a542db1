"""Deviance scores for trace classes and concepts.

The heuristic is the classic deviant-behavior observation behind xgcc's
ranking (and behind coring): bugs are usually the road less traveled, so
a trace class whose accepting paths exercise *rare* transitions is more
likely erroneous.  Scores are in [0, 1]:

* ``transition_support(clustering)[a]`` — the fraction of all observed
  traces (duplicates included: frequency matters) whose class executes
  transition ``a``;
* ``class_deviance(clustering)[o]`` — the larger of two rarity signals:
  one minus the support of the rarest transition the class executes
  (catches *commission* bugs: a wrong call), and one minus the class's
  own frequency (catches *omission* bugs such as leaks, which execute
  only common transitions but occur rarely);
* ``concept_scores(clustering)[c]`` — the *mean* deviance of the
  concept's extent, so small deviant clusters surface first while big
  mainstream clusters sink;
* ``rank_concepts(clustering)`` — the concepts with traces in that
  order, the one order the Cable ``rank`` command and verb show.

Unlike coring, ranking never deletes anything — it only orders the
user's attention, which is why it composes with Cable instead of
competing with it (a frequent bug ranks low but is still inspected).
"""

from __future__ import annotations

from repro.core.trace_clustering import TraceClustering


def transition_support(clustering: TraceClustering) -> dict[int, float]:
    """Fraction of observed traces executing each transition."""
    context = clustering.lattice.context
    total = sum(clustering.class_counts)
    support: dict[int, float] = {}
    for a in range(context.num_attributes):
        weight = sum(
            clustering.class_counts[o] for o in context.columns[a]
        )
        support[a] = weight / total if total else 0.0
    return support


def class_deviance(clustering: TraceClustering) -> dict[int, float]:
    """Deviance of each trace class (max of the two rarity signals)."""
    context = clustering.lattice.context
    support = transition_support(clustering)
    total = sum(clustering.class_counts)
    out: dict[int, float] = {}
    for o in range(context.num_objects):
        row = context.rows[o]
        transition_rarity = (
            1.0 - min(support[a] for a in row) if row else 0.0
        )
        class_rarity = (
            1.0 - clustering.class_counts[o] / total if total else 0.0
        )
        out[o] = max(transition_rarity, class_rarity)
    return out


def concept_scores(clustering: TraceClustering) -> dict[int, float]:
    """Mean extent deviance per concept (empty concepts score 0)."""
    lattice = clustering.lattice
    deviance = class_deviance(clustering)
    scores: dict[int, float] = {}
    for c in lattice:
        extent = lattice.extent(c)
        if not extent:
            scores[c] = 0.0
            continue
        scores[c] = sum(deviance[o] for o in extent) / len(extent)
    return scores


def rank_concepts(clustering: TraceClustering) -> list[tuple[int, float, int]]:
    """The concepts with traces, most suspicious first (ties by id), as
    ``(concept, score, number of trace classes)``."""
    scores = concept_scores(clustering)
    extents = clustering.lattice.extent_masks
    ranked = sorted(
        (c for c, extent in enumerate(extents) if extent),
        key=lambda c: (-scores[c], c),
    )
    return [(c, scores[c], extents[c].bit_count()) for c in ranked]
