"""Interactive lattice refinement (the paper's future-work direction).

Section 6: "it would be particularly interesting to explore interactive
algorithms, which would allow the user to fine-tune the concept lattice
as he uses it for labeling".  This module provides that fine-tuning
without abandoning the session:

:func:`refine_clustering` *apposes* a second reference FA to the current
one — the new formal context keeps the same objects and concatenates the
attribute universes (old transitions ⊎ new transitions), so every
distinction the old lattice made is preserved and the new FA's
distinctions are added.  Labels and object indices survive; only the
lattice is rebuilt.

Typical use: a concept's traces look mixed under the mined FA, so the
user apposes a Seed-order template on a suspicious event; where Focus
(Section 4.1) opens a *separate* sub-session, refinement sharpens the
*whole* session in place.
"""

from __future__ import annotations

from repro.cable.session import CableSession
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.core.trace_clustering import (
    TraceClustering,
    transition_attribute_names,
)
from repro.fa.automaton import FA, Transition
from repro.robustness.errors import InputError


def _combined_fa(first: FA, second: FA) -> FA:
    """A disjoint union of the two automata (fresh initial fan-out is not
    needed — the union is only used to *name* attributes; rows are
    computed per component)."""
    # Positional names keep the result serializable regardless of the
    # operands' state types.
    rename1 = {s: f"A{i}" for i, s in enumerate(first.states)}
    rename2 = {s: f"B{i}" for i, s in enumerate(second.states)}
    states = [rename1[s] for s in first.states] + [rename2[s] for s in second.states]
    transitions = [
        Transition(rename1[t.src], t.pattern, rename1[t.dst])
        for t in first.transitions
    ] + [
        Transition(rename2[t.src], t.pattern, rename2[t.dst])
        for t in second.transitions
    ]
    initial = [rename1[s] for s in first.initial] + [rename2[s] for s in second.initial]
    accepting = [rename1[s] for s in first.accepting] + [
        rename2[s] for s in second.accepting
    ]
    return FA(states, initial, accepting, transitions)


def refine_clustering(
    clustering: TraceClustering, extra_fa: FA
) -> TraceClustering:
    """Appose ``extra_fa``'s distinctions onto an existing clustering.

    Every trace class keeps its index; attributes become the disjoint
    union of the two FAs' transitions; rows are the union of each trace's
    executed transitions under each FA.  ``extra_fa`` must accept every
    representative (use a template — they accept everything over their
    event set — or check first).
    """
    from repro.parallel.relation import relation_map

    old_context = clustering.lattice.context
    offset = old_context.num_attributes
    rows = []
    relations = relation_map(extra_fa, clustering.representatives)
    for o, (trace, rel) in enumerate(zip(clustering.representatives, relations)):
        if not rel.accepted:
            raise InputError(
                "refinement FA rejects a trace class; refinement must keep "
                "every trace clusterable",
                trace_class=o,
                trace=str(trace),
            )
        rows.append(old_context.rows[o] | {offset + a for a in rel.executed})
    combined = _combined_fa(clustering.reference_fa, extra_fa)
    # The apposed context keeps the canonical attribute universe of the
    # combined FA, so a later extend_clustering sees a consistent scheme.
    context = FormalContext(
        old_context.objects, transition_attribute_names(combined), rows
    )
    return TraceClustering(
        reference_fa=combined,
        lattice=build_lattice_godin(context),
        representatives=clustering.representatives,
        class_counts=clustering.class_counts,
        class_members=clustering.class_members,
        rejected=clustering.rejected,
    )


def refine_session(session: CableSession, extra_fa: FA) -> int:
    """Refine an open session in place; labels and indices survive.

    Returns the number of concepts in the refined lattice.
    """
    session.clustering = refine_clustering(session.clustering, extra_fa)
    session.lattice = session.clustering.lattice
    return len(session.lattice)
