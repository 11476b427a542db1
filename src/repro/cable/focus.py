"""Focus sub-sessions (Section 4.1).

``Focus`` starts a sub-session on a single concept's traces, clustered
under a *different* reference FA (typically one of the templates of
:mod:`repro.fa.templates`).  The user labels inside the sub-session; when
the session ends, the labels are merged back into the parent.

The sub-session is itself a full :class:`~repro.cable.session.CableSession`,
so focusing nests.  Traces the new reference FA rejects cannot be
clustered under it; they are tracked in :attr:`unclustered` and stay for
the parent session (or hand labeling) to deal with — this situation is
exactly what Section 4.3 describes for non-well-formed lattices.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.serialization import fa_from_text
from repro.fa.templates import name_projection_fa, seed_order_fa, unordered_fa
from repro.lang.traces import Trace
from repro.robustness.errors import InputError

#: What each Focus template but ``unordered`` takes as its argument.
_TEMPLATE_ARGS = {
    "seed": "a seed event",
    "name": "a name variable",
    "fa": "FA text",
    "regex": "an expression",
}

#: The Focus templates :func:`template_fa` resolves.
TEMPLATES = ("unordered", *_TEMPLATE_ARGS)


def template_fa(template: object, arg: object, traces: Iterable[Trace]) -> FA:
    """The reference FA a Focus (or refinement) request names.

    ``unordered``, ``seed`` and ``name`` are the templates of
    :mod:`repro.fa.templates` over the events of ``traces``; ``arg`` is
    the seed event or the name variable.  ``fa`` takes FA text and
    ``regex`` a regular expression as ``arg``.  A bad request raises
    :class:`~repro.robustness.errors.InputError`.
    """
    if template not in TEMPLATES:
        raise InputError(
            "unknown focus template", template=template, known=list(TEMPLATES)
        )
    if template != "unordered" and (not isinstance(arg, str) or not arg.strip()):
        raise InputError(
            f"focus template {template!r} needs {_TEMPLATE_ARGS[template]} "
            "as its argument",
            arg=arg,
        )
    if template == "fa":
        return fa_from_text(arg)
    if template == "regex":
        from repro.fa.regex import compile_regex

        return compile_regex(arg)
    symbols = sorted({str(e) for t in traces for e in t})
    if template == "seed":
        return seed_order_fa(symbols, arg)
    if template == "name":
        return name_projection_fa(symbols, arg)
    return unordered_fa(symbols)


class FocusSession(CableSession):
    """A Cable sub-session over a subset of the parent's traces.

    The subset is normally one concept's extent (the paper's Focus
    command); passing ``objects`` instead supports the Section 4.3
    ``mixed`` workflow, where the traces of concepts that could not be
    labeled en masse are re-clustered under a different FA — see
    :meth:`repro.cable.session.CableSession.focus_label`.
    """

    def __init__(
        self,
        parent: CableSession,
        concept: int | None,
        reference_fa: FA,
        objects: "list[int] | None" = None,
    ) -> None:
        self.parent = parent
        self.parent_concept = concept
        if objects is not None:
            parent_objects = sorted(objects)
        elif concept is not None:
            parent_objects = sorted(parent.lattice.extent(concept))
        else:
            raise ValueError("focus needs a concept or an object set")
        traces = [
            parent.clustering.representatives[o] for o in parent_objects
        ]
        clustering = cluster_traces(traces, reference_fa)
        super().__init__(clustering, learner=parent._learner)
        # Map local object indices back to parent object indices.  The
        # sub-clustering preserves the order of accepted traces, so walk
        # both lists in step.
        accepted_keys = [t.key() for t in clustering.representatives]
        self._to_parent: list[int] = []
        cursor = 0
        for key in accepted_keys:
            while traces[cursor].key() != key:
                cursor += 1
            self._to_parent.append(parent_objects[cursor])
            cursor += 1
        clustered = set(self._to_parent)
        self.unclustered: frozenset[int] = frozenset(
            o for o in parent_objects if o not in clustered
        )
        # Carry existing parent labels into the sub-session so PartlyLabeled
        # state is visible while focused (not as acts to undo there).
        self.labels.restore(
            (local, parent.labels.label_of(parent_obj))
            for local, parent_obj in enumerate(self._to_parent)
        )

    def end(self) -> int:
        """Close the sub-session, merging labels back into the parent.

        Returns the number of parent trace classes whose label changed.
        The merge is one act in the parent's history, so one ``undo``
        there takes all of it back.  The sub-session's operation counts
        are added to the parent's (a focused inspection is still an
        inspection the user performed).
        """
        merged: dict[int, str] = {}
        for local, parent_obj in enumerate(self._to_parent):
            label = self.labels.label_of(local)
            if label is not None and self.parent.labels.label_of(parent_obj) != label:
                merged[parent_obj] = label
        if merged:
            self.parent.labels.assign_each(merged)
        self.parent.ops.inspections += self.ops.inspections
        self.parent.ops.labelings += self.ops.labelings
        return len(merged)
