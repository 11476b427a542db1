"""Cable sessions: the debugging workflow of Section 4.1.

A session tracks labels over the trace classes of a
:class:`~repro.core.trace_clustering.TraceClustering` and exposes Cable's
operations:

* ``inspect`` — view a concept's summary (counted as one user operation);
* ``label_traces`` — the *Label traces* command: give one label to a
  selection of a concept's traces (all / only unlabeled / only those with
  a given label), replacing existing labels;
* ``show_fa`` / ``show_transitions`` / ``show_traces`` — the three summary
  views, each supporting the same selections;
* ``focus`` — open a sub-session that re-clusters one concept's traces
  under a different FA; ending it merges the labels back.

The session counts inspect and label operations, which is the cost model
of Section 4.2.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.cable.labels import LabelStore
from repro.cable.views import ConceptState, ConceptSummary
from repro.core.context import iter_bits, set_of
from repro.core.trace_clustering import TraceClustering
from repro.fa.automaton import FA
from repro.lang.traces import Trace
from repro.robustness.errors import InputError
from repro.learners.sk_strings import learn_sk_strings

if TYPE_CHECKING:
    from repro.robustness.budget import Budget

#: A selection of a concept's traces: "all", "unlabeled", or
#: ("label", <label>) for the traces currently carrying <label>.
Selection = str | tuple[str, str]


class SelectionError(InputError):
    """Raised when a selection is malformed or selects no traces.

    An :class:`InputError` (so ``except ReproError`` at the API
    boundary catches it) that is still a ``ValueError`` for callers
    holding on to the historical contract.
    """


def parse_selection(raw: object, default: Selection = "all") -> Selection:
    """A selection from its text form: ``"all"``, ``"unlabeled"``, or
    ``"=LABEL"``; ``None`` gives ``default``.  Anything else raises
    :class:`SelectionError`."""
    if raw is None:
        return default
    if raw in ("all", "unlabeled"):
        return raw
    if isinstance(raw, str) and raw.startswith("="):
        return ("label", raw[1:])
    raise SelectionError(
        f"bad selection {raw!r} (use all|unlabeled|=LABEL)"
    )


@dataclass
class OperationCount:
    """Cable operations performed so far (Section 4.2's cost model)."""

    inspections: int = 0
    labelings: int = 0

    @property
    def total(self) -> int:
        return self.inspections + self.labelings


class CableSession:
    """One debugging session over a trace clustering."""

    def __init__(
        self,
        clustering: TraceClustering,
        learner: Callable[[Sequence[Trace]], FA] | None = None,
        jobs: int | None = None,
        retries: int | None = None,
        on_fault: str = "raise",
    ) -> None:
        self.clustering = clustering
        self.lattice = clustering.lattice
        self.labels = LabelStore(clustering.num_objects)
        #: Chronological log of explicit labeling acts as ``(concept,
        #: label)`` pairs.  The label store keeps only the final label per
        #: trace; the log preserves the acts themselves, which is what the
        #: label-flow analysis (:mod:`repro.analysis.semantic.labelflow`)
        #: replays to detect contradictions the store silently resolves.
        #: Concepts are logged non-negative: a negative index counts from
        #: an end that :meth:`add_traces` moves, so the entry points
        #: resolve it with ``check_index`` first.
        self.label_log: list[tuple[int, str]] = []
        #: Traces this session has taken in: its clustered corpus plus
        #: every :meth:`add_traces` batch.  :meth:`new_trace_ids` numbers
        #: from it, so an added trace never reuses an id; it is saved with
        #: the session.
        self.traces_added = sum(clustering.class_counts) + len(
            clustering.rejected
        )
        self.ops = OperationCount()
        #: Worker count for the relation fan-out of incremental updates
        #: (``None``/``1`` = serial, ``0`` = one per CPU); the CLI's
        #: ``--jobs`` lands here.
        self.jobs = jobs
        #: Supervision knobs for those fan-outs — ``--retries`` /
        #: ``--on-fault`` from the CLI (see
        #: :mod:`repro.robustness.supervise`).
        self.retries = retries
        self.on_fault = on_fault
        self._learner = learner or (
            lambda traces: learn_sk_strings(traces, k=2, s=1.0).fa
        )

    # ------------------------------------------------------------------ #
    # selections
    # ------------------------------------------------------------------ #

    def _select(self, concept: int, which: Selection) -> frozenset[int]:
        extent = self.lattice.extent_masks[self.lattice.check_index(concept)]
        if which == "all":
            return set_of(extent)
        if which == "unlabeled":
            return set_of(extent & self.labels.unlabeled_mask)
        if (
            isinstance(which, tuple)
            and len(which) == 2
            and which[0] == "label"
        ):
            return self.labels.with_label(which[1], iter_bits(extent))
        raise SelectionError(f"bad selection: {which!r}")

    # ------------------------------------------------------------------ #
    # states
    # ------------------------------------------------------------------ #

    def concept_state(self, concept: int) -> ConceptState:
        """Unlabeled / PartlyLabeled / FullyLabeled (empty ⇒ FullyLabeled)."""
        extent = self.lattice.extent_masks[self.lattice.check_index(concept)]
        unlabeled = extent & self.labels.unlabeled_mask
        if not unlabeled:
            return ConceptState.FULLY_LABELED
        if unlabeled == extent:
            return ConceptState.UNLABELED
        return ConceptState.PARTLY_LABELED

    def concepts_in_state(self, state: ConceptState) -> list[int]:
        return [c for c in self.lattice if self.concept_state(c) == state]

    def done(self) -> bool:
        """True once every trace has a label."""
        return self.labels.all_labeled()

    # ------------------------------------------------------------------ #
    # user operations (counted)
    # ------------------------------------------------------------------ #

    def inspect(self, concept: int) -> ConceptSummary:
        """View a concept; counts as one operation."""
        concept = self.lattice.check_index(concept)
        self.ops.inspections += 1
        obs.inc("cable.inspections")
        extent = self.lattice.extent_masks[concept]
        return ConceptSummary(
            concept=concept,
            state=self.concept_state(concept),
            num_traces=extent.bit_count(),
            num_unlabeled=(extent & self.labels.unlabeled_mask).bit_count(),
            labels_present=self.labels.labels_in(iter_bits(extent)),
            similarity=self.lattice.similarity(concept),
            transitions=tuple(
                self.clustering.transitions_of(
                    iter_bits(self.lattice.intent_masks[concept])
                )
            ),
            children=self.lattice.children[concept],
            parents=self.lattice.parents[concept],
        )

    def label_traces(
        self, concept: int, label: str, which: Selection = "unlabeled"
    ) -> int:
        """The *Label traces* command; counts as one operation.

        Assigns ``label`` to the selected traces of ``concept`` (replacing
        any labels they carried).  Returns the number of trace classes
        affected; an empty selection is an error — the operation would be
        meaningless and the strategies must not get it for free.
        """
        concept = self.lattice.check_index(concept)
        selected = self._select(concept, which)
        if not selected:
            raise SelectionError(
                f"selection {which!r} of concept {concept} is empty"
            )
        self.ops.labelings += 1
        obs.inc("cable.labelings")
        obs.inc("cable.traces_labeled", len(selected))
        self.labels.assign(selected, label)
        self.label_log.append((concept, label))
        return len(selected)

    # ------------------------------------------------------------------ #
    # summary views (not counted: the cost model counts the *inspect*,
    # and a user looks at one or more views per inspection)
    # ------------------------------------------------------------------ #

    def show_fa(self, concept: int, which: Selection = "all") -> FA:
        """An FA summarizing the selected traces (sk-strings by default)."""
        concept = self.lattice.check_index(concept)
        selected = self._select(concept, which)
        if not selected:
            raise SelectionError(
                f"selection {which!r} of concept {concept} is empty"
            )
        return self._learner(self.clustering.traces_of(selected))

    def show_transitions(
        self, concept: int, which: Selection = "all"
    ) -> list[str]:
        """The transitions shared by the selected traces.

        For the whole concept this is its intent; for a sub-selection it is
        σ of the selected objects.
        """
        concept = self.lattice.check_index(concept)
        selected = self._select(concept, which)
        if not selected:
            raise SelectionError(
                f"selection {which!r} of concept {concept} is empty"
            )
        shared = self.lattice.context.sigma(selected)
        return self.clustering.transitions_of(shared)

    def show_traces(self, concept: int, which: Selection = "all") -> list[Trace]:
        """The selected traces themselves (one representative per class)."""
        return self.clustering.traces_of(self._select(concept, which))

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #

    def new_trace_ids(self, count: int) -> list[str]:
        """Ids for the next ``count`` traces to add: ``added<n>``, numbered
        on from :attr:`traces_added`."""
        return [f"added{self.traces_added + i}" for i in range(count)]

    def add_traces(
        self,
        traces: Sequence[Trace],
        *,
        budget: "Budget | None" = None,
        task_timeout: float | None = None,
        on_fault: str | None = None,
    ) -> int:
        """Fold freshly reported traces into the open session.

        Traces identical to an existing class join it (and keep its
        label); new classes enter the lattice via Godin's incremental
        insertion and start Unlabeled.  Returns the number of new
        classes.  Concept *indices are preserved* for existing concepts,
        so a user's mental map of the lattice survives the update; only
        an empty-extent bottom, which holds no traces, can change.
        The result equals clustering every trace at once, concept for
        concept, so a saved or suspended session resumes with the same
        numbering and its ``label_log`` names the same extents.
        The session's ``retries``/``on_fault`` knobs supervise the
        relation fan-out; ``budget``/``task_timeout``/``on_fault``
        override per call (the served session passes the request's).
        """
        from repro.core.trace_clustering import extend_clustering

        with obs.span("cable.add_traces", traces=len(traces)) as span:
            before = self.clustering.num_objects
            self.clustering = extend_clustering(
                self.clustering,
                traces,
                budget=budget,
                jobs=self.jobs,
                retry=self.retries,
                task_timeout=task_timeout,
                on_fault=on_fault if on_fault is not None else self.on_fault,
            )
            self.lattice = self.clustering.lattice
            self.labels.grow(self.clustering.num_objects)
            self.traces_added += len(traces)
            added = self.clustering.num_objects - before
            span.set(new_classes=added, concepts=len(self.lattice))
            return added

    # ------------------------------------------------------------------ #
    # focus
    # ------------------------------------------------------------------ #

    def focus(self, concept: int, reference_fa: FA) -> "FocusSession":
        """Open a Focus sub-session on ``concept`` under ``reference_fa``."""
        from repro.cable.focus import FocusSession

        return FocusSession(self, self.lattice.check_index(concept), reference_fa)

    def focus_label(self, label: str, reference_fa: FA) -> "FocusSession":
        """Open a Focus sub-session on all traces carrying ``label``.

        This is Section 4.3's remedy for non-well-formed lattices: mark
        the un-splittable concepts ``mixed``, then re-run the method
        "with a different FA and with the set of traces restricted to the
        mixed traces".  Labels assigned inside the sub-session replace
        ``label`` when it ends.
        """
        from repro.cable.focus import FocusSession

        objects = sorted(self.labels.with_label(label))
        if not objects:
            raise SelectionError(f"no traces labeled {label!r}")
        return FocusSession(self, None, reference_fa, objects=objects)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #

    def traces_with_label(self, label: str) -> list[Trace]:
        """Representative traces labeled ``label``."""
        return self.clustering.traces_of(self.labels.with_label(label))

    def expanded_labels(self) -> list[tuple[Trace, str | None]]:
        """Every member trace (duplicates included) with its class label."""
        out: list[tuple[Trace, str | None]] = []
        for o, members in enumerate(self.clustering.class_members):
            label = self.labels.label_of(o)
            out.extend((member, label) for member in members)
        return out

    def scenario_labels(self, scenarios: Sequence[Trace]) -> dict[int, str]:
        """Map scenario indices to labels by identical-event matching.

        The miner's :meth:`repro.mining.strauss.Strauss.remine` wants labels
        keyed by scenario index; classes without a label are omitted.
        """
        by_key: dict[tuple, str] = {}
        for o, rep in enumerate(self.clustering.representatives):
            label = self.labels.label_of(o)
            if label is not None:
                by_key[rep.key()] = label
        return {
            i: by_key[trace.key()]
            for i, trace in enumerate(scenarios)
            if trace.key() in by_key
        }

    def check_labeling(self, label: str = "good") -> FA:
        """Step 2b: the FA inferred from all traces carrying ``label``.

        The author examines this automaton at the top of the lattice to
        confirm the labeling is right before fixing the specification.
        """
        traces = self.traces_with_label(label)
        if not traces:
            raise SelectionError(f"no traces labeled {label!r}")
        return self._learner(traces)
