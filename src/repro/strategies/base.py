"""Shared strategy machinery: the simulator and the cost model.

The cost model is Section 4.2's: we count *inspecting a concept* (1
operation) and *labeling traces* (1 operation).  Inspection cost is
essential — without it an "optimal" strategy could peek everywhere for
free; labeling cost makes optimal orders prefer short labeling sequences.
A strategy may only label a concept it has just inspected.

:class:`LabelingSimulator` enforces those rules: ``visit`` inspects a
concept and, if its unlabeled traces all deserve the same reference label,
labels them.  Strategies differ only in their visiting orders.  The
simulator keeps its state in int masks, so each of those tests is a few
bitwise operations.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import iter_bits, mask_of
from repro.fa.automaton import FA
from repro.lang.traces import Trace


class StuckError(RuntimeError):
    """Raised when a strategy cannot complete the reference labeling.

    This happens exactly when the lattice is not well-formed for the
    labeling (Section 4.3): the remedy is Focus with a different FA, or
    hand labeling, not a different visiting order.
    """


@dataclass(frozen=True)
class StrategyOutcome:
    """The cost of one strategy run."""

    strategy: str
    inspections: int
    labelings: int
    completed: bool

    @property
    def cost(self) -> int:
        return self.inspections + self.labelings


def masks_by_label(reference: Mapping[int, str], num_objects: int) -> dict[str, int]:
    """Objects ``0 .. num_objects - 1`` grouped by reference label, as
    one int mask per label."""
    masks: dict[str, int] = {}
    for o in range(num_objects):
        label = reference[o]
        masks[label] = masks.get(label, 0) | (1 << o)
    return masks


@dataclass
class LabelingSimulator:
    """Tracks labels while a strategy runs, counting operations.

    The state is kept as int masks (bit ``o`` is object ``o``):
    ``unlabeled`` holds the objects not yet labeled, and
    ``label_masks`` holds one mask per reference label, so a set of
    unlabeled objects is uniform exactly when it lies inside one label
    mask.  ``labels`` is filled in as objects are labeled, for callers
    that read the labeling itself.
    """

    lattice: ConceptLattice
    reference: Mapping[int, str]
    labels: dict[int, str] = field(default_factory=dict)
    inspections: int = 0
    labelings: int = 0

    def __post_init__(self) -> None:
        num_objects = self.lattice.context.num_objects
        missing = [o for o in range(num_objects) if o not in self.reference]
        if missing:
            raise ValueError(f"reference labeling is partial; missing objects {missing}")
        self.label_masks = tuple(masks_by_label(self.reference, num_objects).items())
        self.extents = self.lattice.extent_masks
        self.unlabeled = ((1 << num_objects) - 1) & ~mask_of(self.labels)

    def label_of(self, objects: int) -> str | None:
        """The one reference label every object of the nonempty mask
        ``objects`` deserves, or ``None`` if they are mixed."""
        for label, mask in self.label_masks:
            if not objects & ~mask:
                return label
        return None

    def fully_labeled(self, concept: int) -> bool:
        return not self.extents[concept] & self.unlabeled

    def done(self) -> bool:
        return not self.unlabeled

    def visit(self, concept: int) -> bool:
        """Inspect ``concept``; label its unlabeled traces if they are
        uniform under the reference labeling.  Returns True if labeled."""
        self.inspections += 1
        obs.inc("strategy.inspections")
        unlabeled = self.extents[concept] & self.unlabeled
        if not unlabeled:
            return False
        label = self.label_of(unlabeled)
        if label is None:
            return False
        self.labelings += 1
        self.unlabeled &= ~unlabeled
        obs.inc("strategy.labelings")
        obs.inc("strategy.traces_labeled", unlabeled.bit_count())
        for o in iter_bits(unlabeled):
            self.labels[o] = label
        return True

    def outcome(self, strategy: str, completed: bool | None = None) -> StrategyOutcome:
        return StrategyOutcome(
            strategy=strategy,
            inspections=self.inspections,
            labelings=self.labelings,
            completed=self.done() if completed is None else completed,
        )


def reference_labeling_from_fa(
    traces: Mapping[int, Trace] | list[Trace],
    ground_truth: FA,
    good: str = "good",
    bad: str = "bad",
) -> dict[int, str]:
    """The oracle labeling: good iff the (correct) specification accepts.

    In the synthetic workloads the debugged specification is known, so the
    reference labeling an expert would produce is exactly acceptance by it.
    """
    items = (
        enumerate(traces) if isinstance(traces, list) else traces.items()
    )
    return {
        index: (good if ground_truth.accepts(trace) else bad)
        for index, trace in items
    }
