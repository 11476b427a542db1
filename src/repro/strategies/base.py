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
bitwise operations, and :class:`LabelMasks` holds what does not change
from run to run on one lattice and reference labeling.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import iter_bits
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


class LabelMasks:
    """A reference labeling checked against one lattice, as int masks.

    The check and the grouping by label happen once here, so a
    measurement that runs strategies many times on one lattice (Random's
    1024 trials, the shuffled Top-down and Bottom-up runs) pays for them
    once: every strategy takes a :class:`LabelMasks` wherever it takes a
    reference labeling.
    """

    __slots__ = ("reference", "extents", "label_masks", "all_objects")

    def __init__(self, lattice: ConceptLattice, reference: Mapping[int, str]) -> None:
        num_objects = lattice.context.num_objects
        missing = [o for o in range(num_objects) if o not in reference]
        if missing:
            raise ValueError(f"reference labeling is partial; missing objects {missing}")
        # Objects grouped by reference label, one int mask per label.
        by_label: dict[str, int] = {}
        for o in range(num_objects):
            label = reference[o]
            by_label[label] = by_label.get(label, 0) | (1 << o)
        self.reference = reference
        self.extents = lattice.extent_masks
        self.label_masks = tuple(by_label.items())
        self.all_objects = (1 << num_objects) - 1

    @classmethod
    def of(cls, lattice: ConceptLattice, reference: Reference) -> LabelMasks:
        """``reference`` itself if already checked, else its masks."""
        return reference if isinstance(reference, cls) else cls(lattice, reference)

    def label_of(self, objects: int) -> str | None:
        """The one reference label every object of the nonempty mask
        ``objects`` deserves, or ``None`` if they are mixed."""
        for label, mask in self.label_masks:
            if not objects & ~mask:
                return label
        return None


#: What the strategies accept as the reference labeling.
Reference = Mapping[int, str] | LabelMasks


class LabelingSimulator:
    """Tracks labels while a strategy runs, counting operations.

    The state is one int mask, ``unlabeled`` (bit ``o`` is set while
    object ``o`` is unlabeled).  A strategy only ever gives an object its
    reference label, so :attr:`labels` is read off that mask when a
    caller asks for it.  The ``strategy.*`` counters are bumped once per
    run, by :meth:`outcome` or :meth:`stuck`.  Setting ``visited`` to a
    list records every inspected concept in order.
    """

    def __init__(self, lattice: ConceptLattice, reference: Reference) -> None:
        self.masks = LabelMasks.of(lattice, reference)
        self.extents = self.masks.extents
        self.unlabeled = self.masks.all_objects
        self.inspections = 0
        self.labelings = 0
        self.visited: list[int] | None = None

    @property
    def labels(self) -> dict[int, str]:
        """Object -> label for every labeled object."""
        reference = self.masks.reference
        labeled = self.masks.all_objects & ~self.unlabeled
        return {o: reference[o] for o in iter_bits(labeled)}

    def fully_labeled(self, concept: int) -> bool:
        return not self.extents[concept] & self.unlabeled

    def done(self) -> bool:
        return not self.unlabeled

    def visit(self, concept: int) -> bool:
        """Inspect ``concept``; label its unlabeled traces if they are
        uniform under the reference labeling.  Returns True if labeled."""
        self.inspections += 1
        if self.visited is not None:
            self.visited.append(concept)
        unlabeled = self.extents[concept] & self.unlabeled
        if not unlabeled or self.masks.label_of(unlabeled) is None:
            return False
        self.labelings += 1
        self.unlabeled ^= unlabeled
        return True

    def run_passes(
        self, next_pass: Callable[[int], Iterable[int]], strategy: str, stuck: str
    ) -> StrategyOutcome:
        """Visit concepts pass after pass until every object is labeled.

        ``next_pass(unlabeled)`` gives one pass's concepts in visiting
        order, and every one of them that is not FullyLabeled when its
        turn comes is visited.  A pass that labels nothing raises
        :meth:`stuck` with the message ``stuck``.  The visits are
        :meth:`visit` on local variables, with no call per concept.
        """
        extents = self.extents
        others = [~mask for _, mask in self.masks.label_masks]
        visited = self.visited
        while self.unlabeled:
            unlabeled = self.unlabeled
            inspections = labelings = 0
            for concept in next_pass(unlabeled):
                todo = extents[concept] & unlabeled
                if not todo:
                    continue
                inspections += 1
                if visited is not None:
                    visited.append(concept)
                for other in others:
                    if not todo & other:
                        unlabeled ^= todo
                        labelings += 1
                        break
            self.unlabeled = unlabeled
            self.inspections += inspections
            self.labelings += labelings
            if not labelings:
                raise self.stuck(stuck)
        return self.outcome(strategy)

    def _count(self) -> None:
        labeled = self.masks.all_objects & ~self.unlabeled
        for name, amount in (
            ("strategy.inspections", self.inspections),
            ("strategy.labelings", self.labelings),
            ("strategy.traces_labeled", labeled.bit_count()),
        ):
            if amount:
                obs.inc(name, amount)

    def outcome(self, strategy: str, completed: bool | None = None) -> StrategyOutcome:
        """The run's outcome; counts its operations."""
        self._count()
        return StrategyOutcome(
            strategy=strategy,
            inspections=self.inspections,
            labelings=self.labelings,
            completed=self.done() if completed is None else completed,
        )

    def stuck(self, message: str) -> StuckError:
        """The error ending a run that cannot finish; counts the
        operations it made."""
        self._count()
        return StuckError(message)


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
