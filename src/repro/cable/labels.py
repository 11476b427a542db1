"""Label bookkeeping.

Cable's labels partition traces into ``good`` (belongs in the correct
specification) and ``bad`` (erroneous), but the mechanism is deliberately
general: any string is a label, so an expert can assign several kinds of
good labels (``good_fopen``, ``good_popen``) to fight over-generalization,
or mark un-splittable concepts ``mixed`` (Section 4.3).

The store guarantees the paper's invariant that *no trace carries more
than one label* — relabeling replaces — and keeps an undo history.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.context import set_of

#: Conventional label names used throughout the reproduction.
GOOD = "good"
BAD = "bad"
MIXED = "mixed"


class LabelStore:
    """Mutable map from object indices to labels (``None`` = unlabeled)."""

    def __init__(self, num_objects: int) -> None:
        if num_objects < 0:
            raise ValueError("num_objects must be >= 0")
        self._labels: list[str | None] = [None] * num_objects
        #: Bit ``o`` is set iff object ``o`` is unlabeled, so a concept's
        #: unlabeled objects are one AND with its extent mask.
        self.unlabeled_mask = (1 << num_objects) - 1
        self._history: list[list[tuple[int, str | None]]] = []

    def __len__(self) -> int:
        return len(self._labels)

    def grow(self, new_size: int) -> None:
        """Extend the store for newly added objects (all unlabeled)."""
        old_size = len(self._labels)
        if new_size < old_size:
            raise ValueError("cannot shrink a label store")
        self._labels.extend([None] * (new_size - old_size))
        self.unlabeled_mask |= ((1 << new_size) - 1) ^ ((1 << old_size) - 1)

    def label_of(self, obj: int) -> str | None:
        return self._labels[obj]

    def _set(self, obj: int, label: str | None) -> None:
        self._labels[obj] = label
        if label is None:
            self.unlabeled_mask |= 1 << obj
        else:
            self.unlabeled_mask &= ~(1 << obj)

    def assign(self, objects: Iterable[int], label: str) -> int:
        """Give ``label`` to every object in ``objects`` (replacing any
        existing label); returns how many objects changed."""
        if not label:
            raise ValueError("empty label")
        return self.assign_each(dict.fromkeys(objects, label))

    def assign_each(self, labels: Mapping[int, str]) -> int:
        """Give each object of ``labels`` its label (replacing any
        existing one) as one act, which one :meth:`undo` takes back;
        returns how many objects changed."""
        if not all(labels.values()):
            raise ValueError("empty label")
        undo: list[tuple[int, str | None]] = []
        for o, label in labels.items():
            if self._labels[o] != label:
                undo.append((o, self._labels[o]))
                self._set(o, label)
        self._history.append(undo)
        return len(undo)

    def restore(self, labels: Iterable[tuple[int, str | None]]) -> None:
        """Set ``(object, label)`` pairs (``None`` = unlabeled) as saved
        state, leaving no undo entry: loading labels is not an act the
        user can take back."""
        for o, label in labels:
            self._set(o, label)

    def clear(self, objects: Iterable[int]) -> int:
        """Remove labels from ``objects``; returns how many changed."""
        undo: list[tuple[int, str | None]] = []
        for o in objects:
            if self._labels[o] is not None:
                undo.append((o, self._labels[o]))
                self._set(o, None)
        self._history.append(undo)
        return len(undo)

    def undo(self) -> bool:
        """Revert the most recent assign/clear; False if nothing to undo."""
        if not self._history:
            return False
        for o, old in self._history.pop():
            self._set(o, old)
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def unlabeled(self) -> frozenset[int]:
        return set_of(self.unlabeled_mask)

    def unlabeled_in(self, objects: Iterable[int]) -> frozenset[int]:
        return frozenset(o for o in objects if self._labels[o] is None)

    def labeled_in(self, objects: Iterable[int]) -> frozenset[int]:
        return frozenset(o for o in objects if self._labels[o] is not None)

    def with_label(self, label: str, objects: Iterable[int] | None = None) -> frozenset[int]:
        pool = range(len(self._labels)) if objects is None else objects
        return frozenset(o for o in pool if self._labels[o] == label)

    def labels_in(self, objects: Iterable[int]) -> frozenset[str]:
        """Distinct labels present among ``objects`` (unlabeled excluded)."""
        return frozenset(
            self._labels[o] for o in objects if self._labels[o] is not None
        )

    def all_labeled(self) -> bool:
        return not self.unlabeled_mask

    def partition(self) -> dict[str, frozenset[int]]:
        """Objects grouped by label (unlabeled objects omitted)."""
        out: dict[str, set[int]] = {}
        for o, label in enumerate(self._labels):
            if label is not None:
                out.setdefault(label, set()).add(o)
        return {label: frozenset(objs) for label, objs in out.items()}

    def as_dict(self) -> dict[int, str]:
        """Complete mapping of labeled objects (index → label)."""
        return {
            o: label for o, label in enumerate(self._labels) if label is not None
        }
