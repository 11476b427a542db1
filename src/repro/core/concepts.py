"""Concepts and the concept lattice.

A concept pairs an *extent* (a set of objects) with an *intent* (the set of
attributes shared by exactly those objects); the concepts of a context,
ordered by extent inclusion, form a complete lattice (Section 3.1).  The
lattice is simultaneously a subset lattice on objects and a superset
lattice on intents — ``sim`` therefore increases downward, the key
property Cable exploits.

:class:`ConceptLattice` is the frozen result of any of the construction
algorithms, carrying the Hasse diagram (immediate covers), top and bottom,
and the navigation queries Cable and the labeling strategies need.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.core.context import FormalContext, mask_of
from repro.robustness.errors import InputError, LookupInputError

#: Optional construction-time invariant check (a debug assertion).  Set
#: via :func:`set_invariant_check`; :mod:`repro.analysis.invariants`
#: provides the standard checker and enable/disable helpers.
_INVARIANT_CHECK: Callable[["ConceptLattice"], None] | None = None


def set_invariant_check(
    check: Callable[["ConceptLattice"], None] | None,
) -> None:
    """Install (or clear, with ``None``) the construction-time check run
    on every new :class:`ConceptLattice`."""
    global _INVARIANT_CHECK
    _INVARIANT_CHECK = check


def get_invariant_check() -> Callable[["ConceptLattice"], None] | None:
    """The currently installed construction-time check, if any."""
    return _INVARIANT_CHECK


@dataclass(frozen=True, slots=True)
class Concept:
    """A formal concept: ``(extent, intent)`` with σ(extent) = intent and
    τ(intent) = extent."""

    extent: frozenset[int]
    intent: frozenset[int]

    def __le__(self, other: "Concept") -> bool:
        return self.extent <= other.extent

    def __lt__(self, other: "Concept") -> bool:
        return self.extent < other.extent

    @property
    def similarity(self) -> int:
        """The paper's similarity of the concept's objects: ``|intent|``."""
        return len(self.intent)


class ConceptLattice:
    """The concept lattice of a context, with its Hasse diagram.

    ``parents[c]`` are the immediate *super*concepts of concept index ``c``
    (larger extents); ``children[c]`` the immediate subconcepts.  The
    constructor checks structural sanity (distinct extents, a unique
    maximum and minimum); full order-theoretic validation is available via
    :meth:`validate` and is exercised by the test suite.
    """

    def __init__(
        self,
        context: FormalContext,
        concepts: Sequence[Concept],
        parents: Sequence[Iterable[int]],
        children: Sequence[Iterable[int]],
    ) -> None:
        self.context = context
        self.concepts: tuple[Concept, ...] = tuple(concepts)
        if len(parents) != len(self.concepts) or len(children) != len(self.concepts):
            raise ValueError("parents/children length mismatch")
        self.parents: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(p)) for p in parents
        )
        self.children: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(c)) for c in children
        )
        extents = {c.extent for c in self.concepts}
        if len(extents) != len(self.concepts):
            raise ValueError("duplicate concept extents")
        tops = [i for i, p in enumerate(self.parents) if not p]
        bottoms = [i for i, c in enumerate(self.children) if not c]
        if len(self.concepts) == 1:
            self.top = self.bottom = 0
        else:
            if len(tops) != 1 or len(bottoms) != 1:
                raise ValueError(
                    f"expected unique top/bottom, got tops={tops} bottoms={bottoms}"
                )
            self.top = tops[0]
            self.bottom = bottoms[0]
        self._object_concept: dict[int, int] = {}
        for i, concept in enumerate(self.concepts):
            for o in concept.extent:
                best = self._object_concept.get(o)
                if best is None or len(concept.extent) < len(
                    self.concepts[best].extent
                ):
                    self._object_concept[o] = i
        if _INVARIANT_CHECK is not None:
            _INVARIANT_CHECK(self)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.concepts)

    def __iter__(self):
        return iter(range(len(self.concepts)))

    def _check_index(self, c: int) -> int:
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputError(
                "concept index must be an integer", index=c
            )
        if not -len(self.concepts) <= c < len(self.concepts):
            raise InputError(
                "concept index out of range",
                index=c,
                num_concepts=len(self.concepts),
            )
        return c % len(self.concepts) if c < 0 else c

    def extent(self, c: int) -> frozenset[int]:
        return self.concepts[self._check_index(c)].extent

    @cached_property
    def extent_masks(self) -> tuple[int, ...]:
        """Every concept's extent as an int mask (bit ``o`` is object
        ``o``), indexed like :attr:`concepts`.

        Computed on first use and cached, so building a lattice pays
        nothing for it; the labeling strategies run on these masks.
        """
        return tuple(mask_of(concept.extent) for concept in self.concepts)

    def intent(self, c: int) -> frozenset[int]:
        return self.concepts[self._check_index(c)].intent

    def similarity(self, c: int) -> int:
        return self.concepts[self._check_index(c)].similarity

    def object_concept(self, obj: int) -> int:
        """γ(obj): the smallest concept whose extent contains ``obj``."""
        try:
            return self._object_concept[obj]
        except KeyError:
            raise LookupInputError(
                "object appears in no concept extent",
                object=obj,
                num_objects=self.context.num_objects,
            ) from None

    def attribute_concept(self, attr: int) -> int:
        """μ(attr): the largest concept whose intent contains ``attr``."""
        best: int | None = None
        for i, concept in enumerate(self.concepts):
            if attr in concept.intent:
                if best is None or len(concept.extent) > len(
                    self.concepts[best].extent
                ):
                    best = i
        if best is None:
            raise LookupInputError(
                "attribute appears in no concept intent",
                attribute=attr,
                num_attributes=self.context.num_attributes,
            )
        return best

    def own_objects(self, c: int) -> frozenset[int]:
        """Objects in ``c``'s extent that are in no child's extent.

        These are the traces a user labels "directly at" this concept once
        its children are dealt with (the second case of well-formedness).
        """
        c = self._check_index(c)
        covered: set[int] = set()
        for child in self.children[c]:
            covered |= self.concepts[child].extent
        return self.concepts[c].extent - covered

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #

    def ancestors(self, c: int) -> set[int]:
        """All strict superconcepts of ``c`` (transitively)."""
        c = self._check_index(c)
        seen: set[int] = set()
        queue = deque(self.parents[c])
        while queue:
            node = queue.popleft()
            if node not in seen:
                seen.add(node)
                queue.extend(self.parents[node])
        return seen

    def descendants(self, c: int) -> set[int]:
        """All strict subconcepts of ``c`` (transitively)."""
        c = self._check_index(c)
        seen: set[int] = set()
        queue = deque(self.children[c])
        while queue:
            node = queue.popleft()
            if node not in seen:
                seen.add(node)
                queue.extend(self.children[node])
        return seen

    def bfs_top_down(self, start: int | None = None) -> list[int]:
        """Breadth-first order from ``start`` (default: the top concept).

        This is the visiting order of the Top-down strategy (Section 4.2).
        """
        root = self.top if start is None else start
        order = [root]
        seen = {root}
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for child in self.children[node]:
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    queue.append(child)
        return order

    def bottom_up_order(self) -> list[int]:
        """A linear order in which every concept follows all its children."""
        indegree = {c: len(self.children[c]) for c in self}
        queue = deque(c for c in self if indegree[c] == 0)
        order: list[int] = []
        while queue:
            node = queue.popleft()
            order.append(node)
            for parent in self.parents[node]:
                indegree[parent] -= 1
                if indegree[parent] == 0:
                    queue.append(parent)
        if len(order) != len(self.concepts):
            raise RuntimeError("Hasse diagram is cyclic")
        return order

    # ------------------------------------------------------------------ #
    # lattice operations
    # ------------------------------------------------------------------ #

    def meet(self, c1: int, c2: int) -> int:
        """Greatest lower bound: the concept with extent ext(c1) ∩ ext(c2)."""
        extent = self.context.extent_closure(
            self.concepts[c1].extent & self.concepts[c2].extent
        )
        return self.concept_with_extent(extent)

    def join(self, c1: int, c2: int) -> int:
        """Least upper bound: closure of the union of the extents."""
        extent = self.context.extent_closure(
            self.concepts[c1].extent | self.concepts[c2].extent
        )
        return self.concept_with_extent(extent)

    def concept_with_extent(self, extent: frozenset[int]) -> int:
        for i, concept in enumerate(self.concepts):
            if concept.extent == extent:
                return i
        raise LookupInputError(
            "no concept with the requested extent", extent=sorted(extent)
        )

    # ------------------------------------------------------------------ #
    # validation (used heavily by the tests)
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check every structural invariant; raise ``AssertionError`` if any
        fails.

        Verified: each concept satisfies σ(extent)=intent ∧ τ(intent)=extent;
        the concept set is exactly the closed sets of the context; the
        Hasse edges are exactly the covering pairs of the extent order.
        """
        ctx = self.context
        for concept in self.concepts:
            assert ctx.sigma(concept.extent) == concept.intent, (
                f"σ({sorted(concept.extent)}) != intent"
            )
            assert ctx.tau(concept.intent) == concept.extent, (
                f"τ({sorted(concept.intent)}) != extent"
            )
        # Completeness: every object/attribute closure appears.
        for o in range(ctx.num_objects):
            closure = ctx.extent_closure([o])
            self.concept_with_extent(closure)
        assert any(c.extent == ctx.all_objects for c in self.concepts)
        assert any(c.intent == ctx.all_attributes for c in self.concepts)
        # Covers: parents are exactly the minimal strict supersets.
        extents = [c.extent for c in self.concepts]
        for i, extent in enumerate(extents):
            supersets = [
                j for j, other in enumerate(extents) if extent < other
            ]
            covers = [
                j
                for j in supersets
                if not any(
                    extents[j] > extents[k] and extents[k] > extent
                    for k in supersets
                )
            ]
            assert sorted(covers) == list(self.parents[i]), (
                f"concept {i}: parents {self.parents[i]} != covers {sorted(covers)}"
            )
            assert all(i in self.children[j] for j in covers)
        for i in self:
            for child in self.children[i]:
                assert i in self.parents[child]

    # ------------------------------------------------------------------ #
    # construction from a bare concept set
    # ------------------------------------------------------------------ #

    @classmethod
    def from_concepts(
        cls, context: FormalContext, concepts: Iterable[Concept]
    ) -> "ConceptLattice":
        """Build the Hasse diagram for a complete set of concepts.

        Parents of each concept are the minimal strict supersets of its
        extent; O(n²) subset tests, fine at the paper's scales.
        """
        ordered = sorted(concepts, key=lambda c: (len(c.extent), sorted(c.extent)))
        parents: list[list[int]] = [[] for _ in ordered]
        children: list[list[int]] = [[] for _ in ordered]
        for i, concept in enumerate(ordered):
            chosen: list[int] = []
            for j in range(i + 1, len(ordered)):
                candidate = ordered[j]
                if concept.extent < candidate.extent and not any(
                    ordered[k].extent < candidate.extent for k in chosen
                ):
                    chosen.append(j)
            for j in chosen:
                parents[i].append(j)
                children[j].append(i)
        return cls(context, ordered, parents, children)

    def __repr__(self) -> str:
        return (
            f"ConceptLattice(concepts={len(self.concepts)}, "
            f"|O|={self.context.num_objects}, |A|={self.context.num_attributes})"
        )
