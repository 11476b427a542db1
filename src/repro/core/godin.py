"""Godin, Missaoui and Alaoui's incremental lattice construction.

This is the algorithm the paper uses ("The algorithm we use is due to
Godin and others (their Algorithm 1)", Section 3.1.1), with the
O(2^{2k}·|O|) bound for contexts whose objects each carry at most k
attributes.  Objects are inserted one at a time; for each insertion the
existing concepts split into

* **modified** concepts — intent ⊆ f(x): the new object joins their
  extent;
* **generators** — for each distinct intersection ``Int = intent ∩ f(x)``
  the (unique) concept with the smallest intent realizing it spawns a
  **new** concept ``(extent ∪ {x}, Int)``.

Hasse edges are maintained locally: a new concept's children are the
generator plus the maximal new/modified concepts with strictly larger
intent; its parents are the new/modified concepts with maximal strictly
smaller intent; edges that the insertion makes transitive (child-of-new to
parent-of-new) are removed.

Algorithm 1 visits the existing concepts by ascending intent size.  The
builder keeps concept ids in **buckets by intent size** (each bucket in
ascending id order), updated as concepts are created and as the bottom
grows, so an insertion walks the buckets instead of re-sorting every
concept — the same (size, id) order a stable sort would give.  A new
concept's parents are picked by scanning its candidates by descending
intent size against the parents already chosen: a candidate that is not
maximal lies under a strictly larger maximal one, which was chosen
first.  That replaces an all-pairs maximality scan, and the links are
still made in the old candidate order.

Intents and extents are held as **int bitmasks** throughout (see
:class:`~repro.core.context.BitContext`): the subset tests, meets, and
maximality scans of every insertion are single bitwise ops instead of
frozenset algebra, and batch insertion
(:meth:`GodinLatticeBuilder.add_objects`) feeds the per-object loop
straight from the context's precomputed row masks.  The public API is
unchanged — checkpoints and built lattices still speak frozensets.

The builder also maintains the lattice-wide invariant that a concept with
intent = (all attributes seen so far) always exists — the canonical bottom
— growing or splitting it when an object introduces fresh attributes.

Construction can be **budgeted** (:class:`~repro.robustness.budget.Budget`):
the builder checks wall time and object count before every insertion and
the concept count after it, refreshing a periodic
:class:`LatticeCheckpoint` as it goes.  An over-budget build raises
:class:`~repro.robustness.errors.BudgetExceeded` carrying a consistent,
resumable partial lattice — pass it back to :func:`build_lattice_godin`
as ``resume_from`` (with a bigger budget) to finish the build with no
work repeated.

Correctness is enforced by the test suite, which compares extents,
intents, and covers against :mod:`repro.core.batch` on randomized
contexts.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from repro import obs
from repro.core.concepts import Concept, ConceptLattice
from repro.core.context import FormalContext, mask_of, set_of
from repro.robustness.budget import Budget, BudgetMeter
from repro.robustness.errors import BudgetExceeded


@dataclass(frozen=True)
class LatticeCheckpoint:
    """A consistent snapshot of a partial Godin build.

    ``num_objects`` is how many objects have been fully inserted; for a
    sequential :func:`build_lattice_godin` pass it is also the index of
    the next context row to insert, which is all resumption needs.
    """

    extents: tuple[frozenset[int], ...]
    intents: tuple[frozenset[int], ...]
    parents: tuple[frozenset[int], ...]
    children: tuple[frozenset[int], ...]
    all_attrs: frozenset[int]
    num_objects: int

    @property
    def num_concepts(self) -> int:
        return len(self.intents)


class GodinLatticeBuilder:
    """Incrementally builds a concept lattice, one object at a time.

    Extents and intents live as int bitmasks while the build runs;
    :meth:`snapshot` and :meth:`build` convert back to frozensets at the
    boundary.
    """

    def __init__(self, budget: Budget | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self._extents: list[int] = []
        self._intents: list[int] = []
        self._parents: list[set[int]] = []
        self._children: list[set[int]] = []
        #: Concept ids by intent size, each bucket in ascending id order.
        self._by_size: list[list[int]] = []
        self._all_attrs: int = 0
        self._num_objects = 0
        self._budget = budget if budget and not budget.unlimited else None
        self._clock = clock
        self._meter: BudgetMeter | None = None
        self._last_checkpoint: LatticeCheckpoint | None = None

    @classmethod
    def from_lattice(
        cls, lattice: ConceptLattice, budget: Budget | None = None
    ) -> "GodinLatticeBuilder":
        """Resume incremental construction from an existing lattice.

        This is the incremental algorithm's raison d'être: when new
        objects arrive (say, a fresh batch of violation traces in an open
        Cable session), the existing concepts are reused rather than
        rebuilt.  The attribute universe must not grow (it is fixed by
        the reference FA).
        """
        builder = cls(budget=budget)
        for concept in lattice.concepts:
            builder._extents.append(mask_of(concept.extent))
            builder._intents.append(mask_of(concept.intent))
        builder._parents = [set(p) for p in lattice.parents]
        builder._children = [set(c) for c in lattice.children]
        builder._index_sizes()
        builder._all_attrs = mask_of(lattice.context.all_attributes)
        builder._num_objects = lattice.context.num_objects
        obs.inc("godin.resumes")
        return builder

    @classmethod
    def from_checkpoint(
        cls,
        checkpoint: LatticeCheckpoint,
        budget: Budget | None = None,
        clock: Callable[[], float] | None = None,
    ) -> "GodinLatticeBuilder":
        """Resume from a :class:`LatticeCheckpoint` (e.g. one carried by a
        ``BudgetExceeded``).  The wall clock restarts at the first insert."""
        builder = cls(budget=budget, clock=clock)
        builder._extents = [mask_of(e) for e in checkpoint.extents]
        builder._intents = [mask_of(i) for i in checkpoint.intents]
        builder._parents = [set(p) for p in checkpoint.parents]
        builder._children = [set(c) for c in checkpoint.children]
        builder._index_sizes()
        builder._all_attrs = mask_of(checkpoint.all_attrs)
        builder._num_objects = checkpoint.num_objects
        obs.inc("godin.resumes")
        return builder

    def snapshot(self) -> LatticeCheckpoint:
        """A consistent, immutable copy of the current partial lattice."""
        obs.inc("godin.snapshots")
        return LatticeCheckpoint(
            extents=tuple(set_of(e) for e in self._extents),
            intents=tuple(set_of(i) for i in self._intents),
            parents=tuple(frozenset(p) for p in self._parents),
            children=tuple(frozenset(c) for c in self._children),
            all_attrs=set_of(self._all_attrs),
            num_objects=self._num_objects,
        )

    @property
    def last_checkpoint(self) -> LatticeCheckpoint | None:
        """The most recent periodic snapshot (budgeted builds only)."""
        return self._last_checkpoint

    # ------------------------------------------------------------------ #
    # budget enforcement
    # ------------------------------------------------------------------ #

    def _check_budget(self, num_objects: int) -> None:
        if self._budget is None:
            return
        if self._meter is None:
            self._meter = self._budget.meter(clock=self._clock)
        violation = self._meter.violation(num_objects, len(self._intents))
        if violation is None:
            return
        dimension, limit, value = violation
        obs.inc("godin.budget_exceeded")
        obs.event(
            "godin.budget_exceeded",
            dimension=dimension,
            limit=limit,
            value=value,
            objects_done=self._num_objects,
        )
        raise BudgetExceeded(
            f"lattice build exceeded budget on {dimension}",
            checkpoint=self.snapshot(),
            dimension=dimension,
            limit=limit,
            value=value,
            objects_done=self._num_objects,
            num_concepts=len(self._intents),
        )

    def _refresh_checkpoint(self) -> None:
        if (
            self._budget is not None
            and self._num_objects % self._budget.checkpoint_every == 0
        ):
            self._last_checkpoint = self.snapshot()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #

    @property
    def num_concepts(self) -> int:
        return len(self._intents)

    def _bucket(self, size: int) -> list[int]:
        while len(self._by_size) <= size:
            self._by_size.append([])
        return self._by_size[size]

    def _index_sizes(self) -> None:
        """Rebuild the intent-size buckets from ``_intents``."""
        self._by_size = []
        for c, intent in enumerate(self._intents):
            self._bucket(intent.bit_count()).append(c)

    def _new_concept(self, extent: int, intent: int) -> int:
        self._extents.append(extent)
        self._intents.append(intent)
        self._parents.append(set())
        self._children.append(set())
        c = len(self._intents) - 1
        self._bucket(intent.bit_count()).append(c)
        return c

    def _link(self, child: int, parent: int) -> None:
        self._children[parent].add(child)
        self._parents[child].add(parent)

    def _unlink(self, child: int, parent: int) -> None:
        self._children[parent].discard(child)
        self._parents[child].discard(parent)

    def _bottom_concept(self) -> int:
        for c in self._bucket(self._all_attrs.bit_count()):
            if self._intents[c] == self._all_attrs:
                return c
        raise RuntimeError("invariant violated: no concept with full intent")

    def _grow_bottom(self, grown: int) -> None:
        """Widen the attribute universe to ``grown`` (a superset of it),
        keeping a concept whose intent is all of it: an empty-extent
        bottom just widens its intent, any other gets a fresh child."""
        bottom = self._bottom_concept()
        if self._extents[bottom]:
            self._link(self._new_concept(0, grown), bottom)
        else:
            self._by_size[self._intents[bottom].bit_count()].remove(bottom)
            insort(self._bucket(grown.bit_count()), bottom)
            self._intents[bottom] = grown
        self._all_attrs = grown

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #

    def add_object(self, obj: int, row: Iterable[int]) -> None:
        """Insert object ``obj`` whose attribute set is ``row``.

        Under a budget, the wall clock and object count are checked
        before the insertion and the concept count after it, so a
        :class:`~repro.robustness.errors.BudgetExceeded` always carries
        a consistent partial lattice.

        Each insertion is one ``godin.insert`` span (a no-op unless
        :mod:`repro.obs` is enabled); a budget violation escapes through
        the span and is captured as its error.
        """
        with obs.span("godin.insert", objects=self._num_objects + 1):
            self._check_budget(self._num_objects + 1)
            self._insert(obj, mask_of(row))
            self._check_budget(self._num_objects)
            self._refresh_checkpoint()
        obs.inc("godin.inserts")

    def add_objects(
        self, rows_bits: Sequence[int], first_obj: int | None = None
    ) -> None:
        """Batch-insert consecutive objects whose rows are attribute masks.

        The per-object budget discipline of :meth:`add_object` is kept
        (wall/object check before each insertion, concept check after,
        periodic checkpoint refresh), but the whole batch runs under one
        ``godin.batch_insert`` span instead of one span per object —
        the per-insert observability overhead was measurable at the
        100k-object scale this path targets.
        """
        start = self._num_objects if first_obj is None else first_obj
        with obs.span("godin.batch_insert", objects=len(rows_bits)) as span:
            for offset, row_bits in enumerate(rows_bits):
                self._check_budget(self._num_objects + 1)
                self._insert(start + offset, row_bits)
                self._check_budget(self._num_objects)
                self._refresh_checkpoint()
            span.set(concepts=len(self._intents))
        obs.inc("godin.inserts", len(rows_bits))

    def _insert(self, obj: int, row: int) -> None:
        obj_bit = 1 << obj
        self._num_objects += 1
        if not self._intents:
            self._all_attrs = row
            self._new_concept(obj_bit, row)
            return

        if row & ~self._all_attrs:
            # The object brings new attributes: restore the bottom
            # invariant before the main pass.
            self._grow_bottom(self._all_attrs | row)

        # Walk the existing concepts by ascending (intent size, id).  A
        # concept created during the pass has intent ``meet``, strictly
        # inside its generator's, so it joins a bucket the walk has
        # already left: the walk sees exactly the concepts that existed
        # before it, and the new ones are consulted through ``updated``.
        intents = self._intents
        extents = self._extents
        updated: dict[int, int] = {}
        for c in chain.from_iterable(self._by_size):
            intent = intents[c]
            meet = intent & row
            if meet == intent:
                # Modified concept (intent ⊆ row).
                extents[c] |= obj_bit
                updated[intent] = c
                continue
            if meet in updated:
                continue
            # ``c`` is the canonical generator for this intersection.
            new = self._new_concept(extents[c] | obj_bit, meet)
            updated[meet] = new

            # Children: the generator plus maximal updated concepts whose
            # intent strictly contains ``meet``.
            candidates = [
                d
                for intent_d, d in updated.items()
                if intent_d != meet and not meet & ~intent_d and d != new
            ]
            candidates.append(c)
            children = [
                d
                for d in candidates
                if not any(
                    e != d
                    and extents[d] != extents[e]
                    and not extents[d] & ~extents[e]
                    for e in candidates
                )
            ]
            # Parents: updated concepts with maximal intent strictly below.
            above = [
                d
                for intent_d, d in updated.items()
                if intent_d != meet and not intent_d & ~meet and d != new
            ]
            # Largest intents first, each kept unless a kept one contains
            # it (``updated`` maps distinct intents, so strictly); linked
            # in ``above`` order.
            maximal: list[int] = []
            by_size = sorted(above, key=lambda d: intents[d].bit_count(), reverse=True)
            for d in by_size:
                if all(intents[d] & ~intents[p] for p in maximal):
                    maximal.append(d)
            chosen = set(maximal)
            parents = [d for d in above if d in chosen]
            for child in children:
                self._link(child, new)
            for parent in parents:
                self._link(new, parent)
            # Drop edges the new concept made transitive.
            for child in children:
                for parent in parents:
                    if parent in self._parents[child]:
                        self._unlink(child, parent)

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #

    def build(self, context: FormalContext) -> ConceptLattice:
        """Freeze the builder into a :class:`ConceptLattice` for ``context``."""
        with obs.span("godin.freeze", concepts=len(self._intents)):
            concepts = [
                Concept(set_of(extent), set_of(intent))
                for extent, intent in zip(self._extents, self._intents)
            ]
            return ConceptLattice(
                context,
                concepts,
                [frozenset(p) for p in self._parents],
                [frozenset(c) for c in self._children],
            )


def build_lattice_godin(
    context: FormalContext,
    budget: Budget | None = None,
    resume_from: LatticeCheckpoint | None = None,
) -> ConceptLattice:
    """Build the concept lattice of ``context`` with Godin's Algorithm 1.

    With a ``budget``, an over-limit build raises
    :class:`~repro.robustness.errors.BudgetExceeded` whose ``checkpoint``
    can be passed back as ``resume_from`` (objects already inserted are
    skipped, so a resumed build reaches the identical lattice).
    """
    if resume_from is not None:
        builder = GodinLatticeBuilder.from_checkpoint(resume_from, budget=budget)
    else:
        builder = GodinLatticeBuilder(budget=budget)
    with obs.span(
        "godin.build",
        objects=context.num_objects,
        attributes=context.num_attributes,
        resumed=resume_from is not None,
    ) as build_span:
        if builder._num_objects < context.num_objects:
            builder.add_objects(
                context.bits.rows_bits[builder._num_objects:],
                first_obj=builder._num_objects,
            )
        build_span.set(concepts=builder.num_concepts)
    all_attrs_bits = context.bits.all_attributes_bits
    if context.num_objects == 0:
        # Degenerate context: the lattice is the single concept (∅, A).
        builder._new_concept(0, all_attrs_bits)
        builder._all_attrs = all_attrs_bits
    elif all_attrs_bits & ~builder._all_attrs:
        # Attributes that occur in no row still belong to the bottom intent.
        builder._grow_bottom(all_attrs_bits)
    obs.set_gauge("lattice.concepts", builder.num_concepts)
    return builder.build(context)
