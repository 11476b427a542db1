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

Concept ids follow Algorithm 1, which visits the old concepts by
ascending intent size (ties by id) and creates a new concept at each
generator it meets.  A generator is the **closure** of its meet in the
old lattice: the unique smallest-intent concept whose intent contains
it.  The builder finds the meets and closures without visiting every
concept, in the manner of AddIntent (van der Merwe, Obiedkov and Kourie,
ICFCA 2004):

1. Starting at the bottom with meet ``f(x)``, it climbs to any parent
   whose intent still contains the meet; where no parent does, it has
   reached the closure.  The closure's parents give the next meets
   (``parent intent ∩ f(x)``), each closed once.  A closure whose intent
   is its meet is modified; any other is a generator.
2. It creates the new concepts in ascending (|generator intent|,
   generator id) order — Algorithm 1's order, so the ids are the same.
   A new concept's parents come from the meets of its generator's
   parents, each now the intent of a modified or an earlier new
   concept: scanned largest first, a meet is kept unless a kept one
   contains it.  Its one child is its generator, which drops the old
   parent edges the new concept now covers.  Later new concepts hang
   under it in turn.

An insertion so touches the closures it finds and their parents, not
the whole lattice.  A row that is already the intent of a populated
concept skips both phases: every meet is then an intent already, so
the object only joins that concept and the concepts above it.  Rows
repeat often in clustering contexts, where distinct traces execute
the same transitions (about half the rows of a RegionsBig session).

Intents and extents are held as **int bitmasks** throughout (see
:class:`~repro.core.context.BitContext`): the subset tests, meets, and
maximality scans of every insertion are single bitwise ops instead of
frozenset algebra, and batch insertion
(:meth:`GodinLatticeBuilder.add_objects`) feeds the per-object loop row
masks.  A built :class:`~repro.core.concepts.ConceptLattice` takes the
masks as they are (it makes frozenset concepts only when asked);
checkpoints speak frozensets.

The builder also maintains the lattice-wide invariant that a concept with
intent = (all attributes seen so far) always exists — the canonical bottom,
whose id it keeps — growing or splitting it when an object introduces
fresh attributes.  Every insertion starts there.  Finishing a build
(:meth:`GodinLatticeBuilder.build`) grows the bottom to the context's whole
attribute universe, and resuming from a finished lattice
(:meth:`GodinLatticeBuilder.from_lattice`) undoes that growth, so adding
objects to a built lattice gives the same lattice, concept for concept,
as building all the rows afresh.

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

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

from repro import obs
from repro.core.concepts import ConceptLattice
from repro.core.context import FormalContext, mask_of, set_of
from repro.robustness.budget import Budget, BudgetMeter
from repro.robustness.errors import BudgetExceeded, InputError


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

    Extents and intents live as int bitmasks while the build runs and
    go into the built lattice as they are; :meth:`snapshot` converts
    them to frozensets.
    """

    def __init__(self, budget: Budget | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        self._extents: list[int] = []
        self._intents: list[int] = []
        self._parents: list[set[int]] = []
        self._children: list[set[int]] = []
        #: Id of the concept whose intent is every attribute seen so far.
        self._bottom: int | None = None
        self._all_attrs: int = 0
        self._num_objects = 0
        #: Intent -> id of every concept with a non-empty extent (such an
        #: intent never changes), so a repeated row finds its concept.
        self._populated: dict[int, int] = {}
        self._budget = budget if budget and not budget.unlimited else None
        self._clock = clock
        self._meter: BudgetMeter | None = None
        self._last_checkpoint: LatticeCheckpoint | None = None

    @classmethod
    def from_lattice(
        cls, lattice: ConceptLattice, budget: Budget | None = None
    ) -> "GodinLatticeBuilder":
        """Resume incremental construction from a lattice this builder
        built.

        This is the incremental algorithm's raison d'être: when new
        objects arrive (say, a fresh batch of violation traces in an open
        Cable session), the existing concepts are reused rather than
        rebuilt.  The builder returns to the state the build was in
        before :meth:`build` finished it: the attributes seen are the
        union of the rows, the bottom's growth to the whole universe is
        undone, and a lattice of no objects restarts as an empty
        builder.  Inserting more rows and building therefore gives the
        lattice a fresh build of all the rows gives, concept ids and
        covers included.  A lattice numbered by another construction
        whose empty bottom is not its last concept raises
        :class:`~repro.robustness.errors.InputError`.
        """
        builder = cls(budget=budget)
        obs.inc("godin.resumes")
        context = lattice.context
        if not context.num_objects:
            return builder
        # Every row is the intent of its object concept, and every
        # populated concept's intent lies inside a row.
        seen = 0
        for extent, intent in zip(lattice.extent_masks, lattice.intent_masks):
            if extent:
                seen |= intent
        extents = list(lattice.extent_masks)
        intents = list(lattice.intent_masks)
        parents = [set(p) for p in lattice.parents]
        children = [set(c) for c in lattice.children]
        bottom = lattice.bottom
        if intents[bottom] != seen:
            above = lattice.parents[bottom]
            if len(above) == 1 and intents[above[0]] == seen:
                # build() hung an empty bottom, the last concept, under
                # the populated one.
                if bottom != len(intents) - 1:
                    raise InputError(
                        "only a lattice built by Godin's algorithm can be "
                        "resumed: its empty bottom is not the last concept",
                        bottom=bottom,
                        num_concepts=len(intents),
                    )
                for masks in (extents, intents, parents, children):
                    masks.pop()
                children[above[0]].discard(bottom)
                bottom = above[0]
            else:
                # build() widened an empty-extent bottom's intent.
                intents[bottom] = seen
        builder._extents = extents
        builder._intents = intents
        builder._parents = parents
        builder._children = children
        builder._bottom = bottom
        builder._all_attrs = seen
        builder._num_objects = context.num_objects
        builder._index_populated()
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
        builder._all_attrs = mask_of(checkpoint.all_attrs)
        builder._bottom = next(
            (c for c, i in enumerate(builder._intents) if i == builder._all_attrs),
            None,
        )
        builder._num_objects = checkpoint.num_objects
        builder._index_populated()
        obs.inc("godin.resumes")
        return builder

    def _index_populated(self) -> None:
        self._populated = {
            intent: c
            for c, (extent, intent) in enumerate(zip(self._extents, self._intents))
            if extent
        }

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

    def _new_concept(self, extent: int, intent: int) -> int:
        self._extents.append(extent)
        self._intents.append(intent)
        self._parents.append(set())
        self._children.append(set())
        return len(self._intents) - 1

    def _link(self, child: int, parent: int) -> None:
        self._children[parent].add(child)
        self._parents[child].add(parent)

    def _unlink(self, child: int, parent: int) -> None:
        self._children[parent].discard(child)
        self._parents[child].discard(parent)

    def _grow_bottom(self, grown: int) -> None:
        """Widen the attribute universe to ``grown`` (a superset of it),
        keeping a concept whose intent is all of it: an empty-extent
        bottom just widens its intent, any other gets a fresh child."""
        bottom = self._bottom
        if self._extents[bottom]:
            self._bottom = self._new_concept(0, grown)
            self._link(self._bottom, bottom)
        else:
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
            self._bottom = self._new_concept(obj_bit, row)
            self._populated[row] = self._bottom
            return

        extents = self._extents
        parents = self._parents
        known = self._populated.get(row)
        if known is not None:
            # The row is already a populated concept's intent.  Intents are
            # closed under ∩, so every meet below is an intent already: no
            # concept is new, no cover changes, and the object joins the
            # extents of that concept and everything above it.
            extents[known] |= obj_bit
            climb = [known]
            while climb:
                for p in parents[climb.pop()]:
                    if not extents[p] & obj_bit:
                        extents[p] |= obj_bit
                        climb.append(p)
            return

        if row & ~self._all_attrs:
            # The object brings new attributes: restore the bottom
            # invariant before the main pass.
            self._grow_bottom(self._all_attrs | row)

        intents = self._intents
        # Phase 1, on the old lattice: every distinct meet ``intent ∩ row``
        # with its closure, the smallest-intent concept whose intent
        # contains it.  Climbing from a concept whose meet is ``meet`` to
        # any parent with the same meet ends at the closure, the concept
        # none of whose parents has it; the meets of the closure's
        # parents are the next ones to close.
        closures: dict[int, tuple[int, dict[int, int]]] = {}
        pending = [(self._bottom, row)]
        seen = {row}
        while pending:
            c, meet = pending.pop()
            while True:
                above: dict[int, int] = {}
                for p in parents[c]:
                    above_meet = intents[p] & row
                    if above_meet == meet:
                        break
                    above[above_meet] = p
                else:
                    break
                c = p
            closures[meet] = c, above
            for above_meet, p in above.items():
                if above_meet not in seen:
                    seen.add(above_meet)
                    pending.append((p, above_meet))

        # Phase 2: a closure whose intent is its meet is modified (the
        # object joins its extent); any other generates the new concept
        # ``(extent ∪ {obj}, meet)``.  New concepts are made in
        # Algorithm 1's order, ascending (|generator intent|, generator),
        # so a new concept's parents, all of smaller meet, exist already.
        updated: dict[int, int] = {}
        generators = []
        for meet, (c, above) in closures.items():
            if intents[c] == meet:
                extents[c] |= obj_bit
                updated[meet] = c
            else:
                generators.append((intents[c].bit_count(), c, meet, above))
        generators.sort()
        for _, g, meet, above in generators:
            new = self._new_concept(extents[g] | obj_bit, meet)
            updated[meet] = new
            # Its parents: the concepts with the largest of the meets of
            # the generator's parents, each kept unless a kept one
            # contains it.  Its one child is the generator, which loses
            # the parent edges the new concept now covers.
            chosen: list[int] = []
            for above_meet in sorted(above, key=int.bit_count, reverse=True):
                for kept in chosen:
                    if not above_meet & ~kept:
                        break
                else:
                    chosen.append(above_meet)
            old_parents = parents[g]
            for above_meet in chosen:
                u = updated[above_meet]
                self._link(new, u)
                if u in old_parents:
                    self._unlink(g, u)
            self._link(g, new)
        self._populated.update(updated)

    # ------------------------------------------------------------------ #
    # result
    # ------------------------------------------------------------------ #

    def build(self, context: FormalContext) -> ConceptLattice:
        """The :class:`ConceptLattice` for ``context`` of the concepts built
        so far.

        This is every build's one finishing step: the bottom's intent
        takes every attribute of ``context``, used by some row or not,
        and a context with no objects gets the single concept (∅, A).
        :meth:`from_lattice` undoes exactly this step.
        """
        universe = (1 << context.num_attributes) - 1
        if not self._intents:
            self._new_concept(0, universe)
            self._all_attrs = universe
        elif universe & ~self._all_attrs:
            self._grow_bottom(universe)
        with obs.span("godin.freeze", concepts=len(self._intents)):
            return ConceptLattice.from_masks(
                context, self._extents, self._intents, self._parents, self._children
            )


def build_lattice_godin(
    context: FormalContext,
    budget: Budget | None = None,
    resume_from: LatticeCheckpoint | ConceptLattice | None = None,
) -> ConceptLattice:
    """Build the concept lattice of ``context`` with Godin's Algorithm 1.

    With a ``budget``, an over-limit build raises
    :class:`~repro.robustness.errors.BudgetExceeded` whose ``checkpoint``
    can be passed back as ``resume_from`` (objects already inserted are
    skipped, so a resumed build reaches the identical lattice).  A
    ``resume_from`` lattice built from a prefix of ``context``'s rows is
    extended by the rest (:meth:`GodinLatticeBuilder.from_lattice`), to
    the lattice a fresh build gives.
    """
    if isinstance(resume_from, ConceptLattice):
        builder = GodinLatticeBuilder.from_lattice(resume_from, budget=budget)
    elif resume_from is not None:
        builder = GodinLatticeBuilder.from_checkpoint(resume_from, budget=budget)
    else:
        builder = GodinLatticeBuilder(budget=budget)
    with obs.span(
        "godin.build",
        objects=context.num_objects,
        attributes=context.num_attributes,
        resumed=resume_from is not None,
    ) as build_span:
        start = builder._num_objects
        if start < context.num_objects:
            builder.add_objects(
                [mask_of(row) for row in context.rows[start:]], first_obj=start
            )
        build_span.set(concepts=builder.num_concepts)
    lattice = builder.build(context)
    obs.set_gauge("lattice.concepts", len(lattice))
    return lattice
