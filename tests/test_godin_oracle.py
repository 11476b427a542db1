"""Differential tests: the closure-climbing Godin insertion ≡ the full walk.

The builder finds an insertion's meets and their generators by climbing
from the bottom concept, creates the new concepts in ascending
(|generator intent|, generator id) order and picks each one's parents
among the meets of its generator's parents.  These tests pin it to
Algorithm 1 written out plainly as a reference: every insertion re-sorts
all concepts by intent size, visits every one of them, and finds parents
(and children) by all-pairs maximality scans.  Both must produce the
same lattice bit for bit — the same concept order, extents, intents,
parents and children — for a plain build, for ``from_lattice`` on a
finished prefix lattice followed by ``add_object`` (checked against a
fresh build of every row), for a resume from the checkpoint of a
``BudgetExceeded``, and when rows bring attributes no earlier row had
(the bottom-growth path).  Small dense contexts exercise deep climbs and
modified concepts; sparse bulk-shaped ones (a few attributes per row,
most rows new) give the bottom a high fan-in, as clustering a corpus
does; contexts drawn from a pool of a few rows repeat most of them, as
a Cable session's context does, and take the repeated-row join.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.context import FormalContext, set_of
from repro.core.godin import GodinLatticeBuilder, build_lattice_godin
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded
from repro.workloads.specs_catalog import SPEC_CATALOG


# --------------------------------------------------------------------- #
# reference semantics: sort every concept by intent size per insertion
# --------------------------------------------------------------------- #


class RefGodin:
    """Godin's Algorithm 1 on bitmasks, re-sorting on every insertion."""

    def __init__(self) -> None:
        self.extents: list[int] = []
        self.intents: list[int] = []
        self.parents: list[set[int]] = []
        self.children: list[set[int]] = []
        self.all_attrs = 0

    def new_concept(self, extent: int, intent: int) -> int:
        self.extents.append(extent)
        self.intents.append(intent)
        self.parents.append(set())
        self.children.append(set())
        return len(self.intents) - 1

    def link(self, child: int, parent: int) -> None:
        self.children[parent].add(child)
        self.parents[child].add(parent)

    def unlink(self, child: int, parent: int) -> None:
        self.children[parent].discard(child)
        self.parents[child].discard(parent)

    def bottom(self) -> int:
        return next(i for i, intent in enumerate(self.intents) if intent == self.all_attrs)

    def grow_bottom(self, grown: int) -> None:
        bottom = self.bottom()
        if not self.extents[bottom]:
            self.intents[bottom] = grown
        else:
            self.link(self.new_concept(0, grown), bottom)
        self.all_attrs = grown

    def insert(self, obj: int, row: int) -> None:
        obj_bit = 1 << obj
        if not self.intents:
            self.all_attrs = row
            self.new_concept(obj_bit, row)
            return
        if row & ~self.all_attrs:
            self.grow_bottom(self.all_attrs | row)
        intents, extents = self.intents, self.extents
        snapshot = sorted(range(len(intents)), key=lambda c: intents[c].bit_count())
        updated: dict[int, int] = {}
        for c in snapshot:
            intent = intents[c]
            if not intent & ~row:
                extents[c] |= obj_bit
                updated[intent] = c
                continue
            meet = intent & row
            if meet in updated:
                continue
            new = self.new_concept(extents[c] | obj_bit, meet)
            updated[meet] = new
            candidates = [
                d for intent_d, d in updated.items()
                if intent_d != meet and not meet & ~intent_d and d != new
            ]
            candidates.append(c)
            children = [
                d for d in candidates
                if not any(
                    e != d and extents[d] != extents[e] and not extents[d] & ~extents[e]
                    for e in candidates
                )
            ]
            above = [
                d for intent_d, d in updated.items()
                if intent_d != meet and not intent_d & ~meet and d != new
            ]
            parents = [
                d for d in above
                if not any(
                    e != d and intents[d] != intents[e] and not intents[d] & ~intents[e]
                    for e in above
                )
            ]
            for child in children:
                self.link(child, new)
            for parent in parents:
                self.link(new, parent)
            for child in children:
                for parent in parents:
                    if parent in self.parents[child]:
                        self.unlink(child, parent)

    def finish(self, context: FormalContext) -> "RefGodin":
        """The tail of ``build_lattice_godin``: the bottom takes every
        attribute of the context, used by some row or not."""
        all_bits = context.bits.all_attributes_bits
        if context.num_objects == 0:
            self.new_concept(0, all_bits)
            self.all_attrs = all_bits
        elif all_bits & ~self.all_attrs:
            self.grow_bottom(all_bits)
        return self


def ref_build(context: FormalContext) -> RefGodin:
    ref = RefGodin()
    for obj, row in enumerate(context.bits.rows_bits):
        ref.insert(obj, row)
    return ref.finish(context)


def assert_same(lattice, ref: RefGodin) -> None:
    """Concept order, extents, intents, parents and children all agree."""
    assert [(c.extent, c.intent) for c in lattice.concepts] == [
        (set_of(e), set_of(i)) for e, i in zip(ref.extents, ref.intents)
    ]
    assert list(lattice.parents) == [tuple(sorted(p)) for p in ref.parents]
    assert list(lattice.children) == [tuple(sorted(c)) for c in ref.children]


# --------------------------------------------------------------------- #
# generators
# --------------------------------------------------------------------- #


@st.composite
def contexts(draw, max_objects: int = 12, max_attrs: int = 7) -> FormalContext:
    """Random contexts; attribute ids may exceed any row's, so the final
    bottom often has to grow past every row."""
    num_attrs = draw(st.integers(0, max_attrs))
    rows = draw(
        st.lists(
            st.frozensets(st.integers(0, max(num_attrs - 1, 0)), max_size=num_attrs)
            if num_attrs
            else st.just(frozenset()),
            max_size=max_objects,
        )
    )
    return FormalContext(
        [f"o{i}" for i in range(len(rows))],
        [f"a{j}" for j in range(num_attrs)],
        rows,
    )


@st.composite
def sparse_contexts(draw) -> FormalContext:
    """Bulk-shaped contexts: 20–60 objects whose rows hold 2–4 of 10–16
    attributes, so most rows are new and the bottom has many parents."""
    num_attrs = draw(st.integers(10, 16))
    rows = draw(
        st.lists(
            st.frozensets(st.integers(0, num_attrs - 1), min_size=2, max_size=4),
            min_size=20,
            max_size=60,
        )
    )
    return FormalContext(
        [f"o{i}" for i in range(len(rows))],
        [f"a{j}" for j in range(num_attrs)],
        rows,
    )


@st.composite
def repeated_contexts(draw) -> FormalContext:
    """Contexts whose rows come from a pool of at most six, so most rows
    repeat an earlier one (as distinct traces executing the same
    transitions do) and take the builder's repeated-row path."""
    num_attrs = draw(st.integers(1, 8))
    pool = draw(
        st.lists(
            st.frozensets(st.integers(0, num_attrs - 1), max_size=num_attrs),
            min_size=1,
            max_size=6,
        )
    )
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    return FormalContext(
        [f"o{i}" for i in range(len(rows))],
        [f"a{j}" for j in range(num_attrs)],
        rows,
    )


def prefix_context(context: FormalContext, k: int) -> FormalContext:
    return FormalContext(context.objects[:k], context.attributes, context.rows[:k])


# --------------------------------------------------------------------- #
# tests
# --------------------------------------------------------------------- #


def check_plain_build(context: FormalContext) -> None:
    assert_same(build_lattice_godin(context), ref_build(context))


def check_from_lattice_then_add_object(context: FormalContext, k: int) -> None:
    # Resuming from a finished prefix lattice undoes its finishing step,
    # so the grown lattice is the one a fresh build of every row gives.
    builder = GodinLatticeBuilder.from_lattice(
        build_lattice_godin(prefix_context(context, k))
    )
    for obj in range(k, context.num_objects):
        builder.add_object(obj, context.rows[obj])
    assert_same(builder.build(context), ref_build(context))


def check_resume_after_budget_exceeded(context: FormalContext, limit: int) -> None:
    budget = Budget(max_objects=limit, checkpoint_every=1)
    try:
        lattice = build_lattice_godin(context, budget=budget)
    except BudgetExceeded as exc:
        assert exc.checkpoint.num_objects == limit
        lattice = build_lattice_godin(context, resume_from=exc.checkpoint)
    assert_same(lattice, ref_build(context))


class TestGodinMatchesSortedInsert:
    @given(contexts())
    @settings(max_examples=300, deadline=None)
    def test_plain_build(self, context):
        check_plain_build(context)

    @given(contexts(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_lattice_then_add_object(self, context, data):
        k = data.draw(st.integers(0, context.num_objects))
        check_from_lattice_then_add_object(context, k)

    @given(contexts(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_resume_after_budget_exceeded(self, context, data):
        limit = data.draw(st.integers(0, max(context.num_objects - 1, 0)))
        check_resume_after_budget_exceeded(context, limit)

    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=8),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_bringing_new_attributes(self, widths, spare):
        # Row i uses attributes nobody used before it (plus, on odd
        # rows, every attribute seen so far), so every insertion grows
        # the bottom: sometimes by widening an empty-extent bottom,
        # sometimes by hanging a fresh one under a populated bottom.
        rows, seen = [], 0
        for i, width in enumerate(widths):
            fresh = frozenset(range(seen, seen + width))
            rows.append(fresh | (frozenset(range(seen)) if i % 2 else frozenset()))
            seen += width
        context = FormalContext(
            [f"o{i}" for i in range(len(rows))],
            [f"a{j}" for j in range(seen + spare)],
            rows,
        )
        assert_same(build_lattice_godin(context), ref_build(context))


class TestGodinMatchesSortedInsertOnSparseContexts:
    @given(sparse_contexts())
    @settings(max_examples=100, deadline=None)
    def test_plain_build(self, context):
        check_plain_build(context)

    @given(sparse_contexts(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_from_lattice_then_add_object(self, context, data):
        k = data.draw(st.integers(0, context.num_objects))
        check_from_lattice_then_add_object(context, k)

    @given(sparse_contexts(), st.data())
    @settings(max_examples=50, deadline=None)
    def test_resume_after_budget_exceeded(self, context, data):
        limit = data.draw(st.integers(0, context.num_objects - 1))
        check_resume_after_budget_exceeded(context, limit)


class TestGodinMatchesSortedInsertOnRepeatedRows:
    @given(repeated_contexts())
    @settings(max_examples=200, deadline=None)
    def test_plain_build(self, context):
        check_plain_build(context)

    @given(repeated_contexts(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_from_lattice_then_add_object(self, context, data):
        k = data.draw(st.integers(0, context.num_objects))
        check_from_lattice_then_add_object(context, k)

    @given(repeated_contexts(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_resume_after_budget_exceeded(self, context, data):
        limit = data.draw(st.integers(0, context.num_objects - 1))
        check_resume_after_budget_exceeded(context, limit)


    @given(repeated_contexts(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_resumed_builders_index_every_populated_concept(self, context, data):
        # The repeated-row join finds its concept by intent, so a builder
        # resumed from a lattice or a checkpoint must know every
        # populated concept, and only those.
        k = data.draw(st.integers(0, context.num_objects - 1))
        with pytest.raises(BudgetExceeded) as exc:
            build_lattice_godin(context, budget=Budget(max_objects=k))
        for builder in (
            GodinLatticeBuilder.from_lattice(
                build_lattice_godin(prefix_context(context, k))
            ),
            GodinLatticeBuilder.from_checkpoint(exc.value.checkpoint),
        ):
            assert builder._populated == {
                intent: c
                for c, (extent, intent) in enumerate(
                    zip(builder._extents, builder._intents)
                )
                if extent
            }


@pytest.mark.parametrize("spec", SPEC_CATALOG, ids=lambda spec: spec.name)
def test_catalog_contexts(spec):
    from repro.workloads.pipeline import cached_run

    context = cached_run(spec.name).clustering.lattice.context
    assert_same(build_lattice_godin(context), ref_build(context))
