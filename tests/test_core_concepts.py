"""Concepts, the concept lattice, and its navigation operations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import disable_debug_checks, enable_debug_checks
from repro.core.batch import build_lattice_batch
from repro.core.concepts import Concept, ConceptLattice
from repro.core.context import FormalContext, set_of
from repro.core.godin import GodinLatticeBuilder, build_lattice_godin
from repro.core.nextclosure import build_lattice_nextclosure
from repro.core.trace_clustering import cluster_traces
from repro.robustness.errors import InputError, LookupInputError


@pytest.fixture
def lattice(animals):
    return build_lattice_batch(animals)


class TestStructure:
    def test_validate(self, lattice):
        lattice.validate()

    def test_unique_top_and_bottom(self, lattice):
        assert lattice.extent(lattice.top) == lattice.context.all_objects
        assert lattice.intent(lattice.bottom) == lattice.context.all_attributes

    def test_parents_children_symmetric(self, lattice):
        for c in lattice:
            for p in lattice.parents[c]:
                assert c in lattice.children[p]

    def test_order_is_extent_inclusion(self, lattice):
        for c in lattice:
            for p in lattice.parents[c]:
                assert lattice.extent(c) < lattice.extent(p)
                assert lattice.intent(p) < lattice.intent(c)

    def test_similarity_increases_downward(self, lattice):
        # The paper's key property (Section 3.1).
        for c in lattice:
            for p in lattice.parents[c]:
                assert lattice.similarity(c) >= lattice.similarity(p)

    def test_concept_ordering_operators(self):
        small = Concept(frozenset({0}), frozenset({0, 1}))
        big = Concept(frozenset({0, 1}), frozenset({0}))
        assert small < big and small <= big
        assert not big < small


class TestNavigation:
    def test_object_concept_is_smallest_containing(self, lattice, animals):
        for o in range(animals.num_objects):
            gamma = lattice.object_concept(o)
            assert o in lattice.extent(gamma)
            for c in lattice:
                if o in lattice.extent(c):
                    assert len(lattice.extent(gamma)) <= len(lattice.extent(c))

    def test_attribute_concept_is_largest_containing(self, lattice, animals):
        for a in range(animals.num_attributes):
            mu = lattice.attribute_concept(a)
            assert a in lattice.intent(mu)
            for c in lattice:
                if a in lattice.intent(c):
                    assert len(lattice.extent(mu)) >= len(lattice.extent(c))

    def test_ancestors_descendants_inverse(self, lattice):
        for c in lattice:
            for a in lattice.ancestors(c):
                assert c in lattice.descendants(a)

    def test_top_has_no_ancestors(self, lattice):
        assert lattice.ancestors(lattice.top) == set()
        assert lattice.descendants(lattice.bottom) == set()

    def test_bfs_top_down_starts_at_top_and_covers_all(self, lattice):
        order = lattice.bfs_top_down()
        assert order[0] == lattice.top
        assert sorted(order) == sorted(lattice)

    def test_bfs_parents_before_children_levels(self, lattice):
        order = lattice.bfs_top_down()
        position = {c: i for i, c in enumerate(order)}
        for c in lattice:
            for child in lattice.children[c]:
                # BFS guarantees the first-discovered parent precedes.
                assert any(position[p] < position[child] for p in lattice.parents[child])

    def test_bottom_up_order_children_first(self, lattice):
        order = lattice.bottom_up_order()
        position = {c: i for i, c in enumerate(order)}
        for c in lattice:
            for child in lattice.children[c]:
                assert position[child] < position[c]

    def test_own_objects_partition(self, lattice):
        # Every object is an own-object of exactly one concept: γ(o).
        seen = {}
        for c in lattice:
            for o in lattice.own_objects(c):
                assert o not in seen
                seen[o] = c
        assert set(seen) == set(lattice.context.all_objects)
        for o, c in seen.items():
            assert lattice.object_concept(o) == c


@st.composite
def contexts(draw):
    num_objects = draw(st.integers(0, 8))
    num_attrs = draw(st.integers(0, 6))
    rows = [
        draw(st.frozensets(st.integers(0, max(num_attrs - 1, 0)), max_size=num_attrs))
        for _ in range(num_objects)
    ]
    return FormalContext(
        [f"o{i}" for i in range(num_objects)],
        [f"a{j}" for j in range(num_attrs)],
        rows,
    )


def eager_object_concepts(lattice) -> dict[int, int]:
    """γ by a scan of every extent: the smallest extent containing the
    object, the first concept on ties."""
    gamma: dict[int, int] = {}
    for i, concept in enumerate(lattice.concepts):
        for o in concept.extent:
            best = gamma.get(o)
            if best is None or len(concept.extent) < len(lattice.extent(best)):
                gamma[o] = i
    return gamma


class TestObjectConceptIndex:
    @pytest.mark.parametrize(
        "build",
        [build_lattice_godin, build_lattice_nextclosure, build_lattice_batch],
        ids=["godin", "nextclosure", "batch"],
    )
    @given(ctx=contexts())
    @settings(max_examples=60, deadline=None)
    def test_lazy_index_equals_eager_scan(self, build, ctx):
        lattice = build(ctx)
        # The first lookup builds the index, and an unknown object
        # still raises.
        with pytest.raises(LookupInputError):
            lattice.object_concept(ctx.num_objects)
        expected = eager_object_concepts(lattice)
        assert set(expected) == set(range(ctx.num_objects))
        for o in range(ctx.num_objects):
            assert lattice.object_concept(o) == expected[o]


class TestMeetJoin:
    def test_meet_is_glb(self, lattice):
        for c1 in lattice:
            for c2 in lattice:
                m = lattice.meet(c1, c2)
                assert lattice.extent(m) <= lattice.extent(c1)
                assert lattice.extent(m) <= lattice.extent(c2)

    def test_join_is_lub(self, lattice):
        for c1 in lattice:
            for c2 in lattice:
                j = lattice.join(c1, c2)
                assert lattice.extent(j) >= lattice.extent(c1)
                assert lattice.extent(j) >= lattice.extent(c2)

    def test_meet_join_absorption(self, lattice):
        for c1 in list(lattice)[:4]:
            for c2 in list(lattice)[:4]:
                assert lattice.join(c1, lattice.meet(c1, c2)) == c1
                assert lattice.meet(c1, lattice.join(c1, c2)) == c1

    def test_concept_with_extent_missing(self, lattice):
        with pytest.raises(KeyError):
            lattice.concept_with_extent(frozenset({0, 99}))


class TestDegenerate:
    def test_single_object_context(self):
        ctx = FormalContext(["o"], ["a"], [{0}])
        lattice = build_lattice_batch(ctx)
        lattice.validate()
        assert len(lattice) == 1
        assert lattice.top == lattice.bottom

    def test_empty_object_context(self):
        ctx = FormalContext([], ["a", "b"], [])
        lattice = build_lattice_batch(ctx)
        assert len(lattice) == 1
        assert lattice.intent(0) == frozenset({0, 1})

    def test_no_attribute_context(self):
        ctx = FormalContext(["o1", "o2"], [], [set(), set()])
        lattice = build_lattice_batch(ctx)
        assert len(lattice) == 1
        assert lattice.extent(0) == frozenset({0, 1})


def build_from_concepts(ctx: FormalContext) -> ConceptLattice:
    """``from_concepts`` on another build's concepts, in reverse order."""
    return ConceptLattice.from_concepts(ctx, reversed(build_lattice_godin(ctx).concepts))


def lattice_by_id(lattice: ConceptLattice) -> tuple:
    """Every concept's extent and intent masks and covers, by concept id."""
    return (
        lattice.extent_masks,
        lattice.intent_masks,
        lattice.parents,
        lattice.children,
    )


class TestMaskRepresentation:
    """The lattice holds int masks; its frozenset concepts are made from
    them on demand, and every construction agrees on both."""

    @pytest.mark.parametrize(
        "build",
        [build_lattice_godin, build_lattice_nextclosure, build_lattice_batch,
         build_from_concepts],
        ids=["godin", "nextclosure", "batch", "from_concepts"],
    )
    @given(ctx=contexts())
    @settings(max_examples=60, deadline=None)
    def test_concepts_match_masks(self, build, ctx):
        lattice = build(ctx)
        assert len(lattice.concepts) == len(lattice.intent_masks) == len(lattice)
        for c, concept in enumerate(lattice.concepts):
            assert concept.extent == set_of(lattice.extent_masks[c])
            assert concept.intent == set_of(lattice.intent_masks[c])
            assert lattice.extent(c) == concept.extent
            assert lattice.intent(c) == concept.intent
            assert lattice.similarity(c) == len(concept.intent)

    @given(ctx=contexts(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_from_lattice_then_add_object_equals_fresh_build(self, ctx, data):
        k = data.draw(st.integers(0, ctx.num_objects))
        prefix = FormalContext(ctx.objects[:k], ctx.attributes, ctx.rows[:k])
        builder = GodinLatticeBuilder.from_lattice(build_lattice_godin(prefix))
        for obj in range(k, ctx.num_objects):
            builder.add_object(obj, ctx.rows[obj])
        grown = builder.build(ctx)
        assert lattice_by_id(grown) == lattice_by_id(build_lattice_godin(ctx))
        grown.validate()

    @pytest.mark.parametrize(
        "build", [build_lattice_nextclosure, build_lattice_batch],
        ids=["nextclosure", "batch"],
    )
    @given(ctx=contexts())
    @settings(max_examples=60, deadline=None)
    def test_from_lattice_of_another_construction(self, build, ctx):
        # Another numbering can be resumed unless build() would have had
        # to hang its empty bottom last; it never yields a broken lattice.
        try:
            builder = GodinLatticeBuilder.from_lattice(build(ctx))
        except InputError:
            return
        grown = builder.build(ctx)
        grown.validate()
        fresh = build_lattice_godin(ctx)
        assert set(zip(grown.extent_masks, grown.intent_masks)) == set(
            zip(fresh.extent_masks, fresh.intent_masks)
        )

    def test_cluster_traces_makes_no_concepts(self, bulk_corpus, monkeypatch):
        made = []
        original = Concept.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Concept, "__init__", counting_init)
        traces, fa = bulk_corpus
        # The suite-wide invariant hook reads every concept; clustering
        # itself must not.
        disable_debug_checks()
        try:
            lattice = cluster_traces(traces, fa).lattice
        finally:
            enable_debug_checks()
        assert "concepts" not in lattice.__dict__
        assert not made
        assert len(lattice) > 60
        assert len(lattice.concepts) == len(lattice)
        assert len(made) == len(lattice)

    def test_constructor_errors_unchanged(self):
        ctx = FormalContext(["o0", "o1"], ["a0", "a1"], [{0}, {1}])
        top = Concept(frozenset({0, 1}), frozenset())
        left = Concept(frozenset({0}), frozenset({0}))
        right = Concept(frozenset({1}), frozenset({1}))
        with pytest.raises(ValueError, match="duplicate concept extents"):
            ConceptLattice(ctx, [top, top], [[], [0]], [[1], []])
        with pytest.raises(ValueError, match="unique top/bottom"):
            ConceptLattice(ctx, [top, left, right], [[], [0], [0]], [[1, 2], [], []])
        with pytest.raises(ValueError, match="length mismatch"):
            ConceptLattice(ctx, [top, left], [[]], [[], []])
        with pytest.raises(ValueError, match="duplicate concept extents"):
            ConceptLattice.from_masks(ctx, [3, 3], [0, 0], [[], [0]], [[1], []])
