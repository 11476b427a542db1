"""Label bookkeeping: one label per trace, undo, queries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cable.labels import LabelStore


@pytest.fixture
def store():
    return LabelStore(5)


class TestAssign:
    def test_initially_unlabeled(self, store):
        assert store.unlabeled() == frozenset(range(5))
        assert not store.all_labeled()

    def test_assign(self, store):
        changed = store.assign([0, 2], "good")
        assert changed == 2
        assert store.label_of(0) == "good"
        assert store.label_of(1) is None

    def test_reassign_replaces(self, store):
        store.assign([0], "good")
        store.assign([0], "bad")
        assert store.label_of(0) == "bad"

    def test_assign_same_label_reports_no_change(self, store):
        store.assign([0], "good")
        assert store.assign([0], "good") == 0

    def test_empty_label_rejected(self, store):
        with pytest.raises(ValueError):
            store.assign([0], "")

    def test_clear(self, store):
        store.assign([0, 1], "good")
        assert store.clear([0]) == 1
        assert store.label_of(0) is None
        assert store.label_of(1) == "good"

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LabelStore(-1)


class TestUndo:
    def test_undo_assign(self, store):
        store.assign([0, 1], "good")
        assert store.undo()
        assert store.unlabeled() == frozenset(range(5))

    def test_undo_restores_previous_label(self, store):
        store.assign([0], "good")
        store.assign([0], "bad")
        store.undo()
        assert store.label_of(0) == "good"

    def test_undo_empty_history(self, store):
        assert not store.undo()

    def test_undo_clear(self, store):
        store.assign([0], "good")
        store.clear([0])
        store.undo()
        assert store.label_of(0) == "good"

    def test_undo_assign_each_is_one_act(self, store):
        store.assign([0], "good")
        assert store.assign_each({0: "bad", 1: "good", 3: "bad"}) == 3
        assert store.undo()
        assert store.as_dict() == {0: "good"}

    def test_assign_each_rejects_an_empty_label(self, store):
        with pytest.raises(ValueError):
            store.assign_each({0: "good", 1: ""})


class TestQueries:
    def test_unlabeled_in(self, store):
        store.assign([0], "good")
        assert store.unlabeled_in([0, 1, 2]) == frozenset({1, 2})

    def test_labeled_in(self, store):
        store.assign([0, 3], "good")
        assert store.labeled_in([0, 1, 3]) == frozenset({0, 3})

    def test_with_label(self, store):
        store.assign([0, 1], "good")
        store.assign([2], "bad")
        assert store.with_label("good") == frozenset({0, 1})
        assert store.with_label("good", [1, 2]) == frozenset({1})

    def test_labels_in(self, store):
        store.assign([0], "good")
        store.assign([1], "bad")
        assert store.labels_in([0, 1, 2]) == frozenset({"good", "bad"})
        assert store.labels_in([2]) == frozenset()

    def test_partition(self, store):
        store.assign([0, 1], "good")
        store.assign([2], "mixed")
        assert store.partition() == {
            "good": frozenset({0, 1}),
            "mixed": frozenset({2}),
        }

    def test_as_dict(self, store):
        store.assign([4], "bad")
        assert store.as_dict() == {4: "bad"}

    def test_all_labeled(self, store):
        store.assign(range(5), "good")
        assert store.all_labeled()


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("assign"),
            st.lists(st.integers(0, 7), max_size=4),
            st.sampled_from(["good", "bad"]),
        ),
        st.tuples(st.just("clear"), st.lists(st.integers(0, 7), max_size=4)),
        st.tuples(st.just("undo")),
        st.tuples(st.just("grow"), st.integers(0, 4)),
    ),
    max_size=20,
)


class TestUnlabeledMask:
    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_mask_tracks_the_labels(self, ops):
        store = LabelStore(4)
        for op, *args in ops:
            if op == "grow":
                store.grow(len(store) + args[0])
            elif op == "undo":
                store.undo()
            else:
                objects = [o for o in args[0] if o < len(store)]
                getattr(store, op)(objects, *args[1:])
            unlabeled = {o for o in range(len(store)) if store.label_of(o) is None}
            assert store.unlabeled_mask == sum(1 << o for o in unlabeled)
            assert store.unlabeled() == unlabeled
            assert store.all_labeled() == (not unlabeled)
