"""Focus sub-sessions: re-clustering one concept under a different FA."""

import pytest

from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.templates import seed_order_fa, unordered_fa
from repro.lang.traces import parse_trace


@pytest.fixture
def session(stdio_traces, stdio_reference):
    return CableSession(cluster_traces(stdio_traces, stdio_reference))


def focus_fa(session, concept):
    symbols = sorted(
        {str(e) for t in session.show_traces(concept) for e in t}
    )
    return unordered_fa(symbols)


class TestFocus:
    def test_subsession_covers_concept_traces(self, session):
        top = session.lattice.top
        focused = session.focus(top, focus_fa(session, top))
        assert len(focused.clustering.representatives) == len(
            session.lattice.extent(top)
        )
        assert focused.unclustered == frozenset()

    def test_labels_carried_into_focus(self, session):
        top = session.lattice.top
        session.labels.assign([0], "good")
        focused = session.focus(top, focus_fa(session, top))
        carried = [
            focused.labels.label_of(i)
            for i in range(len(focused.clustering.representatives))
        ]
        assert carried.count("good") == 1

    def test_carried_labels_are_not_undoable(self, session):
        # Carrying the parent's labels in is not an act of the focused
        # session: its undo has nothing to take back.
        top = session.lattice.top
        session.labels.assign([0, 1], "good")
        focused = session.focus(top, focus_fa(session, top))
        before = focused.labels.as_dict(), focused.labels.unlabeled_mask
        assert not focused.labels.undo()
        assert (focused.labels.as_dict(), focused.labels.unlabeled_mask) == before

    def test_end_merges_labels_back(self, session):
        top = session.lattice.top
        focused = session.focus(top, focus_fa(session, top))
        focused.label_traces(focused.lattice.top, "good", "all")
        changed = focused.end()
        assert changed == session.clustering.num_objects
        assert session.done()

    def test_end_is_one_undoable_act(self, session):
        # The merge of every class is one act in the parent: one undo
        # leaves every merged class unlabeled again.
        session.labels.assign([0], "bad")
        top = session.lattice.top
        focused = session.focus(top, focus_fa(session, top))
        focused.label_traces(focused.lattice.top, "good", "all")
        assert focused.end() == session.clustering.num_objects
        assert session.done()
        assert session.labels.undo()
        assert session.labels.as_dict() == {0: "bad"}

    def test_end_adds_operation_counts(self, session):
        top = session.lattice.top
        focused = session.focus(top, focus_fa(session, top))
        focused.inspect(focused.lattice.top)
        focused.label_traces(focused.lattice.top, "good", "all")
        focused.end()
        assert session.ops.inspections == 1
        assert session.ops.labelings == 1

    def test_focus_on_subconcept(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        focused = session.focus(child, focus_fa(session, child))
        assert len(focused.clustering.representatives) == len(
            session.lattice.extent(child)
        )

    def test_rejected_traces_stay_unclustered(self, session):
        top = session.lattice.top
        narrow = FA.from_edges(
            [("q", "fopen(X)", "q"), ("q", "fread(X)", "q"), ("q", "fclose(X)", "q")],
            initial=["q"],
            accepting=["q"],
        )
        focused = session.focus(top, narrow)
        assert focused.unclustered  # popen traces don't fit
        focused.label_traces(focused.lattice.top, "good", "all")
        focused.end()
        assert not session.done()
        assert session.labels.unlabeled() == focused.unclustered

    def test_nested_focus(self, session):
        top = session.lattice.top
        outer = session.focus(top, focus_fa(session, top))
        inner = outer.focus(outer.lattice.top, focus_fa(outer, outer.lattice.top))
        inner.label_traces(inner.lattice.top, "good", "all")
        inner.end()
        outer.end()
        assert session.done()

    def test_seed_order_focus_splits_wrong_closes(self, session):
        # Focusing with a seed-order FA on pclose separates traces where
        # events follow the pclose from those that end with it.
        top = session.lattice.top
        symbols = sorted({str(e) for t in session.show_traces(top) for e in t})
        focused = session.focus(top, seed_order_fa(symbols, "pclose(X)"))
        lattice = focused.lattice
        reps = focused.clustering.representatives
        with_pclose = {
            i for i, t in enumerate(reps) if "pclose" in t.symbols
        }
        gammas = {lattice.object_concept(i) for i in with_pclose}
        others = {
            lattice.object_concept(i)
            for i in range(len(reps))
            if i not in with_pclose
        }
        assert not (gammas & others)


class TestFocusLabel:
    """Section 4.3's mixed-label workflow."""

    def test_mixed_then_refocus_with_parity_fa(self):
        from repro.cable.session import CableSession, SelectionError
        from repro.core.trace_clustering import cluster_traces
        from repro.fa.automaton import FA

        loop = FA.from_edges(
            [("q", "foo(X)", "q")], initial=["q"], accepting=["q"]
        )
        traces = [
            parse_trace("; ".join(["foo(x)"] * n), trace_id=f"n{n}")
            for n in range(1, 5)
        ]
        session = CableSession(cluster_traces(traces, loop))
        session.label_traces(session.lattice.top, "mixed", "all")

        parity = FA.from_edges(
            [
                ("a0", "foo(X)", "a1"),
                ("a1", "foo(X)", "a0"),
                ("b0", "foo(X)", "b1"),
                ("b1", "foo(X)", "b0"),
            ],
            initial=["a0", "b0"],
            accepting=["a1", "b0"],
        )
        sub = session.focus_label("mixed", parity)
        # The parity FA separates even from odd: the labeling is now
        # reachable en masse.
        from repro.core.wellformed import is_well_formed

        wanted = {
            o: ("good" if len(sub.clustering.representatives[o]) % 2 == 0 else "bad")
            for o in range(len(sub.clustering.representatives))
        }
        assert is_well_formed(sub.lattice, wanted)
        for o, label in wanted.items():
            sub.labels.assign([o], label)
        sub.end()
        assert session.done()
        assert not session.labels.with_label("mixed")

    def test_focus_label_requires_labeled_traces(self, session):
        from repro.cable.session import SelectionError
        from repro.fa.templates import unordered_fa

        with pytest.raises(SelectionError):
            session.focus_label("mixed", unordered_fa(["a(X)"]))

    def test_focus_label_scopes_to_label(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        session.label_traces(child, "mixed", "all")
        sub = session.focus_label("mixed", focus_fa(session, child))
        assert len(sub.clustering.representatives) + len(sub.unclustered) == len(
            session.lattice.extent(child)
        )
