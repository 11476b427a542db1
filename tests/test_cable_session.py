"""Cable sessions: states, labeling semantics, views, and the cost counter."""

import pytest

from repro.cable.session import CableSession, SelectionError
from repro.cable.views import ConceptState
from repro.core.trace_clustering import cluster_traces
from repro.lang.traces import parse_trace


@pytest.fixture
def session(stdio_traces, stdio_reference):
    return CableSession(cluster_traces(stdio_traces, stdio_reference))


class TestStates:
    def test_initially_unlabeled_except_empty(self, session):
        for c in session.lattice:
            extent = session.lattice.extent(c)
            expected = (
                ConceptState.FULLY_LABELED if not extent else ConceptState.UNLABELED
            )
            assert session.concept_state(c) == expected

    def test_state_transitions(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        session.label_traces(child, "good", "all")
        assert session.concept_state(child) == ConceptState.FULLY_LABELED
        assert session.concept_state(top) == ConceptState.PARTLY_LABELED
        session.label_traces(top, "bad", "unlabeled")
        assert session.concept_state(top) == ConceptState.FULLY_LABELED

    def test_colors(self):
        assert ConceptState.UNLABELED.color == "green"
        assert ConceptState.PARTLY_LABELED.color == "yellow"
        assert ConceptState.FULLY_LABELED.color == "red"

    def test_concepts_in_state(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        assert session.concepts_in_state(ConceptState.UNLABELED) == []

    def test_done(self, session):
        assert not session.done()
        session.label_traces(session.lattice.top, "good", "all")
        assert session.done()


class TestLabelTraces:
    def test_label_all(self, session):
        n = session.label_traces(session.lattice.top, "good", "all")
        assert n == session.clustering.num_objects

    def test_label_unlabeled_only(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        child_size = len(session.lattice.extent(child))
        session.label_traces(child, "bad", "all")
        n = session.label_traces(top, "good", "unlabeled")
        assert n == session.clustering.num_objects - child_size
        assert session.labels.with_label("bad") == session.lattice.extent(child)

    def test_relabel_by_label_selection(self, session):
        top = session.lattice.top
        session.label_traces(top, "good", "all")
        n = session.label_traces(top, "good_fopen", ("label", "good"))
        assert n == session.clustering.num_objects
        assert not session.labels.with_label("good")

    def test_no_trace_has_two_labels(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        session.label_traces(child, "bad", "all")
        session.label_traces(top, "good", "all")  # replaces
        partition = session.labels.partition()
        total = sum(len(objs) for objs in partition.values())
        assert total == session.clustering.num_objects
        assert not session.labels.with_label("bad")

    def test_empty_selection_is_error(self, session):
        top = session.lattice.top
        session.label_traces(top, "good", "all")
        with pytest.raises(SelectionError):
            session.label_traces(top, "bad", "unlabeled")

    def test_bad_selector_rejected(self, session):
        with pytest.raises(SelectionError):
            session.label_traces(session.lattice.top, "good", "nonsense")

    def test_operations_counted(self, session):
        session.inspect(session.lattice.top)
        session.label_traces(session.lattice.top, "good", "all")
        assert session.ops.inspections == 1
        assert session.ops.labelings == 1
        assert session.ops.total == 2


class TestInspect:
    def test_summary_fields(self, session):
        top = session.lattice.top
        summary = session.inspect(top)
        assert summary.concept == top
        assert summary.num_traces == session.clustering.num_objects
        assert summary.num_unlabeled == summary.num_traces
        assert summary.state == ConceptState.UNLABELED
        assert summary.similarity == session.lattice.similarity(top)
        assert summary.children == session.lattice.children[top]

    def test_labels_present(self, session):
        top = session.lattice.top
        child = session.lattice.children[top][0]
        session.label_traces(child, "bad", "all")
        assert session.inspect(top).labels_present == frozenset({"bad"})

    def test_render(self, session):
        text = session.inspect(session.lattice.top).render()
        assert "traces:" in text and "transitions:" in text


class TestNegativeIndices:
    """A negative concept index is resolved once, on entry: the session
    records the concept it named, which stays put when the lattice grows."""

    def test_label_log_keeps_resolved_index_across_add_traces(self, session):
        last = len(session.lattice) - 1
        extent = session.lattice.extent(last)
        assert session.inspect(-1).concept == last
        session.label_traces(-1, "bad", "all")
        assert session.label_log == [(last, "bad")]
        session.add_traces(
            [
                parse_trace("fopen(X); fwrite(X)"),
                parse_trace("popen(X); fwrite(X); fclose(X)"),
            ]
        )
        assert len(session.lattice) - 1 != last  # -1 now names another
        assert session.label_log == [(last, "bad")]
        assert session.lattice.extent(last) >= extent

    def test_focus_records_resolved_parent_concept(
        self, session, stdio_reference
    ):
        focused = session.focus(-1, stdio_reference)
        assert focused.parent_concept == len(session.lattice) - 1


class TestViews:
    def test_show_fa_accepts_selected_traces(self, session):
        top = session.lattice.top
        fa = session.show_fa(top, "all")
        for trace in session.clustering.representatives:
            assert fa.accepts(trace)

    def test_show_fa_on_label_selection(self, session, stdio_labels):
        top = session.lattice.top
        for o, label in stdio_labels.items():
            session.labels.assign([o], label)
        fa = session.show_fa(top, ("label", "good"))
        for o, label in stdio_labels.items():
            trace = session.clustering.representatives[o]
            if label == "good":
                assert fa.accepts(trace)

    def test_show_transitions_is_intent_for_all(self, session):
        for c in session.lattice:
            if not session.lattice.extent(c):
                continue
            shown = session.show_transitions(c, "all")
            intent = session.clustering.transitions_of(session.lattice.intent(c))
            assert shown == intent

    def test_show_traces(self, session):
        top = session.lattice.top
        traces = session.show_traces(top, "all")
        assert len(traces) == session.clustering.num_objects

    def test_show_fa_empty_selection_rejected(self, session):
        with pytest.raises(SelectionError):
            session.show_fa(session.lattice.top, ("label", "nope"))

    def test_custom_learner(self, stdio_traces, stdio_reference):
        calls = []

        def learner(traces):
            calls.append(len(traces))
            from repro.learners.sk_strings import learn_sk_strings

            return learn_sk_strings(traces).fa

        session = CableSession(
            cluster_traces(stdio_traces, stdio_reference), learner=learner
        )
        session.show_fa(session.lattice.top)
        assert calls == [session.clustering.num_objects]


class TestResults:
    def test_check_labeling(self, session, stdio_labels):
        for o, label in stdio_labels.items():
            session.labels.assign([o], label)
        fa = session.check_labeling("good")
        good = [
            session.clustering.representatives[o]
            for o, label in stdio_labels.items()
            if label == "good"
        ]
        for trace in good:
            assert fa.accepts(trace)

    def test_check_labeling_without_label(self, session):
        with pytest.raises(SelectionError):
            session.check_labeling("good")

    def test_expanded_labels_cover_duplicates(self, stdio_reference):
        traces = [parse_trace("fopen(f); fclose(f)") for _ in range(3)]
        session = CableSession(cluster_traces(traces, stdio_reference))
        session.label_traces(session.lattice.top, "good", "all")
        expanded = session.expanded_labels()
        assert len(expanded) == 3
        assert all(label == "good" for _, label in expanded)

    def test_scenario_labels_by_event_identity(self, session, stdio_labels):
        for o, label in stdio_labels.items():
            session.labels.assign([o], label)
        scenarios = [
            parse_trace("fopen(X); fread(X); fclose(X)"),  # good
            parse_trace("popen(X); fread(X); fclose(X)"),  # bad
            parse_trace("never(X); seen(X)"),  # unknown
        ]
        labels = session.scenario_labels(scenarios)
        assert labels[0] == "good"
        assert labels[1] == "bad"
        assert 2 not in labels


class TestSummaryHelpers:
    def test_unlabeled_uniform_candidate_flag(self, session):
        top = session.lattice.top
        assert session.inspect(top).unlabeled_uniform_candidate
        session.label_traces(top, "good", "all")
        assert not session.inspect(top).unlabeled_uniform_candidate
