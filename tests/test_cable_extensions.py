"""Session extensions: incremental trace addition, refinement, persistence."""

import pytest

from repro.cable.persist import load_session, save_session, session_from_dict, session_to_dict
from repro.cable.refine import refine_clustering, refine_session
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces, extend_clustering
from repro.fa.templates import seed_order_fa, unordered_fa
from repro.lang.traces import parse_trace
from repro.robustness.errors import InputError


@pytest.fixture
def session(stdio_traces, stdio_reference):
    return CableSession(cluster_traces(stdio_traces, stdio_reference))


class TestExtendClustering:
    def test_duplicate_joins_class(self, session):
        before_objects = session.clustering.num_objects
        dup = parse_trace("popen(X); fread(X); pclose(X)", trace_id="dup")
        extended = extend_clustering(session.clustering, [dup])
        assert extended.num_objects == before_objects
        assert sum(extended.class_counts) == sum(session.clustering.class_counts) + 1

    def test_new_class_appended(self, session):
        new = parse_trace("popen(X); fwrite(X); fwrite(X); pclose(X)", trace_id="n")
        extended = extend_clustering(session.clustering, [new])
        assert extended.num_objects == session.clustering.num_objects + 1
        assert extended.representatives[-1].key() == new.key()

    def test_incremental_equals_recluster(self, session, stdio_traces, stdio_reference):
        new = [
            parse_trace("popen(X); fwrite(X); fwrite(X); pclose(X)"),
            parse_trace("fopen(X); fwrite(X); fwrite(X)"),
        ]
        incremental = extend_clustering(session.clustering, new)
        incremental.lattice.validate()
        full = cluster_traces(list(stdio_traces) + new, stdio_reference)
        assert {c.extent for c in incremental.lattice.concepts} == {
            c.extent for c in full.lattice.concepts
        }

    def test_rejected_trace_recorded(self, session):
        alien = parse_trace("mystery(X)")
        extended = extend_clustering(session.clustering, [alien])
        assert alien in extended.rejected
        assert extended.num_objects == session.clustering.num_objects

    def test_existing_concept_indices_stable(self, session):
        new = [parse_trace("popen(X); fwrite(X); fwrite(X); pclose(X)")]
        extended = extend_clustering(session.clustering, new)
        for i, concept in enumerate(session.clustering.lattice.concepts):
            # The i-th concept still exists at index i, possibly with the
            # new object added to its extent.
            grown = extended.lattice.concepts[i]
            assert concept.intent == grown.intent
            assert concept.extent <= grown.extent


class TestAddTraces:
    def test_labels_preserved_and_new_unlabeled(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        added = session.add_traces(
            [parse_trace("popen(X); fwrite(X); fwrite(X); pclose(X)")]
        )
        assert added == 1
        new_index = session.clustering.num_objects - 1
        assert session.labels.label_of(new_index) is None
        assert session.labels.label_of(0) == "good"
        assert not session.done()

    def test_duplicate_inherits_class_label(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        added = session.add_traces(
            [parse_trace("popen(X); fread(X); pclose(X)", trace_id="dup")]
        )
        assert added == 0
        assert session.done()  # nothing new to label


class TestRefinement:
    def test_refinement_only_splits(self, session):
        # Every concept extent of the refined lattice is contained in
        # some old extent (distinctions are added, never removed).
        old_extents = {c.extent for c in session.lattice.concepts}
        symbols = sorted(
            f"{s}(X)" for t in session.clustering.representatives for s in t.symbols
        )
        refined = refine_clustering(
            session.clustering, seed_order_fa(symbols, "pclose(X)")
        )
        refined.lattice.validate()
        for concept in refined.lattice.concepts:
            assert any(concept.extent <= old for old in old_extents)

    def test_refine_session_keeps_labels(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        symbols = sorted(
            f"{s}(X)" for t in session.clustering.representatives for s in t.symbols
        )
        refine_session(session, unordered_fa(symbols))
        assert session.done()
        assert session.labels.label_of(0) == "good"

    def test_refinement_resolves_non_well_formed(self, stdio_reference):
        # Under a too-coarse FA two differently-labeled traces share a
        # concept; apposing a seed-order FA separates them.
        from repro.core.wellformed import is_well_formed

        traces = [
            parse_trace("open(X); close(X)", trace_id="good"),
            parse_trace("close(X); open(X)", trace_id="bad"),
        ]
        coarse = unordered_fa(["open(X)", "close(X)"])
        clustering = cluster_traces(traces, coarse)
        labeling = {0: "good", 1: "bad"}
        assert not is_well_formed(clustering.lattice, labeling)
        refined = refine_clustering(
            clustering, seed_order_fa(["open(X)", "close(X)"], "close(X)")
        )
        assert is_well_formed(refined.lattice, labeling)

    def test_rejecting_refinement_fa_is_error(self, session):
        narrow = unordered_fa(["fopen(X)"])  # rejects popen traces
        with pytest.raises(InputError):
            refine_clustering(session.clustering, narrow)

    def test_refined_reference_fa_consistent_with_rows(self, session):
        symbols = sorted(
            f"{s}(X)" for t in session.clustering.representatives for s in t.symbols
        )
        refined = refine_clustering(
            session.clustering, seed_order_fa(symbols, "pclose(X)")
        )
        context = refined.lattice.context
        for o, trace in enumerate(refined.representatives):
            assert refined.reference_fa.executed_transitions(trace) == context.rows[o]


class TestPersistence:
    def test_roundtrip(self, session, tmp_path):
        session.inspect(session.lattice.top)
        session.label_traces(session.lattice.top, "good", "all")
        path = tmp_path / "session.json"
        save_session(session, path)
        restored = load_session(path)
        assert restored.clustering.num_objects == session.clustering.num_objects
        assert restored.labels.as_dict() == session.labels.as_dict()
        assert restored.ops.total == session.ops.total
        assert len(restored.lattice) == len(session.lattice)

    def test_duplicate_counts_survive(self, stdio_reference, tmp_path):
        traces = [
            parse_trace("fopen(X); fclose(X)", trace_id=f"t{i}") for i in range(3)
        ]
        session = CableSession(cluster_traces(traces, stdio_reference))
        path = tmp_path / "session.json"
        save_session(session, path)
        restored = load_session(path)
        assert restored.clustering.class_counts == (3,)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            session_from_dict({"format": "something-else"})

    def test_dict_roundtrip_stable(self, session):
        session.label_traces(session.lattice.top, "good", "all")
        once = session_to_dict(session)
        twice = session_to_dict(session_from_dict(once))
        assert once == twice
