"""Clustering traces against a reference FA (Section 3.2)."""

from repro.core.trace_clustering import cluster_traces
from repro.fa.templates import unordered_fa
from repro.lang.traces import parse_trace


class TestContextConstruction:
    def test_objects_are_traces_attributes_are_transitions(
        self, stdio_traces, stdio_reference
    ):
        clustering = cluster_traces(stdio_traces, stdio_reference)
        context = clustering.lattice.context
        assert context.num_objects == len(stdio_traces)
        assert context.num_attributes == stdio_reference.num_transitions
        assert clustering.rejected == ()

    def test_rows_are_executed_transitions(self, stdio_traces, stdio_reference):
        clustering = cluster_traces(stdio_traces, stdio_reference)
        context = clustering.lattice.context
        for o, trace in enumerate(clustering.representatives):
            assert context.rows[o] == stdio_reference.executed_transitions(trace)

    def test_rejected_traces_reported(self, stdio_reference):
        traces = [parse_trace("fopen(f); fclose(f)"), parse_trace("mystery(z)")]
        rejected = cluster_traces(traces, stdio_reference).rejected
        assert len(rejected) == 1
        assert rejected[0].symbols == ("mystery",)


class TestClusterTraces:
    def test_dedup_default(self, stdio_reference):
        traces = [parse_trace("fopen(f); fclose(f)") for _ in range(5)]
        traces.append(parse_trace("popen(p); pclose(p)"))
        clustering = cluster_traces(traces, stdio_reference)
        assert clustering.num_objects == 2
        assert clustering.class_counts == (5, 1)
        assert len(clustering.class_members[0]) == 5

    def test_lattice_covers_all_classes(self, stdio_traces, stdio_reference):
        clustering = cluster_traces(stdio_traces, stdio_reference)
        top_extent = clustering.lattice.extent(clustering.lattice.top)
        assert top_extent == clustering.lattice.context.all_objects

    def test_rejected_members_preserved(self, stdio_reference):
        traces = [parse_trace("mystery(z)"), parse_trace("mystery(z)")]
        traces.append(parse_trace("fopen(f); fclose(f)"))
        clustering = cluster_traces(traces, stdio_reference)
        assert len(clustering.rejected) == 2  # both members of the class
        assert clustering.num_objects == 1

    def test_similarity_equals_shared_transitions(
        self, stdio_traces, stdio_reference
    ):
        # sim(X) = number of transitions executed by every trace in X.
        clustering = cluster_traces(stdio_traces, stdio_reference)
        lattice = clustering.lattice
        for c in lattice:
            shared = None
            for o in lattice.extent(c):
                row = stdio_reference.executed_transitions(
                    clustering.representatives[o]
                )
                shared = row if shared is None else shared & row
            if shared is not None:
                assert lattice.similarity(c) == len(shared)

    def test_traces_of_and_transitions_of(self, stdio_traces, stdio_reference):
        clustering = cluster_traces(stdio_traces, stdio_reference)
        assert clustering.traces_of([0]) == [clustering.representatives[0]]
        names = clustering.transitions_of([0])
        assert len(names) == 1 and "-->" in names[0]

    def test_unordered_reference_merges_order_variants(self):
        fa = unordered_fa(["a(X)", "b(X)", "c(X)"])
        traces = [parse_trace("a(x); b(x)"), parse_trace("b(x); a(x)")]
        clustering = cluster_traces(traces, fa)
        lattice = clustering.lattice
        assert lattice.object_concept(0) == lattice.object_concept(1)
