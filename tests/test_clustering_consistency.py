"""Regressions for the clustering-context inconsistencies.

Three bugs rode the old double-evaluation idiom and die with it:

1. ``cluster_traces`` named attributes ``a<j>: <transition>`` while a
   second context builder used ``str(transition)`` with ``#n`` dedup
   suffixes — two incompatible attribute universes for the same FA
   (``cluster_traces`` and ``extend_clustering`` now share one body);
2. ``cluster_traces`` named objects by *pool* index even though rows are
   compacted over the accepted subset, so names drifted past rejections;
3. ``extend_clustering`` re-evaluated and re-appended already-rejected
   keys, and silently dropped ``budget``/``strict`` and the
   ``cluster.relation`` span.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.trace_clustering import (
    TraceClustering,
    cluster_traces,
    extend_clustering,
    trace_object_names,
    transition_attribute_names,
)
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.fa.templates import unordered_fa
from repro.lang.traces import parse_trace
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded, ClusteringError


def _fa():
    return unordered_fa(["open(X)", "read(X)", "close(X)"])


class TestCanonicalAttributeUniverse:
    """Bug 1: both context paths must share one attribute universe."""

    def test_cluster_and_build_agree(self):
        fa = _fa()
        ts = [parse_trace("open(x); close(x)"), parse_trace("read(x)")]
        clustering = cluster_traces(ts[:1], fa)
        extended = extend_clustering(clustering, ts[1:])
        assert extended.rejected == ()
        assert (
            clustering.lattice.context.attributes
            == extended.lattice.context.attributes
            == tuple(transition_attribute_names(fa))
        )

    def test_names_unique_for_identical_transitions(self):
        # Two transitions that render to the same text must still get
        # distinct attribute names (the index prefix is the identity).
        fa = unordered_fa(["open(X)", "open(X)"])
        names = transition_attribute_names(fa)
        assert len(names) == len(set(names)) == 2

    def test_contexts_from_both_paths_interchange(self):
        # The practical consequence: a context extended by one path is
        # the context the other builds, row for row and name for name.
        fa = _fa()
        ts = [
            parse_trace("open(x); read(x); close(x)"),
            parse_trace("open(x)", trace_id="named"),
        ]
        fresh = cluster_traces(ts, fa)
        extended = extend_clustering(cluster_traces(ts[:1], fa), ts[1:])
        assert extended.lattice.context.rows == fresh.lattice.context.rows
        assert extended.lattice.context.objects == fresh.lattice.context.objects


class TestCompactedObjectNames:
    """Bug 2: object names must track the compacted (accepted) position."""

    def test_rejection_does_not_shift_names(self):
        fa = unordered_fa(["open(X)", "close(X)"])
        ts = [
            parse_trace("open(x)"),
            parse_trace("read(x)"),  # rejected: read is not in the FA
            parse_trace("close(x)"),
        ]
        clustering = cluster_traces(ts, fa)
        assert len(clustering.rejected) == 1
        # Old bug: pool indices leaked through as ("t0", "t2").
        assert clustering.lattice.context.objects == ("t0", "t1")

    def test_trace_ids_win_over_positions(self):
        fa = unordered_fa(["open(X)"])
        ts = [
            parse_trace("open(x)", trace_id="alpha"),
            parse_trace("open(x); open(x)"),
        ]
        clustering = cluster_traces(ts, fa)
        assert clustering.lattice.context.objects == ("alpha", "t1")

    def test_helper_names_by_position(self):
        ts = [
            parse_trace("open(x)", trace_id="named"),
            parse_trace("close(x)"),
        ]
        assert trace_object_names(ts) == ["named", "t1"]

    def test_names_align_with_representatives(self):
        fa = unordered_fa(["open(X)", "close(X)"])
        ts = [
            parse_trace("read(x)"),  # rejected
            parse_trace("open(x)"),
            parse_trace("open(x); close(x)"),
        ]
        clustering = cluster_traces(ts, fa)
        context = clustering.lattice.context
        assert len(context.objects) == len(clustering.representatives)
        assert context.objects == tuple(
            trace_object_names(clustering.representatives)
        )


class TestExtendClustering:
    """Bug 3: rejected-key dedup, and the dropped budget/strict/span."""

    @staticmethod
    def _base():
        fa = unordered_fa(["open(X)", "close(X)"])
        ts = [parse_trace("open(x)"), parse_trace("read(x)", trace_id="bad")]
        return cluster_traces(ts, fa)

    def test_already_rejected_key_not_reappended(self):
        clustering = self._base()
        assert len(clustering.rejected) == 1
        extended = extend_clustering(
            clustering, [parse_trace("read(x)", trace_id="bad-again")]
        )
        # Old bug: the duplicate was re-evaluated and rejected grew to 2.
        assert len(extended.rejected) == 1
        assert extended.num_objects == clustering.num_objects
        assert extended.lattice is clustering.lattice

    def test_strict_raises_on_new_rejection(self):
        clustering = self._base()
        with pytest.raises(ClusteringError):
            extend_clustering(
                clustering, [parse_trace("write(x)")], strict=True
            )

    def test_strict_ignores_known_rejected_duplicates(self):
        # A duplicate of an already-quarantined trace is old news, not a
        # new strict-mode failure.
        clustering = self._base()
        extended = extend_clustering(
            clustering, [parse_trace("read(x)")], strict=True
        )
        assert len(extended.rejected) == 1

    def test_budget_is_honoured(self):
        clustering = self._base()
        new = [
            parse_trace("close(x)" + "; close(x)" * i, trace_id=f"n{i}")
            for i in range(8)
        ]
        with pytest.raises(BudgetExceeded):
            extend_clustering(clustering, new, budget=Budget(wall_seconds=0.0))

    def test_cluster_relation_span_emitted(self):
        recorder = obs.configure(record=True)
        try:
            clustering = self._base()
            extend_clustering(
                clustering,
                [
                    parse_trace("close(x)"),  # fresh class
                    parse_trace("read(x)"),  # duplicate of a rejected key
                    parse_trace("open(x)"),  # joins the existing class
                ],
            )
            spans = [s for s in recorder.spans if s.name == "cluster.relation"]
            # One from the base cluster_traces, one from extend_clustering
            # (the old code emitted none on the extend path).
            assert len(spans) == 2
            extend_span = spans[-1]
            assert extend_span.attrs["traces"] == 3
            assert extend_span.attrs["classes"] == 1
            assert extend_span.attrs["rejected"] == 0
            assert extend_span.attrs["rejected_dups"] == 1
        finally:
            obs.shutdown()

    def test_extend_matches_fresh_clustering(self):
        fa = unordered_fa(["open(X)", "close(X)"])
        first = [parse_trace("open(x)"), parse_trace("read(x)")]
        second = [
            parse_trace("close(x)"),
            parse_trace("read(x)"),
            parse_trace("open(x); close(x)"),
        ]
        extended = extend_clustering(cluster_traces(first, fa), second)
        # Rejected duplicates are deduplicated on extend, so compare
        # against a fresh clustering of the deduplicated corpus.
        fresh = cluster_traces(first + second[:1] + second[2:], fa)
        assert {c.extent for c in extended.lattice.concepts} == {
            c.extent for c in fresh.lattice.concepts
        }
        assert [t.key() for t in extended.representatives] == [
            t.key() for t in fresh.representatives
        ]

    def test_noncanonical_context_rejected_on_reuse(self):
        clustering = self._base()
        old = clustering.lattice.context
        legacy = FormalContext(
            old.objects,
            tuple(str(t) for t in clustering.reference_fa.transitions),
            old.rows,
        )
        doctored = TraceClustering(
            reference_fa=clustering.reference_fa,
            lattice=build_lattice_godin(legacy),
            representatives=clustering.representatives,
            class_counts=clustering.class_counts,
            class_members=clustering.class_members,
            rejected=clustering.rejected,
        )
        with pytest.raises(ClusteringError):
            extend_clustering(doctored, [parse_trace("close(x)")])


_ALPHABET = ("open", "read", "write", "close", "seek")


def _corpus(prefix: str):
    """Traces over ``_ALPHABET``; the reference FA below has no ``seek``,
    so some are rejected, and a corpus rarely uses every transition, so
    the lattice's bottom usually grows past every row."""
    return st.lists(
        st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=4),
        max_size=6,
    ).map(
        lambda corpus: [
            parse_trace("; ".join(f"{s}(x)" for s in symbols), trace_id=f"{prefix}{i}")
            for i, symbols in enumerate(corpus)
        ]
    )


def _by_id(clustering: TraceClustering) -> tuple:
    lattice = clustering.lattice
    return (
        lattice.extent_masks,
        lattice.intent_masks,
        lattice.parents,
        lattice.children,
        lattice.context.rows,
        lattice.context.objects,
    )


class TestExtendEqualsRebuild:
    """Extending a clustering equals clustering all its traces at once,
    concept for concept: the same ids, masks, covers, rows and names."""

    @given(_corpus("a"), _corpus("b"), _corpus("c"))
    @settings(max_examples=300, deadline=None)
    def test_extend_twice_equals_cluster_once(self, first, second, third):
        fa = unordered_fa(["open(X)", "read(X)", "write(X)", "close(X)"])
        extended = extend_clustering(
            extend_clustering(cluster_traces(first, fa), second), third
        )
        assert _by_id(extended) == _by_id(cluster_traces(first + second + third, fa))
        extended.lattice.validate()
