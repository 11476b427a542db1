"""Deviance scores and the Ranked strategy."""

import pytest

from repro.core.trace_clustering import cluster_traces
from repro.lang.traces import parse_trace
from repro.rank.scores import class_deviance, concept_scores, transition_support
from repro.rank.strategy import ranked_strategy
from repro.strategies.base import StuckError
from repro.strategies.optimal import optimal_cost


@pytest.fixture
def clustering(stdio_reference):
    # A frequency profile: the common lifecycles dominate, the bug is rare.
    texts = (
        ["fopen(X); fread(X); fclose(X)"] * 10
        + ["popen(X); fread(X); pclose(X)"] * 8
        + ["fopen(X); fread(X)"] * 1  # rare leak
    )
    traces = [parse_trace(t, trace_id=f"t{i}") for i, t in enumerate(texts)]
    return cluster_traces(traces, stdio_reference)


class TestScores:
    def test_support_counts_duplicates(self, clustering):
        support = transition_support(clustering)
        context = clustering.lattice.context
        # The fopen transition is executed by 11 of 19 observed traces.
        fopen_attr = next(
            a for a, name in enumerate(context.attributes) if "fopen" in name
        )
        assert support[fopen_attr] == pytest.approx(11 / 19)

    def test_rare_class_is_most_deviant(self, clustering):
        deviance = class_deviance(clustering)
        leak = next(
            o
            for o, t in enumerate(clustering.representatives)
            if "fclose" not in t.symbols and "pclose" not in t.symbols
        )
        assert deviance[leak] == max(deviance.values())

    def test_deviance_in_unit_interval(self, clustering):
        for value in class_deviance(clustering).values():
            assert 0.0 <= value <= 1.0

    def test_concept_scores_empty_concept_zero(self, clustering):
        scores = concept_scores(clustering)
        lattice = clustering.lattice
        for c in lattice:
            if not lattice.extent(c):
                assert scores[c] == 0.0

    def test_most_suspicious_concept_contains_the_bug(self, clustering):
        scores = concept_scores(clustering)
        lattice = clustering.lattice
        best = max(
            (c for c in lattice if lattice.extent(c)), key=lambda c: scores[c]
        )
        leak = next(
            o
            for o, t in enumerate(clustering.representatives)
            if "fclose" not in t.symbols and "pclose" not in t.symbols
        )
        assert leak in lattice.extent(best)


class TestRankedStrategy:
    def test_completes(self, clustering):
        reference = {
            o: ("bad" if "fclose" not in t.symbols and "pclose" not in t.symbols
                else "good")
            for o, t in enumerate(clustering.representatives)
        }
        outcome = ranked_strategy(clustering, reference)
        assert outcome.completed
        assert outcome.cost >= optimal_cost(clustering.lattice, reference)

    def test_bug_labeled_first(self, clustering):
        # The ranked order reaches the deviant class before the bulk.
        from repro.rank.scores import concept_scores

        scores = concept_scores(clustering)
        lattice = clustering.lattice
        order = sorted(lattice, key=lambda c: (-scores[c], c))
        leak = next(
            o
            for o, t in enumerate(clustering.representatives)
            if "fclose" not in t.symbols and "pclose" not in t.symbols
        )
        first_with_leak = next(
            i for i, c in enumerate(order) if leak in lattice.extent(c)
        )
        bulk = next(
            o
            for o, t in enumerate(clustering.representatives)
            if "fclose" in t.symbols
        )
        first_pure_bulk = next(
            i
            for i, c in enumerate(order)
            if lattice.extent(c) and leak not in lattice.extent(c)
            and bulk in lattice.extent(c)
        )
        assert first_with_leak < first_pure_bulk

    def test_stuck_on_non_well_formed(self, stdio_reference):
        # Two distinct traces that execute the same transitions: their
        # objects have identical rows, so no concept separates them.
        traces = [
            parse_trace("fopen(X); fread(X); fclose(X)", trace_id="a"),
            parse_trace("fopen(X); fread(X); fread(X); fclose(X)", trace_id="b"),
        ]
        clustering = cluster_traces(traces, stdio_reference)
        assert clustering.num_objects == 2
        with pytest.raises(StuckError):
            ranked_strategy(clustering, {0: "good", 1: "bad"})
