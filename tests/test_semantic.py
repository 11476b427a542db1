"""The semantic analysis subsystem: spec-diff and label-flow."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.diagnostics import Diagnostic, Location
from repro.analysis.semantic import (
    LabelAct,
    classify_relation,
    diff_fas,
    label_flow,
    label_flow_for_session,
    oracle_concept_labels,
    run_semantic_fa_passes,
    semantically_dead_transitions,
    shortest_accepting_completion,
    unvisitable_concepts,
)
from repro.core.batch import build_lattice_batch
from repro.core.context import FormalContext
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.ops import dfa_from_fa, language_equal
from repro.lang.traces import parse_trace
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded


def make(edges, initial, accepting):
    return FA.from_edges(edges, initial=initial, accepting=accepting)


@pytest.fixture
def full():
    """open (read)* close."""
    return make(
        [("s0", "open(X)", "s1"), ("s1", "read(X)", "s1"),
         ("s1", "close(X)", "s2")],
        ["s0"], ["s2"],
    )


@pytest.fixture
def noread():
    """open close — a strict subset of ``full``."""
    return make(
        [("s0", "open(X)", "s1"), ("s1", "close(X)", "s2")],
        ["s0"], ["s2"],
    )


def accepts_string(fa, symbols):
    return dfa_from_fa(fa).accepts(symbols)


class TestSpecDiff:
    def test_equal(self, full):
        clone = full.with_transitions(full.transitions)
        diff = diff_fas(full, clone)
        assert diff.relation == "equal"
        assert diff.equal
        assert diff.left_only is None and diff.right_only is None
        assert "SEM005" in diff.report.codes()
        assert not diff.report.has_errors

    def test_superset_with_witness(self, full, noread):
        diff = diff_fas(full, noread, "full", "noread")
        assert diff.relation == "superset"
        assert diff.right_only is None
        # The witness is accepted by exactly one side.
        assert accepts_string(full, diff.left_only)
        assert not accepts_string(noread, diff.left_only)
        # And it is the shortest possible disagreement: open read close.
        assert diff.left_only == ("open(X)", "read(X)", "close(X)")
        assert "SEM001" in diff.report.codes()
        assert "SEM006" in diff.report.codes()
        assert diff.report.has_errors

    def test_subset_direction(self, full, noread):
        diff = diff_fas(noread, full)
        assert diff.relation == "subset"
        assert diff.left_only is None
        assert accepts_string(full, diff.right_only)
        assert not accepts_string(noread, diff.right_only)

    def test_incomparable(self):
        a = make([("p", "a", "q")], ["p"], ["q"])
        b = make([("p", "b", "q")], ["p"], ["q"])
        diff = diff_fas(a, b)
        assert diff.relation == "incomparable"
        assert diff.left_only == ("a",)
        assert diff.right_only == ("b",)
        assert {"SEM001", "SEM002"} <= diff.report.codes()

    def test_empty_trace_witness(self):
        # left accepts ε, right does not: ε is the shortest witness.
        left = make([("p", "a", "p")], ["p"], ["p"])
        right = make([("p", "a", "q")], ["p"], ["q"])
        diff = diff_fas(left, right)
        assert diff.left_only == ()
        assert "ε" in diff.render_text()

    def test_alphabet_asymmetry_sem003(self, full, noread):
        diff = diff_fas(full, noread)
        sem003 = [d for d in diff.report if d.code == "SEM003"]
        assert [d.location.ref for d in sem003] == ["read(X)"]
        assert sem003[0].severity == "warning"

    def test_classify_relation(self):
        assert classify_relation(None, None) == "equal"
        assert classify_relation(None, ("a",)) == "subset"
        assert classify_relation(("a",), None) == "superset"
        assert classify_relation(("a",), ("b",)) == "incomparable"

    def test_fingerprints_stable(self, full, noread):
        first = diff_fas(full, noread, "l", "r")
        second = diff_fas(full, noread, "l", "r")
        assert [d.fingerprint for d in first.report] == [
            d.fingerprint for d in second.report
        ]
        assert "SEM001@witness:left" in {d.fingerprint for d in first.report}

    def test_json_round_trip(self, full, noread):
        diff = diff_fas(full, noread, "full", "noread")
        document = json.loads(json.dumps(diff.to_dict()))
        assert document["relation"] == "superset"
        assert document["left_only_witness"] == [
            "open(X)", "read(X)", "close(X)"
        ]
        codes = {d["code"] for d in document["report"]["diagnostics"]}
        assert "SEM001" in codes
        for entry in document["report"]["diagnostics"]:
            rebuilt = Diagnostic(
                code=entry["code"],
                severity=entry["severity"],
                location=Location(
                    entry["location"]["kind"], entry["location"]["ref"]
                ),
                message=entry["message"],
                suggestion=entry.get("suggestion", ""),
            )
            assert rebuilt.fingerprint == (
                f"{entry['code']}@{entry['location']['kind']}"
                + (
                    f":{entry['location']['ref']}"
                    if entry["location"]["ref"]
                    else ""
                )
            )


class TestSemanticallyDead:
    def test_parallel_paths_are_dead(self):
        fa = make(
            [("s0", "open(X)", "s1"), ("s0", "open(X)", "s1b"),
             ("s1", "close(X)", "s2"), ("s1b", "close(X)", "s2")],
            ["s0"], ["s2"],
        )
        dead = semantically_dead_transitions(fa)
        assert dead == [0, 1, 2, 3]
        # Each individually removable without changing the language.
        for index in dead:
            pruned = fa.with_transitions(
                [t for j, t in enumerate(fa.transitions) if j != index]
            )
            assert language_equal(fa, pruned)

    def test_live_chain_is_not_dead(self, full):
        assert semantically_dead_transitions(full) == []
        assert run_semantic_fa_passes(full) == []

    def test_sem004_diagnostic(self):
        fa = make(
            [("s0", "a", "s1"), ("s0", "a", "s1b"),
             ("s1", "b", "s2"), ("s1b", "b", "s2")],
            ["s0"], ["s2"],
        )
        diags = run_semantic_fa_passes(fa)
        assert all(d.code == "SEM004" for d in diags)
        assert all(d.severity == "warning" for d in diags)
        assert {d.location.ref for d in diags} == {"0", "1", "2", "3"}

    def test_budget_trips_with_checkpoint(self):
        fa = make(
            [("s0", "a", "s1"), ("s0", "a", "s1b"),
             ("s1", "b", "s2"), ("s1b", "b", "s2")],
            ["s0"], ["s2"],
        )
        with pytest.raises(BudgetExceeded) as info:
            semantically_dead_transitions(fa, budget=Budget(wall_seconds=0.0))
        assert isinstance(info.value.checkpoint, list)


class TestCompletion:
    def test_mid_state(self, full):
        assert shortest_accepting_completion(full, ["s1"]) == ("close(X)",)

    def test_already_accepting(self, full):
        assert shortest_accepting_completion(full, ["s2"]) == ()

    def test_unreachable(self):
        fa = make([("p", "a", "q")], ["p"], ["q"])
        dead_end = make(
            [("p", "a", "q"), ("q", "b", "r")], ["p"], ["q"]
        )
        assert shortest_accepting_completion(dead_end, ["r"]) is None
        assert shortest_accepting_completion(fa, ["q"]) == ()


def diamond_lattice():
    """Seven concepts over four objects; see extents in the asserts."""
    ctx = FormalContext(
        objects=["t0", "t1", "t2", "t3"],
        attributes=["a0", "a1", "a2"],
        rows=[{0}, {0, 1}, {1, 2}, {2}],
    )
    return build_lattice_batch(ctx)


class TestLabelFlow:
    def test_conflict_names_both_concepts(self):
        lat = diamond_lattice()
        good = next(c for c in lat if lat.extent(c) == frozenset({0, 1}))
        bad = next(c for c in lat if lat.extent(c) == frozenset({1, 2}))
        result = label_flow(lat, [(good, "good"), (bad, "bad")])
        (conflict,) = result.conflicts
        assert conflict.obj == 1
        assert conflict.good_concept == good
        assert conflict.bad_concept == bad
        (lbl001,) = [d for d in result.report if d.code == "LBL001"]
        assert lbl001.severity == "error"
        assert f"concept {good}" in lbl001.message
        assert f"concept {bad}" in lbl001.message
        assert lbl001.location == Location.trace(1)

    def test_no_conflict_on_same_polarity_overlap(self):
        lat = diamond_lattice()
        a = next(c for c in lat if lat.extent(c) == frozenset({0, 1}))
        b = next(c for c in lat if lat.extent(c) == frozenset({1, 2}))
        result = label_flow(lat, [(a, "good"), (b, "good-variant")])
        assert result.conflicts == ()
        assert "LBL001" not in result.report.codes()

    def test_redundant_act_lbl002(self):
        lat = diamond_lattice()
        parent = next(c for c in lat if lat.extent(c) == frozenset({0, 1}))
        child = next(c for c in lat if lat.extent(c) == frozenset({1}))
        result = label_flow(lat, [(parent, "good"), (child, "good")])
        (lbl002,) = [d for d in result.report if d.code == "LBL002"]
        assert lbl002.location == Location.concept(child)
        # Reverse order: the smaller act comes first, so nothing is
        # redundant yet when it lands.
        reverse = label_flow(lat, [(child, "good"), (parent, "good")])
        assert "LBL002" not in reverse.report.codes()

    def test_implied_frontier_lbl003(self):
        lat = diamond_lattice()
        parent = next(c for c in lat if lat.extent(c) == frozenset({0, 1}))
        result = label_flow(lat, [(parent, "good")])
        implied = [d for d in result.report if d.code == "LBL003"]
        # Immediate nonempty children of the act concept only.
        child = next(c for c in lat if lat.extent(c) == frozenset({1}))
        assert [d.location for d in implied] == [Location.concept(child)]
        # The full closure still lives on the result.
        assert child in result.implied_good
        assert result.implied_good[child] == parent

    def test_bad_taints_upward(self):
        lat = diamond_lattice()
        bad = next(c for c in lat if lat.extent(c) == frozenset({1}))
        result = label_flow(lat, [(bad, "bad")])
        tainted = set(result.tainted)
        assert lat.top in tainted
        assert all(
            lat.extent(c) >= lat.extent(bad) for c in tainted
        )

    def test_unvisitable_lbl004(self):
        lat = diamond_lattice()
        empty = [c for c in lat if not lat.extent(c)]
        assert set(unvisitable_concepts(lat)) == set(empty)
        result = label_flow(lat, [])
        lbl004 = [d for d in result.report if d.code == "LBL004"]
        assert [d.location.ref for d in lbl004] == [str(c) for c in empty]

    def test_neutral_labels_ignored(self):
        lat = diamond_lattice()
        result = label_flow(lat, [(lat.top, "unsure")])
        assert result.implied_good == {}
        assert result.implied_bad == {}
        assert result.conflicts == ()

    def test_budget_trips(self):
        lat = diamond_lattice()
        with pytest.raises(BudgetExceeded):
            label_flow(
                lat, [(lat.top, "good")], budget=Budget(wall_seconds=0.0)
            )

    def test_json_round_trip(self):
        lat = diamond_lattice()
        good = next(c for c in lat if lat.extent(c) == frozenset({0, 1}))
        bad = next(c for c in lat if lat.extent(c) == frozenset({1, 2}))
        result = label_flow(lat, [(good, "good"), (bad, "bad")])
        document = json.loads(json.dumps(result.to_dict()))
        assert document["conflicts"][0]["good_concept"] == good
        assert document["conflicts"][0]["bad_concept"] == bad
        codes = {
            d["code"] for d in document["report"]["diagnostics"]
        }
        assert "LBL001" in codes


@st.composite
def lattices_with_acts(draw):
    """A random context's lattice plus a random act log over it."""
    num_objects = draw(st.integers(0, 6))
    num_attrs = draw(st.integers(1, 5))
    rows = [
        draw(st.frozensets(st.integers(0, num_attrs - 1)))
        for _ in range(num_objects)
    ]
    lat = build_lattice_batch(
        FormalContext(
            [f"o{i}" for i in range(num_objects)],
            [f"a{i}" for i in range(num_attrs)],
            rows,
        )
    )
    labels = ["good", "good-setup", "bad", "bad-interleaving", "unsure"]
    acts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(list(lat)), st.sampled_from(labels)
            ),
            max_size=6,
        )
    )
    return lat, acts


class TestLabelFlowBruteForce:
    """``label_flow`` against brute force over the concepts' extents."""

    @given(lattices_with_acts())
    @settings(max_examples=150, deadline=None)
    def test_closures_and_conflicts_match_extents(self, case):
        lat, acts = case
        result = label_flow(lat, acts)
        good = [c for c, label in acts if label.startswith("good")]
        bad = [c for c, label in acts if label.startswith("bad")]
        ext = lat.extent

        def below(witnesses):
            return {
                c for c in lat if any(ext(c) <= ext(w) for w in witnesses)
            }

        assert set(result.implied_good) == below(good)
        assert set(result.implied_bad) == below(bad)
        nonempty_bad = [b for b in bad if ext(b)]
        assert set(result.tainted) == {
            c for c in lat if any(ext(c) >= ext(b) for b in nonempty_bad)
        }
        # Each witness is an act of the right polarity that implies it.
        for c, w in result.implied_good.items():
            assert w in good and ext(c) <= ext(w)
        for c, w in result.implied_bad.items():
            assert w in bad and ext(c) <= ext(w)
        for c, w in result.tainted.items():
            assert w in nonempty_bad and ext(c) >= ext(w)

        expected = {
            (g, b, min(ext(g) & ext(b)))
            for g in good
            for b in bad
            if ext(g) & ext(b)
        }
        got = [(c.good_concept, c.bad_concept, c.obj) for c in result.conflicts]
        assert len(got) == len(set(got))
        assert set(got) == expected


class TestOracleLabels:
    def test_maximal_uniform_acts(self):
        lat = diamond_lattice()
        labels = {0: "good", 1: "good", 2: "bad", 3: "bad"}
        acts = oracle_concept_labels(lat, labels)
        by_extent = {lat.extent(a.concept): a.label for a in acts}
        assert by_extent == {
            frozenset({0, 1}): "good",
            frozenset({2, 3}): "bad",
        }
        # Conflict-free by construction.
        result = label_flow(lat, acts)
        assert result.conflicts == ()


class TestSessionFlow:
    def test_conflicting_session_reports_lbl001(self):
        spec = make(
            [("s0", "open(X)", "s1"), ("s1", "read(X)", "s1"),
             ("s1", "close(X)", "s2")],
            ["s0"], ["s2"],
        )
        traces = [
            parse_trace("open(a); close(a)", trace_id="t0"),
            parse_trace("open(b); read(b); close(b)", trace_id="t1"),
        ]
        from repro.cable.session import CableSession

        session = CableSession(cluster_traces(traces, spec))
        lat = session.lattice
        child = next(
            c for c in lat if c != lat.top and len(lat.extent(c)) == 1
        )
        session.label_traces(lat.top, "good", "all")
        session.label_traces(child, "bad", "all")
        assert session.label_log == [(lat.top, "good"), (child, "bad")]
        result = label_flow_for_session(session)
        (conflict,) = result.conflicts
        assert {conflict.good_concept, conflict.bad_concept} == {
            lat.top, child
        }
        (lbl001,) = [d for d in result.report if d.code == "LBL001"]
        assert str(lat.top) in lbl001.message
        assert str(child) in lbl001.message

    def test_label_log_survives_persistence(self):
        spec = make(
            [("s0", "open(X)", "s1"), ("s1", "close(X)", "s2")],
            ["s0"], ["s2"],
        )
        traces = [parse_trace("open(a); close(a)", trace_id="t0")]
        from repro.cable.persist import session_from_dict, session_to_dict
        from repro.cable.session import CableSession

        session = CableSession(cluster_traces(traces, spec))
        session.label_traces(session.lattice.top, "good", "all")
        restored = session_from_dict(session_to_dict(session))
        assert restored.label_log == session.label_log

    def test_old_documents_restore_with_empty_log(self):
        spec = make(
            [("s0", "open(X)", "s1"), ("s1", "close(X)", "s2")],
            ["s0"], ["s2"],
        )
        traces = [parse_trace("open(a); close(a)", trace_id="t0")]
        from repro.cable.persist import (
            _payload_text,
            session_from_dict,
            session_to_dict,
        )
        from repro.cable.session import CableSession
        from repro.robustness.atomicio import checksum_text

        session = CableSession(cluster_traces(traces, spec))
        data = session_to_dict(session)
        del data["label_log"]
        data["checksum"] = checksum_text(_payload_text(data))
        assert session_from_dict(data).label_log == []
