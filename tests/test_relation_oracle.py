"""Differential tests: the one-sweep relation R ≡ the two-pass sweep.

``FA.relation`` matches each event once: the forward sweep records every
configuration's incoming edges and the backward pass walks them from the
accepting configurations.  These tests keep the earlier two-pass form as
the reference: a forward pass that keeps only the reachable
configurations, then a backward pass that matches every event again and
keeps the edges whose target is co-reachable.  On random NFAs with data
both must agree on acceptance, on the relation row, on the accepting
paths (in order) and on the configuration layers that
:class:`~repro.verify.checker.TemporalChecker` and
:func:`~repro.verify.explain.diagnose_rejection` read.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fa.automaton import FA, RelationResult
from repro.lang.events import EMPTY_BINDING, Event
from repro.lang.traces import Trace
from tests.test_property_fa import (
    nfas,
    paths_by_scan,
    traces_with_data,
    walked_traces,
)


def ref_layers(fa: FA, trace: Trace) -> list[set]:
    """Reachable ``(state, binding)`` configurations before each event and
    after the last, padded with empty layers once the run is stuck."""
    current = {(s, EMPTY_BINDING) for s in fa.initial}
    layers = [current]
    for event in trace:
        nxt = set()
        for state, binding in current:
            for _, t in fa.outgoing(state):
                new_binding = t.pattern.match(event, binding)
                if new_binding is not None:
                    nxt.add((t.dst, new_binding))
        layers.append(nxt)
        current = nxt
    return layers


def ref_relation(fa: FA, trace: Trace) -> RelationResult:
    """Forward layers, then a backward pass that matches every event again."""
    n = len(trace)
    layers = ref_layers(fa, trace)
    final = {cfg for cfg in layers[n] if cfg[0] in fa.accepting}
    if not final:
        return RelationResult(False, frozenset())
    co_reachable = [set() for _ in range(n + 1)]
    co_reachable[n] = final
    used = set()
    for i in range(n - 1, -1, -1):
        for state, binding in layers[i]:
            for index, t in fa.outgoing(state):
                new_binding = t.pattern.match(trace[i], binding)
                if new_binding is not None and (t.dst, new_binding) in co_reachable[i + 1]:
                    co_reachable[i].add((state, binding))
                    used.add(index)
    return RelationResult(True, frozenset(used))


def check_against_reference(fa: FA, trace: Trace, limit: int) -> None:
    layers = fa._forward_layers(trace)
    assert [set(layer) for layer in layers] == ref_layers(fa, trace)
    expected = ref_relation(fa, trace)
    assert fa.relation(trace) == expected
    assert fa.accepts(trace) == expected.accepted
    assert fa.executed_transitions(trace) == expected.executed
    # Depth first, the first ``limit`` paths are a prefix of all of them.
    assert fa.accepting_paths(trace, limit=limit) == paths_by_scan(fa, trace)[:limit]


class TestOneSweepRelation:
    @given(nfas(data=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_pass_reference(self, fa, data):
        traces = data.draw(st.lists(traces_with_data, min_size=1, max_size=4))
        traces += data.draw(st.lists(walked_traces(fa), min_size=1, max_size=4))
        limit = data.draw(st.sampled_from([1, 3, 10**6]))
        for trace in traces:
            check_against_reference(fa, trace, limit)

    @given(nfas(data=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_stuck_runs_keep_every_layer(self, fa, data):
        # A run that gets stuck early still yields len(trace) + 1 layers,
        # which the checker and the explainer index into.  Without ``*``
        # transitions nothing consumes the ``stuck`` events.
        fa = fa.with_transitions(
            [t for t in fa.transitions if not t.pattern.is_wildcard]
        )
        trace = data.draw(walked_traces(fa))
        trace = Trace(trace.events + (Event("stuck"),) * 3)
        layers = fa._forward_layers(trace)
        assert len(layers) == len(trace) + 1
        assert not layers[-1]
        check_against_reference(fa, trace, 10**6)

    def test_edges_into_dead_ends_are_not_in_r(self):
        # q0 -a-> q1 (accepting) and q0 -a-> q2 (a dead end): both edges
        # are recorded forward, only the first is on an accepting path.
        fa = FA.from_edges(
            [("q0", "a(X)", "q1"), ("q0", "a(X)", "q2"), ("q2", "b(X)", "q2")],
            initial=["q0"],
            accepting=["q1"],
        )
        trace = Trace((Event("a", ("1",)),))
        assert set(fa._forward_layers(trace)[1]) == {
            ("q1", (("X", "1"),)),
            ("q2", (("X", "1"),)),
        }
        assert fa.relation(trace) == RelationResult(True, frozenset({0}))
        check_against_reference(fa, trace, 10)


def rebuilt(fa: FA) -> FA:
    """A fresh FA with ``fa``'s current attributes: no memo, fresh index."""
    return FA(fa.states, fa.initial, fa.accepting, fa.transitions)


class TestStepMemo:
    """``_forward_layers`` matches each distinct step once per FA; the
    memo must never outlive the language it was built for."""

    @given(nfas(data=True), nfas(data=True), st.data())
    @settings(max_examples=200, deadline=None)
    def test_reassignment_drops_the_memo(self, fa, other, data):
        traces = data.draw(st.lists(traces_with_data, min_size=1, max_size=4))
        traces += data.draw(st.lists(walked_traces(fa), min_size=1, max_size=4))
        for trace in traces:
            fa.relation(trace)  # fill the memo under the old language
        attr = data.draw(st.sampled_from(["transitions", "initial", "accepting"]))
        if attr == "transitions":
            # Keep only transitions between states this FA has.
            fa.transitions = tuple(
                t for t in other.transitions
                if t.src in fa.states and t.dst in fa.states
            ) + fa.transitions[: data.draw(st.integers(0, len(fa.transitions)))]
        else:
            chosen = data.draw(st.sets(st.sampled_from(fa.states)))
            setattr(fa, attr, frozenset(chosen))
        fresh = rebuilt(fa)
        for trace in traces:
            expected = ref_relation(fresh, trace)
            assert fa.relation(trace) == expected
            assert fa.accepts(trace) == expected.accepted

    def test_memo_stays_under_its_bound(self, monkeypatch):
        import repro.fa.automaton as automaton

        monkeypatch.setattr(automaton, "STEP_MEMO_SIZE", 16)
        fa = FA.from_edges([("q", "a(X)", "q")], initial=["q"], accepting=["q"])
        # Every event names a new object, so each step is a new one:
        # 200 distinct steps against a bound of 16.
        traces = [
            Trace(tuple(Event("a", (f"o{i}_{j}",)) for j in range(4)))
            for i in range(50)
        ]
        fresh = rebuilt(fa)
        for trace in traces:
            assert fa.relation(trace) == ref_relation(fresh, trace)
            assert len(fa._steps) <= 16

    def test_pickled_fa_carries_no_memo(self):
        import pickle

        fa = FA.from_edges(
            [("q0", "a(X)", "q1"), ("q1", "b(X)", "q1")],
            initial=["q0"],
            accepting=["q1"],
        )
        trace = Trace((Event("a", ("1",)), Event("b", ("1",))))
        assert fa.relation(trace).accepted
        assert fa._steps
        payload = pickle.dumps(fa)
        assert pickle.dumps(rebuilt(fa)) == payload
        copy = pickle.loads(payload)
        assert copy._steps == {}
        assert copy.version == fa.version
        assert copy.relation(trace) == fa.relation(trace)

    def test_threads_sharing_an_fa_agree(self, monkeypatch):
        # Threads share one FA's memo; with a tiny bound they clear it
        # under each other's feet, and every row must still be right.
        import sys
        import threading

        import repro.fa.automaton as automaton

        monkeypatch.setattr(automaton, "STEP_MEMO_SIZE", 8)
        fa = FA.from_edges(
            [("q0", "a(X)", "q1"), ("q1", "b(X)", "q1"), ("q1", "c(X,Y)", "q0")],
            initial=["q0"],
            accepting=["q1"],
        )
        traces = [
            Trace(
                (
                    Event("a", (f"x{i % 7}",)),
                    Event("b", (f"x{i % 7}",)),
                    Event("c", (f"x{i % 7}", f"y{i % 5}")),
                    Event("a", (f"x{i % 3}",)),
                )
            )
            for i in range(60)
        ]
        expected = [ref_relation(rebuilt(fa), t) for t in traces]
        results: dict[int, list] = {}

        def sweep(worker: int) -> None:
            results[worker] = [fa.relation(t) for t in traces * 5]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {w: expected * 5 for w in range(6)}
