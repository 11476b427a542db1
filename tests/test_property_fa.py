"""Hypothesis property tests for the automaton algebra.

Random symbolic NFAs are generated and the classical identities checked:
determinization and minimization preserve the language, complement flips
membership, the product constructions satisfy the Boolean laws, and the
executed-transitions relation is consistent with acceptance.

The relation R of Section 3.2 is also checked differentially on NFAs
with data: patterns with variables, literals and ``_`` slots, arities
0-2 and ``*`` wildcards, against traces whose events carry arguments.
The reference enumerates accepting paths by trying *every* transition
out of a state, so a fault in the FA's symbol index (say, a state that
mixes symbol and wildcard transitions) shows up as a difference.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.fa.automaton import FA, Transition
from repro.fa.ops import (
    determinize,
    intersect,
    language_equal,
    language_subset,
    minimize,
    symbol_complement,
    union,
)
from repro.lang.events import (
    ANY,
    EMPTY_BINDING,
    WILDCARD_SYMBOL,
    Event,
    EventPattern,
    Lit,
    Var,
    parse_pattern,
)
from repro.lang.traces import Trace

ALPHABET = ("a", "b", "c")
#: Object identifiers of events with data, and the pattern slots over them.
IDENTS = ("1", "2")
ARG_PATTERNS = (Var("X"), Var("Y"), Lit("1"), Lit("2"), ANY)


@st.composite
def data_patterns(draw) -> EventPattern:
    """A symbol of arity 0-2 with variable/literal/``_`` slots, or ``*``."""
    if draw(st.integers(0, 4)) == 0:
        return EventPattern(WILDCARD_SYMBOL)
    symbol = draw(st.sampled_from(ALPHABET))
    args = draw(st.lists(st.sampled_from(ARG_PATTERNS), max_size=2))
    return EventPattern(symbol, tuple(args))


@st.composite
def nfas(draw, data: bool = False):
    """Small random NFAs over a fixed 3-symbol alphabet; with ``data``,
    labels are :func:`data_patterns` instead of bare symbols."""
    num_states = draw(st.integers(1, 4))
    states = [f"q{i}" for i in range(num_states)]
    num_edges = draw(st.integers(0, 8))
    transitions = []
    for _ in range(num_edges):
        src = draw(st.sampled_from(states))
        dst = draw(st.sampled_from(states))
        if data:
            pattern = draw(data_patterns())
        else:
            pattern = parse_pattern(draw(st.sampled_from(ALPHABET)))
        transitions.append(Transition(src, pattern, dst))
    initial = draw(st.sets(st.sampled_from(states), min_size=1))
    accepting = draw(st.sets(st.sampled_from(states)))
    return FA(states, initial, accepting, transitions)


events_with_data = st.builds(
    Event,
    st.sampled_from(ALPHABET),
    st.lists(st.sampled_from(IDENTS), max_size=2).map(tuple),
)
traces_with_data = st.lists(events_with_data, max_size=4).map(lambda e: Trace(tuple(e)))


@st.composite
def walked_traces(draw, fa: FA) -> Trace:
    """A trace read off a random walk through ``fa``: each step's event
    instantiates the label (a fresh random event for ``*``), so many of
    these traces are accepted and exercise variable bindings."""
    state = draw(st.sampled_from(sorted(fa.initial)))
    events = []
    for _ in range(draw(st.integers(0, 4))):
        leaving = [t for t in fa.transitions if t.src == state]
        if not leaving:
            break
        t = draw(st.sampled_from(leaving))
        if t.pattern.is_wildcard:
            events.append(draw(events_with_data))
        else:
            args = tuple(
                a.value if isinstance(a, Lit) else draw(st.sampled_from(IDENTS))
                for a in t.pattern.args
            )
            events.append(Event(t.pattern.symbol, args))
        state = t.dst
    return Trace(tuple(events))


def paths_by_scan(fa: FA, trace: Trace) -> list[tuple[int, ...]]:
    """Accepting paths by the literal definition: at every step try each
    transition of the FA that leaves the current state."""
    out: list[tuple[int, ...]] = []

    def walk(i, state, binding, path):
        if i == len(trace):
            if state in fa.accepting:
                out.append(tuple(path))
            return
        for index, t in enumerate(fa.transitions):
            if t.src == state:
                new_binding = t.pattern.match(trace[i], binding)
                if new_binding is not None:
                    walk(i + 1, t.dst, new_binding, path + [index])

    for start in fa.initial:
        walk(0, start, EMPTY_BINDING, [])
    return out


def strings_upto(n):
    for length in range(n + 1):
        yield from itertools.product(ALPHABET, repeat=length)


def as_trace(symbols) -> Trace:
    return Trace(tuple(Event(s) for s in symbols))


class TestDeterminizeMinimize:
    @given(nfas())
    @settings(max_examples=80, deadline=None)
    def test_determinize_preserves_language(self, fa):
        det = determinize(fa)
        for string in strings_upto(4):
            assert fa.accepts(as_trace(string)) == det.accepts(as_trace(string))

    @given(nfas())
    @settings(max_examples=80, deadline=None)
    def test_minimize_preserves_language(self, fa):
        assert language_equal(minimize(fa), fa)

    @given(nfas())
    @settings(max_examples=50, deadline=None)
    def test_minimize_is_minimal_fixpoint(self, fa):
        once = minimize(fa)
        assert minimize(once).num_states == once.num_states


class TestBooleanAlgebra:
    @given(nfas(), nfas())
    @settings(max_examples=60, deadline=None)
    def test_product_constructions(self, fa1, fa2):
        both = intersect(fa1, fa2)
        either = union(fa1, fa2)
        for string in strings_upto(3):
            trace = as_trace(string)
            in1, in2 = fa1.accepts(trace), fa2.accepts(trace)
            assert both.accepts(trace) == (in1 and in2)
            assert either.accepts(trace) == (in1 or in2)

    @given(nfas())
    @settings(max_examples=60, deadline=None)
    def test_complement_flips(self, fa):
        comp = symbol_complement(fa, ALPHABET)
        for string in strings_upto(3):
            trace = as_trace(string)
            assert comp.accepts(trace) != fa.accepts(trace)

    @given(nfas(), nfas())
    @settings(max_examples=40, deadline=None)
    def test_de_morgan(self, fa1, fa2):
        lhs = symbol_complement(union(fa1, fa2), ALPHABET)
        rhs = intersect(
            symbol_complement(fa1, ALPHABET), symbol_complement(fa2, ALPHABET)
        )
        assert language_equal(lhs, rhs)

    @given(nfas(), nfas())
    @settings(max_examples=60, deadline=None)
    def test_subset_consistent_with_membership(self, fa1, fa2):
        if language_subset(fa1, fa2):
            for string in strings_upto(3):
                trace = as_trace(string)
                if fa1.accepts(trace):
                    assert fa2.accepts(trace)


class TestExecutedTransitions:
    @given(nfas())
    @settings(max_examples=80, deadline=None)
    def test_nonempty_iff_accepting_nonempty_trace(self, fa):
        for string in strings_upto(3):
            trace = as_trace(string)
            executed = fa.executed_transitions(trace)
            if string:
                assert bool(executed) == fa.accepts(trace)
            else:
                assert executed == frozenset()

    @given(nfas())
    @settings(max_examples=50, deadline=None)
    def test_executed_equals_union_of_paths(self, fa):
        for string in strings_upto(3):
            trace = as_trace(string)
            paths = fa.accepting_paths(trace, limit=500)
            union_of_paths = frozenset(i for path in paths for i in path)
            assert union_of_paths == fa.executed_transitions(trace)

    @given(nfas())
    @settings(max_examples=50, deadline=None)
    def test_restriction_to_executed_still_accepts(self, fa):
        # Keeping only the executed transitions must preserve acceptance
        # of that particular trace.
        for string in strings_upto(3):
            trace = as_trace(string)
            if not fa.accepts(trace):
                continue
            executed = fa.executed_transitions(trace)
            restricted = fa.with_transitions(
                [fa.transitions[i] for i in sorted(executed)]
            )
            assert restricted.accepts(trace)


class TestRelationWithData:
    """Relation R ≡ the union of the accepting paths, on NFAs with data."""

    @given(nfas(data=True), st.data())
    @settings(max_examples=300, deadline=None)
    def test_relation_equals_union_of_scanned_paths(self, fa, data):
        traces = data.draw(st.lists(traces_with_data, min_size=1, max_size=4))
        traces += data.draw(st.lists(walked_traces(fa), min_size=1, max_size=4))
        for trace in traces:
            paths = paths_by_scan(fa, trace)
            assert fa.accepting_paths(trace, limit=10**6) == paths
            result = fa.relation(trace)
            assert result.executed == frozenset(i for path in paths for i in path)
            assert result.accepted == fa.accepts(trace) == bool(paths)

    def test_state_mixing_symbol_and_wildcard_transitions(self):
        fa = FA.from_edges(
            [
                ("q0", "a(X)", "q1"),
                ("q0", "*", "q1"),
                ("q0", "b(X, 1)", "q0"),
                ("q0", "*", "q0"),
                ("q1", "c(X)", "q2"),
            ],
            initial=["q0"],
            accepting=["q2"],
        )
        trace = Trace((Event("b", ("7", "1")), Event("a", ("7",)), Event("c", ("7",))))
        paths = paths_by_scan(fa, trace)
        assert paths == [(2, 0, 4), (2, 1, 4), (3, 0, 4), (3, 1, 4)]
        assert fa.accepting_paths(trace) == paths
        assert fa.relation(trace).executed == frozenset({0, 1, 2, 3, 4})
        # A symbol the state has no transition for takes only wildcards.
        other = Trace((Event("d"), Event("c", ("7",))))
        assert fa.accepting_paths(other) == paths_by_scan(fa, other) == [(1, 4)]
        assert [index for index, _ in fa.outgoing("q0")] == [0, 1, 2, 3]
