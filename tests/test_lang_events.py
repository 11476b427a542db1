"""Events, event patterns, matching, and parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.events import (
    ANY,
    EMPTY_BINDING,
    Event,
    EventPattern,
    Lit,
    Var,
    WILDCARD_SYMBOL,
    binding_get,
    binding_set,
    parse_event,
    parse_pattern,
)
from repro.lang.traces import parse_trace
from repro.robustness.errors import InputError


class TestEvent:
    def test_str_with_args(self):
        assert str(Event("fopen", ("f1",))) == "fopen(f1)"

    def test_str_multiple_args(self):
        assert str(Event("bind", ("a", "b"))) == "bind(a, b)"

    def test_str_no_args(self):
        assert str(Event("tick")) == "tick"

    def test_args_coerced_to_tuple(self):
        assert Event("f", ["a", "b"]).args == ("a", "b")

    def test_empty_symbol_rejected(self):
        with pytest.raises(InputError):
            Event("")

    def test_wildcard_symbol_rejected(self):
        with pytest.raises(InputError):
            Event(WILDCARD_SYMBOL)

    def test_rename(self):
        event = Event("use", ("a", "b"))
        assert event.rename({"a": "X"}) == Event("use", ("X", "b"))

    def test_rename_missing_keeps(self):
        assert Event("f", ("q",)).rename({}) == Event("f", ("q",))

    def test_equality_and_hash(self):
        assert Event("f", ("a",)) == Event("f", ("a",))
        assert hash(Event("f", ("a",))) == hash(Event("f", ("a",)))
        assert Event("f", ("a",)) != Event("f", ("b",))


class TestBinding:
    def test_get_missing(self):
        assert binding_get(EMPTY_BINDING, "X") is None

    def test_set_then_get(self):
        binding = binding_set(EMPTY_BINDING, "X", "f1")
        assert binding_get(binding, "X") == "f1"

    def test_bindings_stay_sorted(self):
        binding = binding_set(binding_set(EMPTY_BINDING, "Y", "b"), "X", "a")
        assert binding == (("X", "a"), ("Y", "b"))


class TestPatternMatch:
    def test_literal_match(self):
        pattern = EventPattern("fopen", (Lit("f1"),))
        assert pattern.match(Event("fopen", ("f1",))) == EMPTY_BINDING

    def test_literal_mismatch(self):
        pattern = EventPattern("fopen", (Lit("f1"),))
        assert pattern.match(Event("fopen", ("f2",))) is None

    def test_symbol_mismatch(self):
        pattern = EventPattern("fopen", (Var("X"),))
        assert pattern.match(Event("popen", ("f1",))) is None

    def test_arity_mismatch(self):
        pattern = EventPattern("f", (Var("X"),))
        assert pattern.match(Event("f", ("a", "b"))) is None

    def test_variable_binds(self):
        pattern = EventPattern("fopen", (Var("X"),))
        assert pattern.match(Event("fopen", ("f1",))) == (("X", "f1"),)

    def test_bound_variable_must_agree(self):
        pattern = EventPattern("fclose", (Var("X"),))
        binding = (("X", "f1"),)
        assert pattern.match(Event("fclose", ("f1",)), binding) == binding
        assert pattern.match(Event("fclose", ("f2",)), binding) is None

    def test_same_variable_twice_in_one_pattern(self):
        pattern = EventPattern("copy", (Var("X"), Var("X")))
        assert pattern.match(Event("copy", ("a", "a"))) == (("X", "a"),)
        assert pattern.match(Event("copy", ("a", "b"))) is None

    def test_any_matches_anything(self):
        pattern = EventPattern("f", (ANY,))
        assert pattern.match(Event("f", ("whatever",))) == EMPTY_BINDING

    def test_wildcard_matches_any_event(self):
        wildcard = EventPattern(WILDCARD_SYMBOL)
        assert wildcard.match(Event("anything", ("a", "b"))) == EMPTY_BINDING
        assert wildcard.match(Event("tick")) == EMPTY_BINDING

    def test_wildcard_with_args_rejected(self):
        with pytest.raises(InputError):
            EventPattern(WILDCARD_SYMBOL, (Var("X"),))

    def test_variables(self):
        pattern = EventPattern("f", (Var("X"), Lit("a"), Var("Y")))
        assert pattern.variables() == {"X", "Y"}

    def test_ground(self):
        assert EventPattern("f", (Lit("a"),)).ground()
        assert not EventPattern("f", (Var("X"),)).ground()
        assert not EventPattern(WILDCARD_SYMBOL).ground()


class TestParsing:
    def test_parse_event(self):
        assert parse_event("fopen(f1)") == Event("fopen", ("f1",))

    def test_parse_event_no_args(self):
        assert parse_event("tick") == Event("tick")
        assert parse_event("tick()") == Event("tick")

    def test_parse_event_multi_args(self):
        assert parse_event("bind(a, b)") == Event("bind", ("a", "b"))

    def test_parse_event_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_event("fopen(")
        with pytest.raises(InputError):
            parse_event("123bad")

    def test_parse_pattern_variable(self):
        assert parse_pattern("fclose(X)") == EventPattern("fclose", (Var("X"),))

    def test_parse_pattern_literal(self):
        assert parse_pattern("fclose(f1)") == EventPattern("fclose", (Lit("f1"),))

    def test_parse_pattern_any(self):
        assert parse_pattern("read(_, X)") == EventPattern(
            "read", (ANY, Var("X"))
        )

    def test_parse_pattern_wildcard(self):
        assert parse_pattern("*") == EventPattern(WILDCARD_SYMBOL)

    def test_pattern_str_roundtrip(self):
        for text in ("fclose(X)", "read(_, X)", "*", "tick", "f(a, B, _)"):
            assert str(parse_pattern(text)) == text.replace("()", "")

    def test_event_str_roundtrip(self):
        for text in ("fopen(f1)", "bind(a, b)", "tick"):
            assert str(parse_event(text)) == text


#: Arbitrary text, plus text over the parsers' own alphabet so that the
#: success paths and the near-miss rejections are both reached.
PARSER_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="fopenXY_01(),;* \t.'-", max_size=40),
)


class TestParserBoundary:
    """Each text parser either succeeds or raises ``InputError``."""

    @given(PARSER_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_parse_event(self, text):
        try:
            assert isinstance(parse_event(text), Event)
        except InputError:
            pass

    @given(PARSER_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_parse_pattern(self, text):
        try:
            assert isinstance(parse_pattern(text), EventPattern)
        except InputError:
            pass

    @given(PARSER_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_parse_trace(self, text):
        try:
            trace = parse_trace(text)
        except InputError:
            return
        assert all(isinstance(e, Event) for e in trace.events)
