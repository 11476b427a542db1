"""Property tests: the regex compiler against a reference evaluator."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.fa.automaton import FA
from repro.fa.regex import compile_regex
from repro.fa.serialization import fa_from_text
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.robustness.errors import ReproError

SYMBOLS = ("a", "b", "c")


@st.composite
def regexes(draw, depth=0):
    """Random regex ASTs, returned as (text, matcher) pairs.

    The matcher is an independent reference implementation: a function
    from a symbol tuple to bool, built structurally.
    """
    if depth >= 3:
        choice = "atom"
    else:
        choice = draw(
            st.sampled_from(["atom", "seq", "alt", "star", "opt", "plus"])
        )
    if choice == "atom":
        sym = draw(st.sampled_from(SYMBOLS))
        return sym, lambda s, sym=sym: s == (sym,)
    if choice == "seq":
        t1, m1 = draw(regexes(depth=depth + 1))
        t2, m2 = draw(regexes(depth=depth + 1))
        def matcher(s, m1=m1, m2=m2):
            return any(m1(s[:i]) and m2(s[i:]) for i in range(len(s) + 1))
        return f"({t1}) ({t2})", matcher
    if choice == "alt":
        t1, m1 = draw(regexes(depth=depth + 1))
        t2, m2 = draw(regexes(depth=depth + 1))
        return f"({t1}) | ({t2})", lambda s, m1=m1, m2=m2: m1(s) or m2(s)
    inner_text, inner = draw(regexes(depth=depth + 1))
    if choice == "opt":
        return f"({inner_text})?", lambda s, m=inner: s == () or m(s)
    if choice == "plus":
        text = f"({inner_text})+"
    else:
        text = f"({inner_text})*"

    def star_matcher(s, m=inner, need_one=(choice == "plus")):
        # Dynamic programming over split points.
        n = len(s)
        reach = {0}
        seen_one = set()
        frontier = {0}
        while frontier:
            new = set()
            for i in frontier:
                for j in range(i + 1, n + 1):
                    if m(s[i:j]) and j not in reach:
                        reach.add(j)
                        new.add(j)
                        seen_one.add(j)
            frontier = new
        if need_one:
            return n in seen_one or (n == 0 and m(()))
        return n in reach

    return text, star_matcher


def as_trace(symbols) -> Trace:
    return Trace(tuple(Event(s) for s in symbols))


@given(regexes())
@settings(max_examples=60, deadline=None)
def test_compiled_fa_matches_reference(regex):
    text, matcher = regex
    fa = compile_regex(text)
    for length in range(4):
        for string in itertools.product(SYMBOLS, repeat=length):
            assert fa.accepts(as_trace(string)) == matcher(string), (
                text,
                string,
            )


#: Arbitrary text, and text built from the tokens each format is made of,
#: so the fuzz reaches past the first syntax check.
REGEX_TEXT = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="ab(X,_1)|*+?; any", max_size=30),
)
FA_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(
        st.sampled_from(
            ["states:", "initial:", "accepting:", "q0", "q1", " ", "->", ":",
             "a(X)", "b(X, 1)", "*", "#", "\n", "(", ")", ",", "_"]
        ),
        max_size=30,
    ).map("".join),
)


class TestTextEntryPointsFuzz:
    """The regex compiler and the FA text reader either succeed or raise a
    :class:`ReproError`, never another exception."""

    @given(REGEX_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_compile_regex(self, text):
        try:
            assert isinstance(compile_regex(text), FA)
        except ReproError:
            pass

    @given(FA_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_fa_from_text(self, text):
        try:
            assert isinstance(fa_from_text(text), FA)
        except ReproError:
            pass
