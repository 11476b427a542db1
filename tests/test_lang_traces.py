"""Traces, trace sets, standardization, and dedup."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.trace_clustering import cluster_traces
from repro.lang.events import Event
from repro.lang.traces import (
    TraceKey,
    TraceSet,
    dedup_traces,
    parse_trace,
    parse_traces,
)
from repro.robustness.errors import InputError


class TestTrace:
    def test_parse_and_len(self):
        trace = parse_trace("fopen(f1); fread(f1); fclose(f1)")
        assert len(trace) == 3
        assert trace[0] == Event("fopen", ("f1",))

    def test_parse_empty(self):
        assert len(parse_trace("")) == 0
        assert len(parse_trace("  ")) == 0

    def test_str_roundtrip(self):
        text = "fopen(f1); fread(f1); fclose(f1)"
        assert str(parse_trace(text)) == text

    def test_symbols(self):
        trace = parse_trace("a(x); b(x); a(y)")
        assert trace.symbols == ("a", "b", "a")

    def test_names(self):
        trace = parse_trace("a(x); b(y); c(x, z)")
        assert trace.names() == {"x", "y", "z"}

    def test_project(self):
        trace = parse_trace("a(x); b(y); c(x); d(z)")
        assert str(trace.project("x")) == "a(x); c(x)"

    def test_project_keep_unrelated(self):
        trace = parse_trace("a(x); b(y)")
        assert trace.project("x", keep_unrelated=True) is trace

    def test_rename(self):
        trace = parse_trace("a(x); b(x, y)")
        assert str(trace.rename({"x": "X"})) == "a(X); b(X, y)"

    def test_standardize_names_by_first_appearance(self):
        trace = parse_trace("open(p9); write(p9, q3); close(q3)")
        assert str(trace.standardize_names()) == "open(X); write(X, Y); close(Y)"

    def test_standardize_equal_for_isomorphic_traces(self):
        t1 = parse_trace("open(a); close(a)").standardize_names()
        t2 = parse_trace("open(zz); close(zz)").standardize_names()
        assert t1.key() == t2.key()

    def test_standardize_overflows_to_numbered_names(self):
        events = "; ".join(f"e(n{i})" for i in range(8))
        standardized = parse_trace(events).standardize_names()
        assert "N6" in str(standardized)

    def test_immutability(self):
        trace = parse_trace("a(x)")
        with pytest.raises(AttributeError):
            trace.events = ()

    def test_hashable(self):
        assert parse_trace("a(x)") in {parse_trace("a(x)")}

    def test_iteration(self):
        trace = parse_trace("a(x); b(x)")
        assert [e.symbol for e in trace] == ["a", "b"]


class TestTraceSet:
    def test_from_strings_assigns_ids(self):
        ts = TraceSet.from_strings(["a(x)", "b(y)"])
        assert [t.trace_id for t in ts] == ["t0", "t1"]

    def test_symbols(self):
        ts = TraceSet.from_strings(["a(x); b(x)", "c(y)"])
        assert ts.symbols() == {"a", "b", "c"}

    def test_add_and_index(self):
        ts = TraceSet()
        ts.add(parse_trace("a(x)"))
        assert len(ts) == 1
        assert str(ts[0]) == "a(x)"


class TestDedup:
    def test_identical_traces_grouped(self):
        traces = [parse_trace("a(X); b(X)") for _ in range(3)]
        traces.append(parse_trace("a(X)"))
        result = dedup_traces(traces)
        assert result.num_classes == 2
        assert result.counts == (3, 1)
        assert result.total == 4

    def test_order_of_first_appearance_preserved(self):
        traces = [parse_trace(t) for t in ("b(X)", "a(X)", "b(X)")]
        result = dedup_traces(traces)
        assert [str(r) for r in result.representatives] == ["b(X)", "a(X)"]

    def test_members_keep_original_traces(self):
        t1 = parse_trace("a(X)", trace_id="one")
        t2 = parse_trace("a(X)", trace_id="two")
        result = dedup_traces([t1, t2])
        assert result.members[0] == (t1, t2)

    def test_trace_id_does_not_affect_identity(self):
        t1 = parse_trace("a(X)", trace_id="p")
        t2 = parse_trace("a(X)", trace_id="q")
        assert dedup_traces([t1, t2]).num_classes == 1

    def test_empty(self):
        result = dedup_traces([])
        assert result.num_classes == 0
        assert result.total == 0


class TestTraceKey:
    def test_key_is_made_once_and_ignores_trace_id(self):
        t1 = parse_trace("a(X); b(X)", trace_id="t1")
        t2 = parse_trace("a(X); b(X)", trace_id="t2")
        assert t1.key() is t1.key()
        assert t1.key() == t2.key() and hash(t1.key()) == hash(t2.key())
        assert t1.key() != parse_trace("a(X); c(X)").key()
        assert t1.key().events == t1.events
        assert t1.key() != t1.events

    def test_pickled_key_hashes_again(self):
        # String hashes differ between processes, so a key must not carry
        # its hash across a pickle.
        key = parse_trace("a(X); b(Y)").key()
        key._hash = 12345
        loaded = pickle.loads(pickle.dumps(key))
        assert hash(loaded) == hash(key.events)
        assert loaded.events == key.events
        assert isinstance(loaded, TraceKey)

    def test_pickled_trace_equals_original(self):
        trace = parse_trace("a(X); b(Y)", trace_id="t")
        trace.key()
        loaded = pickle.loads(pickle.dumps(trace))
        assert loaded == trace and loaded.key() == trace.key()

    def test_clustering_hashes_each_event_at_most_once(self, bulk_corpus, monkeypatch):
        # Dedup, the relation cache and relation_map's pending dict all
        # look traces up by key; only making a key walks the events.
        traces, fa = bulk_corpus
        calls = 0
        original = Event.__hash__

        def counting_hash(self):
            nonlocal calls
            calls += 1
            return original(self)

        monkeypatch.setattr(Event, "__hash__", counting_hash)
        clustering = cluster_traces(traces, fa)
        assert clustering.num_objects == 60
        assert 0 < calls <= sum(map(len, traces))


#: Trace texts in the parser's grammar, with whitespace variants:
#: ``"a(x);b(y, x)"`` and ``" a(x) ;  b(y,x) "`` are different texts of
#: one trace.
_EVENT = st.builds(
    lambda symbol, args, pad: f"{pad}{symbol}({f',{pad}'.join(args)}){pad}",
    st.sampled_from(["open", "read", "close", "lock"]),
    st.lists(st.sampled_from(["f1", "f2", "x", "Y"]), max_size=2),
    st.sampled_from(["", " ", "  "]),
)
_TEXT = st.lists(_EVENT, max_size=4).map(";".join)
#: Corpora with many repeats, as scenario corpora have.
_CORPUS = st.lists(_TEXT, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=25)
)


def _loop(texts, ids, standardize):
    traces = [parse_trace(text, trace_id) for text, trace_id in zip(texts, ids)]
    return [t.standardize_names() for t in traces] if standardize else traces


class TestParseTraces:
    """:func:`parse_traces` is the per-text ``parse_trace`` loop, with each
    distinct text parsed once."""

    @settings(max_examples=150, deadline=None)
    @given(_CORPUS, st.booleans())
    def test_equals_the_per_text_loop(self, texts, standardize):
        ids = [f"id{i}" for i in range(len(texts))]
        got = parse_traces(texts, ids, standardize=standardize)
        want = _loop(texts, ids, standardize)
        assert [(t.events, t.trace_id) for t in got] == [
            (t.events, t.trace_id) for t in want
        ]
        assert [t.key() for t in got] == [t.key() for t in want]

    @settings(max_examples=100, deadline=None)
    @given(_CORPUS, st.booleans())
    def test_equal_texts_share_events_and_key(self, texts, standardize):
        got = parse_traces(texts, standardize=standardize)
        first: dict[str, object] = {}
        for text, trace in zip(texts, got):
            seen = first.setdefault(text, trace)
            assert trace.events is seen.events
            assert trace.key() is seen.key()

    def test_equal_event_texts_share_one_event(self):
        first, second = parse_traces(["a(x); b(x)", "b(x); a(x)"])
        assert first[0] is second[1] and first[1] is second[0]

    def test_default_ids_number_the_items(self):
        traces = parse_traces(["a(x)", "", "a(x)"])
        assert [t.trace_id for t in traces] == ["t0", "t1", "t2"]

    def test_trace_items_pass_through(self):
        trace = parse_trace("a(f1); b(f2)", trace_id="mine")
        assert parse_traces([trace], ["ignored"])[0] is trace
        standardized = parse_traces([trace], ["ignored"], standardize=True)[0]
        assert standardized == trace.standardize_names()
        assert standardized.trace_id == "mine"

    def test_ids_must_match_items(self):
        with pytest.raises(ValueError):
            parse_traces(["a(x)", "b(x)"], ["t0"])

    @pytest.mark.parametrize("bad", ["a(x", "a(x); (y)", "a(x;b)"])
    def test_malformed_text_raises_the_loops_input_error(self, bad):
        texts = ["a(x)", bad, bad]
        with pytest.raises(InputError) as loop_error:
            _loop(texts, ["t0", "t1", "t2"], True)
        with pytest.raises(InputError) as error:
            parse_traces(texts, standardize=True)
        assert str(error.value) == str(loop_error.value)
