"""The index-shipping fan-out path of ``relation_map``.

:func:`repro.parallel.relation.relation_map` feeds its worker pool
trace *indices* through a pool initializer instead of pickled
``(fa, trace)`` pairs.  These tests pin that path: serial and process
runs return rows bit-identical to evaluating each trace directly, and
the per-fan-out worker registry is left clean behind a serial run.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.fa.templates import unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace, parse_trace
from repro.parallel.relation import relation_map

SYMBOLS = ["open", "close", "read", "write"]


def make_fa():
    return unordered_fa([f"{s}(X)" for s in SYMBOLS])


def trace_strategy():
    return st.lists(
        st.sampled_from(SYMBOLS + ["other"]), min_size=0, max_size=6
    ).map(
        lambda syms: Trace(tuple(Event(s, ("x",)) for s in syms))
    )


class TestInitializerPath:
    @given(st.lists(trace_strategy(), max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_serial_matches_direct_relation(self, traces):
        fa = make_fa()
        serial = relation_map(fa, traces, cache=False, backend="serial")
        assert serial == [fa.relation(t) for t in traces]

    def test_process_backend_equals_serial(self):
        fa = make_fa()
        traces = [
            parse_trace("open(x); read(x); close(x)"),
            parse_trace("read(x)"),
            parse_trace("open(x); open(y); close(y)"),
            parse_trace("write(x); write(x)"),
        ] * 3
        serial = relation_map(fa, traces, cache=False, backend="serial")
        process = relation_map(
            fa, traces, cache=False, backend="process", jobs=2
        )
        assert serial == process

    def test_worker_registry_is_cleaned_up(self):
        from repro.parallel import relation as rel

        fa = make_fa()
        before = dict(rel._WORKER_CONTEXTS)
        relation_map(
            fa, [parse_trace("open(x)")], cache=False, backend="serial"
        )
        assert rel._WORKER_CONTEXTS == before
