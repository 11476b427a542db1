"""Differential tests: the indexed Strauss front end ≡ the rescanning one.

``ScenarioExtractor`` indexes each program trace once (name → ascending
event positions), grows a seed's related names level by level over that
index, takes the sorted union of their positions, cuts the
``max_events`` window by the seed's position and standardizes names in
one pass with interned events.  These tests pin it to the extractor as
first written, kept here as a reference: every seed rescans the whole
trace once per level and once more for its events, builds ``set(args)``
per event, and standardizes through ``Trace.standardize_names``.  Both
must return equal scenario lists, trace ids included, on random program
traces and on the program traces of every catalogue specification.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.mining.scenarios import ScenarioExtractor
from repro.workloads.specs_catalog import SPEC_CATALOG
from repro.workloads.tracegen import generate_program_traces


# --------------------------------------------------------------------- #
# reference semantics: rescan the trace for every seed and every level
# --------------------------------------------------------------------- #


@dataclass
class RefExtractor:
    """The rescanning front end (its window finds the seed by position)."""

    seeds: frozenset[str]
    hops: int = 0
    max_events: int | None = None
    standardize: bool = True
    seed_arg: int | None = None

    def related_names(self, trace: Trace, seed_index: int) -> frozenset[str]:
        seed_args = trace[seed_index].args
        if self.seed_arg is not None:
            if self.seed_arg >= len(seed_args):
                raise ValueError(
                    f"seed event {trace[seed_index]} lacks argument "
                    f"{self.seed_arg}"
                )
            related = {seed_args[self.seed_arg]}
        else:
            related = set(seed_args)
        for _ in range(self.hops):
            grown = set(related)
            for event in trace:
                names = set(event.args)
                if names & related:
                    grown |= names
            if grown == related:
                break
            related = grown
        return frozenset(related)

    def scenario_at(self, trace: Trace, seed_index: int) -> Trace:
        if trace[seed_index].symbol not in self.seeds:
            raise ValueError(
                f"event at {seed_index} ({trace[seed_index]}) is not a seed"
            )
        related = self.related_names(trace, seed_index)
        if related:
            indexed = [(i, e) for i, e in enumerate(trace) if set(e.args) & related]
        else:
            indexed = [(seed_index, trace[seed_index])]
        if self.max_events is not None and len(indexed) > self.max_events:
            seed_pos = next(k for k, (i, _) in enumerate(indexed) if i == seed_index)
            half = self.max_events // 2
            start = max(0, min(seed_pos - half, len(indexed) - self.max_events))
            indexed = indexed[start : start + self.max_events]
        events = tuple(e for _, e in indexed)
        scenario = Trace(events, trace_id=f"{trace.trace_id}@{seed_index}")
        if self.standardize:
            standardized = scenario.standardize_names()
            return Trace(standardized.events, trace_id=scenario.trace_id)
        return scenario

    def extract_all(self, traces: Iterable[Trace]) -> list[Trace]:
        return [
            self.scenario_at(trace, i)
            for trace in traces
            for i, event in enumerate(trace)
            if event.symbol in self.seeds
        ]


def assert_same(config: dict, traces: list[Trace]) -> None:
    reference = RefExtractor(**config)
    extractor = ScenarioExtractor(**config)
    try:
        expected = reference.extract_all(traces)
    except ValueError:
        with pytest.raises(ValueError):
            extractor.extract_all(traces)
        return
    got = extractor.extract_all(traces)
    assert [(s.trace_id, s.events) for s in got] == [
        (s.trace_id, s.events) for s in expected
    ]


# --------------------------------------------------------------------- #
# random program traces
# --------------------------------------------------------------------- #

SEEDS = frozenset({"seed", "tick"})

# Few names and symbols, so names chain across events and seeds repeat;
# ``tick`` and ``seed`` may come without arguments.
events = st.builds(
    Event,
    st.sampled_from(("seed", "tick", "use", "link", "free")),
    st.lists(st.sampled_from("abcdefg"), max_size=3).map(tuple),
)


@st.composite
def programs(draw) -> list[Trace]:
    """Program traces that repeat ``Event`` objects drawn from a small pool."""
    traces = []
    for t in range(draw(st.integers(1, 3))):
        pool = draw(st.lists(events, min_size=1, max_size=8))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
        traces.append(Trace(tuple(pool[i] for i in picks), trace_id=f"t{t}"))
    return traces


configs = st.fixed_dictionaries(
    {
        "seeds": st.just(SEEDS),
        "hops": st.integers(0, 2),
        "seed_arg": st.sampled_from((None, 0)),
        "max_events": st.sampled_from((None, 1, 2, 3, 4, 5, 6)),
        "standardize": st.booleans(),
    }
)


@settings(max_examples=300, deadline=None)
@given(configs, programs())
def test_random_programs(config, traces):
    assert_same(config, traces)


def test_related_names_and_scenario_at_match():
    trace = Trace(
        tuple(
            Event(symbol, args)
            for symbol, args in (
                ("seed", ("a",)), ("link", ("a", "b")), ("use", ("b", "c")),
                ("seed", ("c",)), ("free", ("a",)), ("tick", ()),
            )
        ),
        trace_id="t",
    )
    for hops in range(3):
        reference = RefExtractor(seeds=SEEDS, hops=hops, max_events=3)
        extractor = ScenarioExtractor(seeds=SEEDS, hops=hops, max_events=3)
        for i in (0, 3, 5):
            assert extractor.related_names(trace, i) == reference.related_names(trace, i)
            assert extractor.scenario_at(trace, i) == reference.scenario_at(trace, i)
            # A negative index names the same seed.
            negative = extractor.scenario_at(trace, i - len(trace))
            assert negative.events == extractor.scenario_at(trace, i).events


# --------------------------------------------------------------------- #
# the catalogue's program traces
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("spec", SPEC_CATALOG, ids=lambda spec: spec.name)
@pytest.mark.parametrize("hops, max_events", [(0, None), (2, 5)])
def test_catalog_programs(spec, hops, max_events):
    traces = list(generate_program_traces(spec, seed=3))
    config = {"seeds": frozenset(spec.seeds), "hops": hops, "max_events": max_events}
    assert_same(config, traces)
