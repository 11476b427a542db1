"""Scenario extraction: the Strauss front end.

Given a full program execution trace, the front end produces one scenario
trace per occurrence of a *seed* event: the seed plus every event related
to it by flow of object names, in trace order, with names standardized to
``X, Y, Z, ...`` by first appearance.

Relatedness is computed as a bounded transitive closure: starting from the
names the seed mentions, events that mention a related name are included
and (up to ``hops`` levels) the other names those events mention become
related too.  ``hops=0`` keeps only events that directly share a name with
the seed — the projection the paper's per-object specifications need;
higher values pull in chained dependences (e.g. a GC created *for* a
window).  An optional ``max_events`` bounds scenario length.

Each program trace is indexed once: every name maps to the ascending
positions of the events that mention it.  A seed's related names grow
level by level over that index (stopping early when a level adds no
name), its scenario is the sorted union of their positions, the
``max_events`` window is cut by the seed's own position, and
standardization renames that list in one pass, reusing one
:class:`~repro.lang.events.Event` per distinct (symbol, renamed
arguments) within one ``extract``/``extract_all`` call.  A trace of
``n`` argument slots costs ``O(n)`` to index; a seed then costs time in
the events its related names reach, once per level grown, plus a sort
of its positions, instead of a rescan of the whole trace per level.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.lang.events import Event
from repro.lang.traces import STANDARD_NAMES, Trace
from repro.robustness.errors import InputError

#: Standardized events of one extraction, keyed by (symbol, renamed args).
_Interned = dict[tuple[str, tuple[str, ...]], Event]


def _name_positions(trace: Trace) -> dict[str, list[int]]:
    """Map each name in ``trace`` to the ascending positions mentioning it."""
    index: dict[str, list[int]] = {}
    for position, event in enumerate(trace.events):
        for name in event.args:
            positions = index.get(name)
            if positions is None:
                index[name] = [position]
            elif positions[-1] != position:
                positions.append(position)
    return index


def _standardized(
    events: tuple[Event, ...], positions: Sequence[int], interned: _Interned
) -> tuple[Event, ...]:
    """``events`` at ``positions``, names renamed by first appearance."""
    mapping: dict[str, str] = {}
    out = []
    for position in positions:
        event = events[position]
        renamed = []
        for name in event.args:
            standard = mapping.get(name)
            if standard is None:
                count = len(mapping)
                standard = (
                    STANDARD_NAMES[count]
                    if count < len(STANDARD_NAMES)
                    else f"N{count}"
                )
                mapping[name] = standard
            renamed.append(standard)
        key = (event.symbol, tuple(renamed))
        standard_event = interned.get(key)
        if standard_event is None:
            standard_event = interned[key] = Event(*key)
        out.append(standard_event)
    return tuple(out)


@dataclass
class ScenarioExtractor:
    """Configurable scenario extraction (the Strauss front end).

    ``seeds`` are the event symbols that anchor scenarios; every occurrence
    of a seed yields one scenario.  When several seeds of the same
    connected object group occur, their scenarios coincide after
    standardization and are deduplicated by the caller if desired.
    """

    seeds: frozenset[str]
    hops: int = 0
    max_events: int | None = None
    standardize: bool = True
    #: Which argument of the seed event anchors relatedness.  ``None``
    #: (the default) uses every name the seed mentions; ``0`` restricts
    #: to the created resource itself, which is the right scope when a
    #: creation event also names its parent (e.g. ``XCreateGC(gc, win)``).
    seed_arg: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.seeds, frozenset):
            self.seeds = frozenset(self.seeds)
        if self.hops < 0:
            raise InputError("hops must be >= 0")

    def _related(
        self, trace: Trace, index: dict[str, list[int]], seed_index: int
    ) -> set[str]:
        seed_args = trace[seed_index].args
        if self.seed_arg is not None:
            if self.seed_arg >= len(seed_args):
                raise InputError(
                    f"seed event {trace[seed_index]} lacks argument "
                    f"{self.seed_arg}"
                )
            related = {seed_args[self.seed_arg]}
        else:
            related = set(seed_args)
        events = trace.events
        frontier = related
        for _ in range(self.hops):
            reached: set[str] = set()
            for name in frontier:
                for position in index[name]:
                    reached.update(events[position].args)
            frontier = reached - related
            if not frontier:
                break
            related |= frontier
        return related

    def _scenario(
        self,
        trace: Trace,
        index: dict[str, list[int]],
        seed_index: int,
        interned: _Interned,
    ) -> Trace:
        related = self._related(trace, index, seed_index)
        if len(related) == 1:
            (name,) = related
            positions: Sequence[int] = index[name]
        elif related:
            positions = sorted(set().union(*(index[name] for name in related)))
        else:
            # A seed with no arguments anchors a scenario of just itself.
            positions = [seed_index]
        if self.max_events is not None and len(positions) > self.max_events:
            # Keep a window centered on the seed occurrence (``scenario_at``
            # may be given a negative index).
            seed_pos = bisect_left(positions, seed_index % len(trace.events))
            half = self.max_events // 2
            start = max(0, min(seed_pos - half, len(positions) - self.max_events))
            positions = positions[start : start + self.max_events]
        trace_id = f"{trace.trace_id}@{seed_index}"
        if self.standardize:
            return Trace(_standardized(trace.events, positions, interned), trace_id)
        return Trace(tuple(trace.events[p] for p in positions), trace_id)

    def related_names(self, trace: Trace, seed_index: int) -> frozenset[str]:
        """Names related to the seed at ``seed_index`` within ``hops`` levels."""
        return frozenset(self._related(trace, _name_positions(trace), seed_index))

    def scenario_at(self, trace: Trace, seed_index: int) -> Trace:
        """The scenario anchored at the seed occurrence ``seed_index``."""
        if trace[seed_index].symbol not in self.seeds:
            raise InputError(
                f"event at {seed_index} ({trace[seed_index]}) is not a seed"
            )
        return self._scenario(trace, _name_positions(trace), seed_index, {})

    def _extract(self, trace: Trace, interned: _Interned) -> list[Trace]:
        seed_indices = [
            i for i, event in enumerate(trace.events) if event.symbol in self.seeds
        ]
        if not seed_indices:
            return []
        index = _name_positions(trace)
        return [self._scenario(trace, index, i, interned) for i in seed_indices]

    def extract(self, trace: Trace) -> list[Trace]:
        """All scenarios of one program trace (one per seed occurrence)."""
        return self._extract(trace, {})

    def extract_all(self, traces: Iterable[Trace]) -> list[Trace]:
        """All scenarios of a training set of program traces."""
        interned: _Interned = {}
        out: list[Trace] = []
        for trace in traces:
            out.extend(self._extract(trace, interned))
        return out


def extract_scenarios(
    traces: Iterable[Trace] | Trace,
    seeds: Sequence[str] | frozenset[str],
    hops: int = 0,
    max_events: int | None = None,
) -> list[Trace]:
    """Convenience wrapper around :class:`ScenarioExtractor`."""
    extractor = ScenarioExtractor(
        seeds=frozenset(seeds), hops=hops, max_events=max_events
    )
    if isinstance(traces, Trace):
        return extractor.extract(traces)
    return extractor.extract_all(traces)
