"""Traces and trace collections.

A :class:`Trace` is an immutable sequence of ground events.  Three kinds of
traces appear in the paper and all share this representation:

* *program execution traces* — full runs recorded by instrumentation (in
  our reproduction, emitted by the synthetic workload generator);
* *violation traces* — short traces a verification tool reports as
  apparent specification violations (Section 2.1);
* *scenario traces* — short traces the Strauss front end extracts around
  seed events (Section 2.2).

:class:`TraceSet` is an ordered, duplicate-preserving collection with the
dedup operation the paper's evaluation relies on: Strauss extracts many
*identical* scenario traces, and both Cable and the Baseline method work on
one representative per identical-event class (Section 5.2).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from repro.lang.events import Event, parse_event

#: The first standardized object names, by order of first appearance;
#: later objects become ``N6``, ``N7``, ...
STANDARD_NAMES: tuple[str, ...] = ("X", "Y", "Z", "W", "V", "U")


class TraceKey:
    """A trace's identity key: its event tuple, hashed once.

    Hashing an event tuple calls every event's ``__hash__``, a Python
    function since :class:`Event` is a dataclass.  The key computes that
    hash when it is made and keeps it, so a dict or set operation on it
    costs one call whatever the trace's length.  Two keys are equal iff
    their event tuples are.  A pickled key hashes again on load, since
    string hashes differ between processes.
    """

    __slots__ = ("events", "_hash")

    def __init__(self, events: tuple[Event, ...]) -> None:
        self.events = events
        self._hash = hash(events)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TraceKey):
            return NotImplemented
        return self._hash == other._hash and self.events == other.events

    def __reduce__(self) -> tuple[type["TraceKey"], tuple[tuple[Event, ...]]]:
        return TraceKey, (self.events,)

    def __repr__(self) -> str:
        return f"TraceKey({self.events!r})"


@dataclass(frozen=True, slots=True)
class Trace:
    """An immutable sequence of ground events with an optional identifier."""

    events: tuple[Event, ...]
    trace_id: str = ""
    #: The :meth:`key`, made on first use.
    _key: TraceKey | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, index: int) -> Event:
        return self.events[index]

    @property
    def symbols(self) -> tuple[str, ...]:
        """The event symbols, without arguments."""
        return tuple(e.symbol for e in self.events)

    def names(self) -> frozenset[str]:
        """All object identifiers mentioned anywhere in the trace."""
        return frozenset(a for e in self.events for a in e.args)

    def project(self, name: str, keep_unrelated: bool = False) -> "Trace":
        """Project the trace onto events mentioning ``name``.

        With ``keep_unrelated`` the other events are kept too (useful when a
        wildcard-bearing FA wants to see them); by default they are dropped,
        which is how the verifier builds per-object traces.
        """
        if keep_unrelated:
            return self
        kept = tuple(e for e in self.events if name in e.args)
        return Trace(kept, trace_id=f"{self.trace_id}|{name}" if self.trace_id else "")

    def rename(self, mapping: dict[str, str]) -> "Trace":
        """Rename object identifiers in every event."""
        return Trace(tuple(e.rename(mapping) for e in self.events), self.trace_id)

    def standardize_names(self, alphabet: Sequence[str] = STANDARD_NAMES) -> "Trace":
        """Canonicalize identifiers to ``X, Y, Z, ...`` by first appearance.

        Two scenario traces that differ only in concrete object identifiers
        become equal after standardization; this is the miner front end's
        final step and the basis of identical-trace dedup.
        """
        mapping: dict[str, str] = {}
        for event in self.events:
            for arg in event.args:
                if arg not in mapping:
                    if len(mapping) < len(alphabet):
                        mapping[arg] = alphabet[len(mapping)]
                    else:
                        mapping[arg] = f"N{len(mapping)}"
        if all(old == new for old, new in mapping.items()):
            return self  # already standard, as stored and mined traces are
        return self.rename(mapping)

    def key(self) -> TraceKey:
        """Identity key: the event sequence (ignores ``trace_id``), hashed
        once per trace however often it is looked up."""
        key = self._key
        if key is None:
            key = TraceKey(self.events)
            object.__setattr__(self, "_key", key)
        return key

    def __str__(self) -> str:
        return "; ".join(str(e) for e in self.events)


def _trace_events(text: str, event: Callable[[str], Event]) -> tuple[Event, ...]:
    """The events of a trace text, each piece parsed by ``event``."""
    return tuple(event(piece) for piece in text.strip().split(";") if piece.strip())


def parse_trace(text: str, trace_id: str = "") -> Trace:
    """Parse ``"fopen(f1); fread(f1); fclose(f1)"`` into a :class:`Trace`."""
    return Trace(_trace_events(text, parse_event), trace_id)


def parse_traces(
    items: Iterable[str | Trace],
    ids: Iterable[str] | None = None,
    *,
    standardize: bool = False,
) -> list[Trace]:
    """Turn trace texts into :class:`Trace` objects, each distinct text once.

    ``items[i]`` gets id ``ids[i]`` (default ``t<i>``); with
    ``standardize`` each trace is :meth:`Trace.standardize_names`-ed.  The
    result equals ``[parse_trace(text, id) for ...]`` (standardized when
    asked), but a text is parsed and standardized only on its first
    occurrence: its repeats share that trace's event tuple and
    :class:`TraceKey`, so they hold no events of their own and hash for
    free.  Likewise each distinct event text is parsed once, and the
    traces that contain it share the :class:`Event`.  Scenario corpora
    repeat most of their texts and nearly all of their events.

    A :class:`Trace` item is already parsed: it keeps its events and its
    own id, and is standardized when asked.  A malformed text raises the
    :class:`~repro.robustness.errors.InputError` :func:`parse_trace` would.
    """
    keys: dict[str, TraceKey] = {}
    events: dict[str, Event] = {}

    def event(piece: str) -> Event:
        # Keyed without the padding parse_event ignores; a miss parses
        # the piece as given, so an error names it as parse_trace would.
        found = events.get(piece.strip())
        if found is None:
            found = events[piece.strip()] = parse_event(piece)
        return found

    out: list[Trace] = []
    if ids is None:
        items = list(items)
        ids = [f"t{i}" for i in range(len(items))]
    for item, trace_id in zip(items, ids, strict=True):
        if isinstance(item, Trace):
            out.append(item.standardize_names() if standardize else item)
            continue
        key = keys.get(item)
        if key is None:
            first = Trace(_trace_events(item, event))
            if standardize:
                first = first.standardize_names()
            key = keys[item] = first.key()
        trace = Trace(key.events, trace_id)
        object.__setattr__(trace, "_key", key)
        out.append(trace)
    return out


@dataclass
class TraceSet:
    """An ordered collection of traces (duplicates allowed)."""

    traces: list[Trace] = field(default_factory=list)

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "TraceSet":
        return cls(parse_traces(texts))

    def add(self, trace: Trace) -> None:
        self.traces.append(trace)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def __getitem__(self, index: int) -> Trace:
        return self.traces[index]

    def symbols(self) -> frozenset[str]:
        """All event symbols appearing in any trace."""
        return frozenset(s for t in self.traces for s in t.symbols)

    def dedup(self) -> "DedupResult":
        """Group identical traces and return representatives with counts."""
        return dedup_traces(self.traces)


@dataclass(frozen=True)
class DedupResult:
    """Representatives of identical-event classes, with class sizes.

    ``representatives[i]`` stands for ``counts[i]`` identical traces; the
    members of each class are available for bookkeeping (e.g. Cable labels
    apply to whole classes at once).
    """

    representatives: tuple[Trace, ...]
    counts: tuple[int, ...]
    members: tuple[tuple[Trace, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    @property
    def total(self) -> int:
        return sum(self.counts)


def dedup_traces(traces: Iterable[Trace]) -> DedupResult:
    """Partition ``traces`` into classes of identical event sequences.

    Classes come in order of first occurrence (the dict's order).  Each
    trace's key walks its events once, when the key is made.
    """
    groups: dict[TraceKey, list[Trace]] = {}
    for trace in traces:
        groups.setdefault(trace.key(), []).append(trace)
    members = tuple(map(tuple, groups.values()))
    return DedupResult(
        tuple(group[0] for group in members), tuple(map(len, members)), members
    )
