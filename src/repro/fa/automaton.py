"""The finite automaton used to express temporal specifications.

Transitions are labeled by event patterns with variables that bind
consistently along a path, so the Figure 1 specification —

    For all calls ``X = fopen()`` or ``X = popen()``: ...

— is one automaton whose labels mention the variable ``X``.  The class
supports nondeterminism and multiple initial states.

Two queries matter for the paper:

* :meth:`FA.accepts` — ordinary acceptance;
* :meth:`FA.executed_transitions` — the set of transitions lying on *some*
  accepting path for a trace.  This is exactly the relation R of
  Section 3.2: ``(o, a) ∈ R`` iff transition ``a`` can be executed while
  accepting trace ``o``.  It is computed with a forward/backward
  reachability pass over the layered configuration graph, where a
  configuration is ``(position, state, binding)``.

:meth:`FA.relation` answers both at once from a single forward/backward
sweep — the form the clustering hot path wants, since the historical
``executed_transitions(t) or accepts(t)`` idiom paid a second forward
pass for every rejected (or accepted-but-empty) trace.  Only the forward
sweep matches events: it records each configuration's incoming edges,
and the backward pass walks those edges from the accepting
configurations.

Every sweep step asks "which transitions leaving this state can consume
this event?".  :attr:`FA._outgoing` answers it without scanning the
state's whole fan-out: per state, a ``symbol -> transitions`` map whose
entries already include the state's ``*`` wildcard transitions (merged
in transition-index order), plus the wildcard transitions alone for
symbols the state has no specific transition for.  Only those
candidates reach :meth:`EventPattern.match`, so a step costs the
matching transitions rather than the state's out-degree (24 match calls
per event on a 24-symbol ``unordered_fa`` before the index, 1 after).
The answers are memoized per FA, keyed on the configuration and the
event's symbol and arguments, so a corpus pays for each distinct step
once (48 distinct steps across a bulk-cluster corpus of ~16 000 events).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from repro.lang.events import Binding, EMPTY_BINDING, EventPattern, parse_pattern
from repro.lang.traces import Trace
from repro.robustness.errors import InputError

State = Hashable

#: A transition with its index, and a run of them in index order.
Edge = tuple[int, "Transition"]
Edges = tuple[Edge, ...]

#: Most sweep steps :meth:`FA._forward_layers` remembers per FA before it
#: starts over (a step is a few small tuples; a full memo is about 1.5 MB).
STEP_MEMO_SIZE = 4096

#: A configuration of a run: the state and the variable binding so far.
Config = tuple[State, Binding]
#: One step of a sweep: each configuration reached, with its incoming
#: ``(source configuration, transition index)`` edges.
Layer = dict[Config, list[tuple[Config, int]]]


@dataclass(frozen=True, slots=True)
class RelationResult:
    """One trace's row of the Section 3.2 relation, plus acceptance.

    ``executed`` is empty both for rejected traces and for accepted
    traces that execute no transition (the empty trace under an FA whose
    initial state accepts) — ``accepted`` disambiguates, which is what
    the ``executed or accepts(trace)`` callers were paying a second
    forward pass to learn.
    """

    accepted: bool
    executed: frozenset[int]


@dataclass(frozen=True, slots=True)
class Transition:
    """One FA transition: ``src --pattern--> dst``."""

    src: State
    pattern: EventPattern
    dst: State

    def __str__(self) -> str:
        return f"{self.src} --{self.pattern}--> {self.dst}"


class FA:
    """A nondeterministic finite automaton over event patterns.

    ``states`` fixes a stable order (useful for rendering and for the FCA
    attribute universe); ``transitions`` likewise — the *index* of a
    transition within :attr:`transitions` is its identity as a concept
    attribute.

    :attr:`version` counts assignments to the language-defining
    attributes (``states``/``initial``/``accepting``/``transitions``).
    The class is not meant to be mutated after construction, but nothing
    prevents a caller from reassigning those attributes — so per-FA
    caches (:class:`repro.parallel.relation.RelationCache`) key their
    entries on the version and refuse stale rows instead of silently
    serving results for a language the FA no longer accepts.
    """

    #: Attributes whose reassignment changes the accepted language (and
    #: therefore invalidates any cached relation rows).
    _SEMANTIC_ATTRS = frozenset(
        {"states", "initial", "accepting", "transitions", "_outgoing"}
    )

    version: int

    #: ``_steps`` is the sweep-step memo (see :meth:`_forward_layers`).  As
    #: a slot it stays out of ``vars(fa)``, which is the language surface.
    __slots__ = ("__dict__", "__weakref__", "_steps")

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        if name in FA._SEMANTIC_ATTRS:
            self.__dict__["version"] = self.__dict__.get("version", 0) + 1
            if name in ("states", "transitions") and "_outgoing" in self.__dict__:
                # Re-index the transitions a reassigned FA has now.
                object.__setattr__(
                    self, "_outgoing", _index_outgoing(self.states, self.transitions)
                )
            object.__setattr__(self, "_steps", {})

    def __getstate__(self) -> dict:
        # The step memo stays behind, so pickling (pool initargs) ships
        # the automaton alone.
        return self.__dict__

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        object.__setattr__(self, "_steps", {})

    def __init__(
        self,
        states: Sequence[State],
        initial: Iterable[State],
        accepting: Iterable[State],
        transitions: Sequence[Transition],
    ) -> None:
        self.states: tuple[State, ...] = tuple(states)
        state_set = set(self.states)
        if len(state_set) != len(self.states):
            raise InputError("duplicate states")
        self.initial: frozenset[State] = frozenset(initial)
        self.accepting: frozenset[State] = frozenset(accepting)
        for s in self.initial | self.accepting:
            if s not in state_set:
                raise InputError(f"initial/accepting state {s!r} not in states")
        self.transitions: tuple[Transition, ...] = tuple(transitions)
        for t in self.transitions:
            if t.src not in state_set or t.dst not in state_set:
                raise InputError(f"transition {t} mentions unknown state")
        self._outgoing: dict[State, tuple[dict[str, Edges], Edges]] = _index_outgoing(
            self.states, self.transitions
        )

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[State, str | EventPattern, State]],
        initial: Iterable[State],
        accepting: Iterable[State],
        states: Sequence[State] | None = None,
    ) -> "FA":
        """Build an FA from ``(src, pattern, dst)`` triples.

        Patterns given as strings are parsed with
        :func:`repro.lang.events.parse_pattern`.  Unless ``states`` is
        given, the state set is inferred (initial and accepting states
        first, then in order of appearance in ``edges``).
        """
        transitions = []
        seen: list[State] = []

        def note(state: State) -> None:
            if state not in seen:
                seen.append(state)

        for s in initial:
            note(s)
        for src, pattern, dst in edges:
            if isinstance(pattern, str):
                pattern = parse_pattern(pattern)
            transitions.append(Transition(src, pattern, dst))
            note(src)
            note(dst)
        for s in accepting:
            note(s)
        return cls(states if states is not None else seen, initial, accepting, transitions)

    def with_transitions(self, transitions: Sequence[Transition]) -> "FA":
        """Copy of this FA with a different transition list."""
        return FA(self.states, self.initial, self.accepting, transitions)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def symbols(self) -> frozenset[str]:
        """Event symbols appearing on (non-wildcard) transitions."""
        return frozenset(
            t.pattern.symbol for t in self.transitions if not t.pattern.is_wildcard
        )

    def variables(self) -> frozenset[str]:
        """Variables appearing on any transition."""
        out: set[str] = set()
        for t in self.transitions:
            out |= t.pattern.variables()
        return frozenset(out)

    def describe_transition(self, index: int) -> str:
        """Human-readable rendering of transition ``index``."""
        if not isinstance(index, int) or isinstance(index, bool):
            raise InputError(
                "transition index must be an integer", index=index
            )
        if not -len(self.transitions) <= index < len(self.transitions):
            raise InputError(
                "transition index out of range",
                index=index,
                num_transitions=len(self.transitions),
            )
        return str(self.transitions[index])

    def outgoing(self, state: State) -> Edges:
        """Every transition leaving ``state``, in transition-index order."""
        by_symbol, wildcards = self._outgoing[state]
        return tuple(sorted({*wildcards, *chain.from_iterable(by_symbol.values())}))

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def _forward_layers(self, trace: Trace) -> list[Layer]:
        """Reachable configurations before each event (and after the last),
        each with the edges that reach it.

        ``layers[i]`` maps every ``(state, binding)`` configuration
        reachable by consuming the first ``i`` events to its incoming
        ``(configuration in layers[i-1], transition index)`` edges
        (none for ``layers[0]``); ``len(layers) == len(trace)+1``.  This
        is the one place a trace is matched against the FA: acceptance,
        relation R and the accepting paths all read these layers.

        A step — a configuration consuming an event — is matched once per
        FA: ``(configuration, symbol, args)`` maps to its ``(destination
        configuration, transition index)`` moves, so a repeated step
        reuses the destination tuples (and their bindings) it made the
        first time.  The key leaves the :class:`Event` unhashed.  Any
        reassignment of a language-defining attribute drops the memo, and
        it starts over once it holds :data:`STEP_MEMO_SIZE` steps.
        """
        current: Layer = {(s, EMPTY_BINDING): [] for s in self.initial}
        layers = [current]
        outgoing = self._outgoing
        steps = self._steps
        for event in trace:
            symbol = event.symbol
            args = event.args
            nxt: Layer = {}
            for cfg in current:
                key = (cfg, symbol, args)
                moves = steps.get(key)
                if moves is None:
                    by_symbol, wildcards = outgoing[cfg[0]]
                    found = []
                    for index, t in by_symbol.get(symbol, wildcards):
                        new_binding = t.pattern.match(event, cfg[1])
                        if new_binding is not None:
                            found.append(((t.dst, new_binding), index))
                    moves = tuple(found)
                    if len(steps) >= STEP_MEMO_SIZE:
                        steps.clear()
                    steps[key] = moves
                for dst, index in moves:
                    edges = nxt.get(dst)
                    if edges is None:
                        nxt[dst] = [(cfg, index)]
                    else:
                        edges.append((cfg, index))
            layers.append(nxt)
            current = nxt
            if not current:
                # Still append the remaining (empty) layers so callers can
                # rely on the length invariant.
                layers.extend({} for _ in range(len(trace) + 1 - len(layers)))
                break
        return layers

    def accepts(self, trace: Trace) -> bool:
        """True iff some accepting path consumes the whole trace."""
        final = self._forward_layers(trace)[len(trace)]
        return any(state in self.accepting for state, _ in final)

    def relation(self, trace: Trace) -> RelationResult:
        """Acceptance plus the relation-R row, in one matching sweep.

        This realizes the relation R of Section 3.2: an edge of the
        configuration graph is on an accepting path iff its source is
        forward-reachable and its target co-reachable.  The forward sweep
        already holds every forward-reachable configuration with its
        incoming edges, so the backward pass walks those edges from the
        accepting configurations, collecting each edge's FA transition,
        without matching an event again.  Acceptance falls out of the
        same sweep.
        """
        layers = self._forward_layers(trace)
        accepting = self.accepting
        frontier = {cfg for cfg in layers[len(trace)] if cfg[0] in accepting}
        if not frontier:
            return RelationResult(False, frozenset())
        used: set[int] = set()
        for i in range(len(trace), 0, -1):
            incoming = layers[i]
            below: set[Config] = set()
            for cfg in frontier:
                for src, index in incoming[cfg]:
                    below.add(src)
                    used.add(index)
            frontier = below
        return RelationResult(True, frozenset(used))

    def executed_transitions(self, trace: Trace) -> frozenset[int]:
        """Indices of transitions on at least one accepting path of ``trace``.

        Empty if the trace is rejected (use :meth:`relation` when the
        distinction matters — it costs nothing extra).
        """
        return self.relation(trace).executed

    def accepting_paths(
        self, trace: Trace, limit: int = 1000
    ) -> list[tuple[int, ...]]:
        """Enumerate accepting paths as tuples of transition indices.

        Paths come depth first, from each initial state in turn, trying
        the edges out of a configuration in transition-index order.
        Exponential in the worst case; intended for tests and small
        examples, hence the ``limit`` safety valve.
        """
        n = len(trace)
        layers = self._forward_layers(trace)
        # The recorded edges, turned around: per layer, each configuration's
        # outgoing (transition index, configuration) edges.
        leaving: list[dict[Config, list[tuple[int, Config]]]] = [{} for _ in range(n)]
        for i in range(n):
            for dst, edges in layers[i + 1].items():
                for src, index in edges:
                    leaving[i].setdefault(src, []).append((index, dst))
        out: list[tuple[int, ...]] = []

        def walk(i: int, cfg: Config, path: list[int]) -> None:
            if len(out) >= limit:
                return
            if i == n:
                if cfg[0] in self.accepting:
                    out.append(tuple(path))
                return
            for index, dst in sorted(leaving[i].get(cfg, ())):
                path.append(index)
                walk(i + 1, dst, path)
                path.pop()

        for start in layers[0]:
            walk(0, start, [])
        return out

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def pretty(self) -> str:
        """Multi-line textual rendering (states, then transitions)."""
        lines = [
            f"states:    {' '.join(str(s) for s in self.states)}",
            f"initial:   {' '.join(str(s) for s in sorted(self.initial, key=str))}",
            f"accepting: {' '.join(str(s) for s in sorted(self.accepting, key=str))}",
        ]
        lines.extend(f"  {t}" for t in self.transitions)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"FA(states={self.num_states}, transitions={self.num_transitions}, "
            f"initial={sorted(map(str, self.initial))}, "
            f"accepting={sorted(map(str, self.accepting))})"
        )


def _index_outgoing(
    states: Sequence[State], transitions: Sequence[Transition]
) -> dict[State, tuple[dict[str, Edges], Edges]]:
    """Per state: ``(symbol -> candidate transitions, wildcard transitions)``.

    A symbol's candidates are its own transitions and the state's
    wildcards, in transition-index order, so every lookup yields the
    matching subset of the state's fan-out in the order a full scan
    would visit it (which keeps :meth:`FA.accepting_paths` output
    order unchanged).
    """
    symbols: dict[State, dict[str, list[Edge]]] = {s: {} for s in states}
    wildcards: dict[State, list[Edge]] = {s: [] for s in states}
    for index, t in enumerate(transitions):
        if t.pattern.is_wildcard:
            wildcards[t.src].append((index, t))
        else:
            symbols[t.src].setdefault(t.pattern.symbol, []).append((index, t))
    return {
        state: (
            {
                symbol: tuple(sorted(own + wildcards[state]))
                for symbol, own in symbols[state].items()
            },
            tuple(wildcards[state]),
        )
        for state in states
    }
