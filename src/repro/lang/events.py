"""Ground events and event patterns.

The paper's specifications range over program operations with named data:
``X = fopen()`` ... ``fclose(X)``.  We model the return value as an ordinary
argument slot, so the Figure 1 specification's events are written
``fopen(X)``, ``fread(X)``, ``fclose(X)`` and so on.

Two kinds of terms exist:

* :class:`Event` — a *ground* event in a trace: a symbol plus concrete
  object identifiers, e.g. ``Event("fopen", ("f1",))``.
* :class:`EventPattern` — a transition label in an FA: a symbol (or the
  wildcard symbol ``*`` that matches any event, used by the name-projection
  template of Section 4.1) plus argument patterns, each of which is a
  literal (:class:`Lit`), a variable (:class:`Var`, bound consistently
  along an accepting path), or the anonymous wildcard :data:`ANY`.

Concrete syntax (used by parsers, ``repr`` round-trips, and test fixtures)::

    fopen(f1)        ground event
    fclose(X)        pattern with variable X (uppercase first letter)
    read(_, X)       pattern with an anonymous slot
    *                pattern matching any event whatsoever
    tick             zero-argument event (parentheses optional)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.robustness.errors import InputError

#: Symbol used by patterns that match any event regardless of its symbol
#: and arity ("wildcard" in the paper's name-projection template).
WILDCARD_SYMBOL = "*"


@dataclass(frozen=True, slots=True)
class Event:
    """A ground event: a symbol applied to concrete object identifiers."""

    symbol: str
    args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.symbol or self.symbol == WILDCARD_SYMBOL:
            raise InputError(f"invalid event symbol: {self.symbol!r}")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    def rename(self, mapping: dict[str, str]) -> "Event":
        """Return a copy with argument identifiers renamed via ``mapping``.

        Identifiers absent from ``mapping`` are kept unchanged.  Used by the
        miner's name standardization (objects become ``X``, ``Y``, ...).
        """
        return Event(self.symbol, tuple(mapping.get(a, a) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True, slots=True)
class Lit:
    """Argument pattern matching exactly one identifier."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Var:
    """Argument pattern binding a name consistently along a path."""

    name: str

    def __str__(self) -> str:
        return self.name


class _Any:
    """Anonymous argument wildcard (singleton :data:`ANY`)."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"

    def __str__(self) -> str:
        return "_"


#: The anonymous argument wildcard.
ANY = _Any()

ArgPattern = Union[Lit, Var, _Any]

#: A variable binding: an immutable mapping from variable names to
#: identifiers, represented as a sorted tuple of pairs so it hashes.
Binding = tuple[tuple[str, str], ...]

EMPTY_BINDING: Binding = ()


def binding_get(binding: Binding, name: str) -> str | None:
    """Look up ``name`` in a binding tuple (bindings are tiny; linear scan)."""
    for key, value in binding:
        if key == name:
            return value
    return None


def binding_set(binding: Binding, name: str, value: str) -> Binding:
    """Return ``binding`` extended with ``name -> value`` (kept sorted)."""
    items = list(binding)
    items.append((name, value))
    items.sort()
    return tuple(items)


@dataclass(frozen=True, slots=True)
class EventPattern:
    """A transition label: symbol (or wildcard) plus argument patterns."""

    symbol: str
    args: tuple[ArgPattern, ...] = ()

    def __post_init__(self) -> None:
        if not self.symbol:
            raise InputError("empty pattern symbol")
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))
        if self.symbol == WILDCARD_SYMBOL and self.args:
            raise InputError("the wildcard pattern '*' takes no arguments")

    @property
    def is_wildcard(self) -> bool:
        """True for the pattern ``*`` that matches any event."""
        return self.symbol == WILDCARD_SYMBOL

    def variables(self) -> frozenset[str]:
        """Names of the variables occurring in this pattern."""
        return frozenset(a.name for a in self.args if isinstance(a, Var))

    def match(self, event: Event, binding: Binding = EMPTY_BINDING) -> Binding | None:
        """Match ``event`` under ``binding``.

        Returns the (possibly extended) binding on success or ``None`` on
        failure.  Variables already bound must agree with the event's
        identifiers; unbound variables are bound by the match.
        """
        if self.is_wildcard:
            return binding
        if self.symbol != event.symbol or len(self.args) != len(event.args):
            return None
        for pat, actual in zip(self.args, event.args):
            if isinstance(pat, Lit):
                if pat.value != actual:
                    return None
            elif isinstance(pat, Var):
                bound = binding_get(binding, pat.name)
                if bound is None:
                    binding = binding_set(binding, pat.name, actual)
                elif bound != actual:
                    return None
            # ANY matches anything.
        return binding

    def ground(self) -> bool:
        """True if the pattern contains no variables or wildcards."""
        return not self.is_wildcard and all(isinstance(a, Lit) for a in self.args)

    def __str__(self) -> str:
        if self.is_wildcard:
            return WILDCARD_SYMBOL
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(str(a) for a in self.args)})"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.'\-]*")
#: Argument identifiers may be purely numeric (object ids often are).
_ARG_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.'\-]*")
_CALL_RE = re.compile(
    r"^\s*(?P<sym>[A-Za-z_][A-Za-z0-9_.'\-]*)\s*(?:\(\s*(?P<args>[^()]*)\)\s*)?$"
)


def _split_args(raw: str | None) -> list[str]:
    if raw is None or not raw.strip():
        return []
    return [piece.strip() for piece in raw.split(",")]


def parse_event(text: str) -> Event:
    """Parse a ground event, e.g. ``"fopen(f1)"`` or ``"tick"``."""
    match = _CALL_RE.match(text)
    if match is None:
        raise InputError(f"cannot parse event: {text!r}")
    args = _split_args(match.group("args"))
    for arg in args:
        if not _ARG_RE.fullmatch(arg):
            raise InputError(f"invalid event argument {arg!r} in {text!r}")
    return Event(match.group("sym"), tuple(args))


def _parse_arg_pattern(text: str) -> ArgPattern:
    if text == "_":
        return ANY
    if not _ARG_RE.fullmatch(text):
        raise InputError(f"invalid argument pattern: {text!r}")
    if text[0].isupper():
        return Var(text)
    return Lit(text)


def parse_pattern(text: str) -> EventPattern:
    """Parse an event pattern.

    Uppercase-initial arguments are variables, ``_`` is the anonymous
    wildcard, anything else is a literal; the bare text ``*`` is the
    match-anything pattern.
    """
    if text.strip() == WILDCARD_SYMBOL:
        return EventPattern(WILDCARD_SYMBOL)
    match = _CALL_RE.match(text)
    if match is None:
        raise InputError(f"cannot parse pattern: {text!r}")
    args = tuple(_parse_arg_pattern(a) for a in _split_args(match.group("args")))
    return EventPattern(match.group("sym"), args)
