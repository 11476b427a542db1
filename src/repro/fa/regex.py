"""A small regular-expression compiler for specification authoring.

Specifications are easier to write as expressions than as state tables;
this module compiles a conventional regex syntax over event patterns to
an :class:`~repro.fa.automaton.FA` by Thompson's construction (with
epsilon transitions eliminated at the end, since the FA class has none).

Syntax::

    expr     := term ('|' term)*
    term     := factor*
    factor   := atom ('*' | '+' | '?')?
    atom     := '(' expr ')' | event-pattern
    event-pattern :=  e.g.  fopen(X)   fread(_, X)   *any*   tick

Because ``*`` is both the Kleene star and the wildcard event, the
wildcard event is written ``*any*`` in regex syntax.  Whitespace and
``;`` separate factors.

An empty term denotes the empty string, so ``a(X) |`` means "a(X) or
nothing" (like POSIX ERE's empty alternative).

Examples::

    compile_regex("fopen(X) (fread(X) | fwrite(X))* fclose(X)")
    compile_regex("(a(X) b(X))+ | c(X)?")
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fa.automaton import FA, Transition
from repro.lang.events import EventPattern, WILDCARD_SYMBOL, parse_pattern
from repro.robustness.errors import InputError

#: Spelling of the wildcard *event* inside regex text (the bare ``*`` is
#: the Kleene star there).
WILDCARD_TOKEN = "*any*"


class RegexSyntaxError(InputError):
    """Raised for malformed regular expressions (an :class:`InputError`,
    so also a ``ValueError``)."""


# --------------------------------------------------------------------- #
# tokenizer
# --------------------------------------------------------------------- #

_PUNCT = {"(", ")", "|", "*", "+", "?"}


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace() or ch == ";":
            i += 1
            continue
        if text.startswith(WILDCARD_TOKEN, i):
            tokens.append(WILDCARD_TOKEN)
            i += len(WILDCARD_TOKEN)
            continue
        if ch in _PUNCT:
            tokens.append(ch)
            i += 1
            continue
        # An event pattern: a name, optionally followed by (args).
        j = i
        while j < n and (text[j].isalnum() or text[j] in "_.'-"):
            j += 1
        if j == i:
            raise RegexSyntaxError(f"unexpected character {ch!r} at {i}")
        name = text[i:j]
        if j < n and text[j] == "(":
            close = text.find(")", j)
            if close == -1:
                raise RegexSyntaxError(f"unclosed '(' in event at {i}")
            tokens.append(text[i : close + 1])
            i = close + 1
        else:
            tokens.append(name)
            i = j
    return tokens


# --------------------------------------------------------------------- #
# parser (recursive descent to an AST)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class _Atom:
    pattern: EventPattern


@dataclass(frozen=True)
class _Seq:
    parts: tuple["_Node", ...]


@dataclass(frozen=True)
class _Alt:
    options: tuple["_Node", ...]


@dataclass(frozen=True)
class _Star:
    inner: "_Node"


@dataclass(frozen=True)
class _Plus:
    inner: "_Node"


@dataclass(frozen=True)
class _Opt:
    inner: "_Node"


_Node = _Atom | _Seq | _Alt | _Star | _Plus | _Opt


class _Parser:
    def __init__(self, tokens: list[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise RegexSyntaxError("unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> _Node:
        expr = self.expr()
        if self.peek() is not None:
            raise RegexSyntaxError(f"trailing input at token {self.peek()!r}")
        return expr

    def expr(self) -> _Node:
        options = [self.term()]
        while self.peek() == "|":
            self.take()
            options.append(self.term())
        return options[0] if len(options) == 1 else _Alt(tuple(options))

    def term(self) -> _Node:
        parts: list[_Node] = []
        while self.peek() is not None and self.peek() not in (")", "|"):
            parts.append(self.factor())
        return _Seq(tuple(parts)) if len(parts) != 1 else parts[0]

    def factor(self) -> _Node:
        atom: _Node = self.atom()
        while self.peek() in ("*", "+", "?"):
            op = self.take()
            if op == "*":
                atom = _Star(atom)
            elif op == "+":
                atom = _Plus(atom)
            else:
                atom = _Opt(atom)
        return atom

    def atom(self) -> _Node:
        token = self.take()
        if token == "(":
            inner = self.expr()
            if self.take() != ")":
                raise RegexSyntaxError("expected ')'")
            return inner
        if token in (")", "|", "*", "+", "?"):
            raise RegexSyntaxError(f"unexpected {token!r}")
        if token == WILDCARD_TOKEN:
            return _Atom(EventPattern(WILDCARD_SYMBOL))
        return _Atom(parse_pattern(token))


# --------------------------------------------------------------------- #
# Thompson construction with epsilon edges, then epsilon elimination
# --------------------------------------------------------------------- #


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.eps: list[tuple[int, int]] = []
        self.moves: list[tuple[int, EventPattern, int]] = []

    def fresh(self) -> int:
        self.count += 1
        return self.count - 1

    def build(self, node) -> tuple[int, int]:
        """Return (start, end) states of the fragment for ``node``."""
        if isinstance(node, _Atom):
            start, end = self.fresh(), self.fresh()
            self.moves.append((start, node.pattern, end))
            return start, end
        if isinstance(node, _Seq):
            start = end = self.fresh()
            for part in node.parts:
                ps, pe = self.build(part)
                self.eps.append((end, ps))
                end = pe
            return start, end
        if isinstance(node, _Alt):
            start, end = self.fresh(), self.fresh()
            for option in node.options:
                os_, oe = self.build(option)
                self.eps.append((start, os_))
                self.eps.append((oe, end))
            return start, end
        if isinstance(node, _Star):
            start, end = self.fresh(), self.fresh()
            is_, ie = self.build(node.inner)
            self.eps.extend([(start, is_), (ie, end), (start, end), (ie, is_)])
            return start, end
        if isinstance(node, _Plus):
            is_, ie = self.build(node.inner)
            self.eps.append((ie, is_))
            return is_, ie
        if isinstance(node, _Opt):
            start, end = self.fresh(), self.fresh()
            is_, ie = self.build(node.inner)
            self.eps.extend([(start, is_), (ie, end), (start, end)])
            return start, end
        raise AssertionError(f"unknown AST node {node!r}")


def compile_regex(text: str) -> FA:
    """Compile ``text`` to an FA accepting exactly its language."""
    ast = _Parser(_tokenize(text)).parse()
    builder = _Builder()
    start, end = builder.build(ast)

    # Epsilon closure per state.
    succ: dict[int, set[int]] = {}
    for a, b in builder.eps:
        succ.setdefault(a, set()).add(b)

    def closure(state: int) -> frozenset[int]:
        seen = {state}
        stack = [state]
        while stack:
            s = stack.pop()
            for t in succ.get(s, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    closures = {s: closure(s) for s in range(builder.count)}
    accepting = {s for s in range(builder.count) if end in closures[s]}

    transitions = []
    for src in range(builder.count):
        for mid in closures[src]:
            for ms, pattern, md in builder.moves:
                if ms == mid:
                    transitions.append(Transition(f"s{src}", pattern, f"s{md}"))
    # Keep only states reachable from the start (smaller FA, same language).
    states = [f"s{i}" for i in range(builder.count)]
    fa = FA(
        states,
        [f"s{start}"],
        [f"s{s}" for s in sorted(accepting)],
        transitions,
    )
    return _trim(fa)


def _trim(fa: FA) -> FA:
    """Drop states unreachable from the initial set."""
    from collections import deque

    reachable = set(fa.initial)
    queue = deque(reachable)
    by_src: dict = {}
    for t in fa.transitions:
        by_src.setdefault(t.src, []).append(t)
    while queue:
        state = queue.popleft()
        for t in by_src.get(state, ()):
            if t.dst not in reachable:
                reachable.add(t.dst)
                queue.append(t.dst)
    states = [s for s in fa.states if s in reachable]
    return FA(
        states,
        [s for s in fa.initial if s in reachable],
        [s for s in fa.accepting if s in reachable],
        [t for t in fa.transitions if t.src in reachable and t.dst in reachable],
    )
