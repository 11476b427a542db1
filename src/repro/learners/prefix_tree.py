"""Prefix-tree acceptors (PTAs) with frequencies.

A PTA accepts exactly its training traces; the state-merging learners
start from it.  Symbols are the *rendered* events (e.g. ``fopen(X)``), so
standardized scenario traces with the same shape share tree paths and the
frequencies measure how often each continuation was observed.

Each node records ``visits`` (traces passing through) and ``stops``
(traces ending there); a node's outgoing probability mass is split among
its child edges and the implicit *stop* decision, which is how the
sk-strings learner estimates string probabilities.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.fa.automaton import FA
from repro.lang.events import parse_pattern
from repro.lang.traces import Trace


class PrefixTree:
    """A frequency-annotated prefix tree over symbol strings."""

    def __init__(self) -> None:
        self.children: list[dict[str, int]] = [{}]
        self.visits: list[int] = [0]
        self.stops: list[int] = [0]

    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "PrefixTree":
        """Build a PTA from traces, rendering each event to its symbol."""
        tree = cls()
        for trace in traces:
            tree.add(tuple(str(e) for e in trace))
        return tree

    @classmethod
    def from_strings(cls, strings: Iterable[Sequence[str]]) -> "PrefixTree":
        tree = cls()
        for s in strings:
            tree.add(tuple(s))
        return tree

    def add(self, symbols: tuple[str, ...]) -> None:
        """Insert one training string."""
        node = 0
        self.visits[0] += 1
        for sym in symbols:
            nxt = self.children[node].get(sym)
            if nxt is None:
                nxt = len(self.children)
                self.children.append({})
                self.visits.append(0)
                self.stops.append(0)
                self.children[node][sym] = nxt
            self.visits[nxt] += 1
            node = nxt
        self.stops[node] += 1

    @property
    def num_nodes(self) -> int:
        return len(self.children)

    def edge_count(self, node: int, symbol: str) -> int:
        """How many training traces took ``symbol`` out of ``node``."""
        child = self.children[node].get(symbol)
        return 0 if child is None else self.visits[child]

    def bfs_order(self) -> list[int]:
        """Nodes in breadth-first order (root first, children by symbol)."""
        order = [0]
        queue = deque(order)
        while queue:
            node = queue.popleft()
            for sym in sorted(self.children[node]):
                child = self.children[node][sym]
                order.append(child)
                queue.append(child)
        return order

    def to_fa(self) -> FA:
        """The PTA as an FA (accepting exactly the training strings)."""
        edges = []
        accepting = [f"n{i}" for i in range(self.num_nodes) if self.stops[i] > 0]
        for node, kids in enumerate(self.children):
            for sym, child in sorted(kids.items()):
                edges.append((f"n{node}", parse_pattern(sym), f"n{child}"))
        states = [f"n{i}" for i in range(self.num_nodes)]
        return FA.from_edges(edges, initial=["n0"], accepting=accepting, states=states)
