"""The sk-strings FA learner (Raman and Patrick).

Cable's *Show FA* view and Strauss's back end both use this learner
(Section 4.1: "Cable uses Raman and Patrick's sk-strings learner").

The algorithm is stochastic state merging:

1. Build the prefix-tree acceptor with edge frequencies.
2. Repeatedly merge states that are **sk-equivalent**: two states are
   sk-equivalent iff the *top s fraction* (by probability mass) of their
   *k-strings* coincide.  A k-string of a state is a path of length k out
   of that state, or a shorter path ending with the stop decision; its
   probability is the product of the observed branching frequencies.
3. Merging may create nondeterminism; it is folded away by recursively
   merging the targets of same-symbol edges (keeping frequencies summed).

We drive the merging with the standard red–blue ordering: fringe (blue)
states are compared against accepted (red) states in breadth-first order,
merged into the first sk-equivalent red state, or promoted to red.

``k`` controls how much lookahead distinguishes states; ``s`` controls how
much of the probability mass must agree; ``variant`` selects Raman and
Patrick's two acceptance tests — ``"and"`` (the default) merges states
whose top k-string sets are *equal*, ``"or"`` merges states whose top
sets merely *intersect*, which generalizes much more aggressively.

Representation.  The merged automaton is always deterministic and stored
by root state only: each root has a ``symbol -> target root`` map, a
``symbol -> count`` map, its predecessor roots and its visit count,
which is also its out-mass (stops plus outgoing counts).  A merge keeps
the lower-numbered root, redirects the absorbed state's incoming edges
at once, and folds nondeterminism with a worklist, so every read is a
plain dict lookup.  Each merge
yields the unique smallest deterministic coarsening containing the
merged pair, with counts summed, so the result depends only on which
states were merged, not on the order the folds ran in.

Top-strings memo.  ``top_strings`` is memoised per root.  A state's
k-strings read only the states at depth <= k below it, so a merge drops
the memo of exactly the roots within k backward steps of a state it
touched; every other root's top-strings are unchanged.  The memo lives
in one ``_Merger``, i.e. one learn call.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from repro import obs
from repro.fa.automaton import FA, Transition
from repro.lang.events import parse_pattern
from repro.lang.traces import Trace
from repro.learners.prefix_tree import PrefixTree
from repro.robustness.errors import InputError

#: Marker appended to k-strings that end with the stop decision.
STOP = "$"


@dataclass(frozen=True)
class LearnedFA:
    """A learned automaton plus the training frequency of each transition.

    ``transition_counts[i]`` is how many training traces traversed
    ``fa.transitions[i]``; :func:`repro.learners.coring.core_fa` uses these
    to drop rare transitions.
    """

    fa: FA
    transition_counts: tuple[int, ...]
    state_visits: tuple[int, ...]


class _Merger:
    """The merged automaton by root state, shared by the learners.

    Every prefix-tree node starts as its own root, and a class's root is
    always its smallest node.  Per root: ``succ`` (symbol -> target
    root), ``count`` (symbol -> summed edge count), ``preds`` (roots with
    an edge into it), ``stops`` and ``visits``; the edge maps of absorbed
    states are emptied.
    """

    def __init__(self, tree: PrefixTree) -> None:
        n = tree.num_nodes
        self.parent = list(range(n))
        self.succ: list[dict[str, int]] = [dict(kids) for kids in tree.children]
        self.count: list[dict[str, int]] = [
            {sym: tree.visits[child] for sym, child in kids.items()}
            for kids in tree.children
        ]
        self.preds: list[set[int]] = [set() for _ in range(n)]
        for node, kids in enumerate(tree.children):
            for child in kids.values():
                self.preds[child].add(node)
        self.stops = list(tree.stops)
        # A node's visits are its stops plus its outgoing counts, and a
        # merge sums all three, so ``visits`` is also each root's out-mass.
        self.visits = list(tree.visits)
        # Top-strings memo: root -> {(k, s): top k-strings}.  ``merge``
        # drops every root within ``_horizon`` (the largest k asked for)
        # backward steps of a state it touched.
        self._tops: dict[int, dict[tuple[int, float], frozenset]] = {}
        self._horizon = 0

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def merge(self, a: int, b: int) -> int:
        """Merge states ``a`` and ``b`` and fold nondeterminism; returns the
        surviving root."""
        first = a
        survivors: list[int] = []
        pending = [(a, b)]
        while pending:
            a, b = pending.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            # Keep the lower-numbered (closer to the root / created earlier).
            if b < a:
                a, b = b, a
            self.parent[b] = a
            survivors.append(a)
            self.stops[a] += self.stops[b]
            self.visits[a] += self.visits[b]
            # Point every edge into ``b`` at ``a``.
            for p in self.preds[b]:
                out = self.succ[p]
                for sym, target in out.items():
                    if target == b:
                        out[sym] = a
                if p != b:
                    self.preds[a].add(p)
            self.preds[b] = set()
            # Move ``b``'s edges to ``a``; a symbol that leaves both states
            # queues a merge of its two targets (the fold).
            counts = self.count[b]
            for sym, target in self.succ[b].items():
                self.preds[target].discard(b)
                if sym in self.succ[a]:
                    self.count[a][sym] += counts[sym]
                    if self.succ[a][sym] != target:
                        pending.append((self.succ[a][sym], target))
                else:
                    self.succ[a][sym] = target
                    self.count[a][sym] = counts[sym]
                    self.preds[target].add(a)
            self.succ[b] = {}
            self.count[b] = {}
        if self._tops:
            self._invalidate({self.find(s) for s in survivors})
        return self.find(first)

    def _invalidate(self, touched: set[int]) -> None:
        """Drop the memoised top-strings of every root within ``_horizon``
        backward steps of ``touched``: a state's k-strings read only the
        states at depth <= k below it."""
        seen = set(touched)
        frontier = touched
        for _ in range(self._horizon):
            frontier = {p for q in frontier for p in self.preds[q]} - seen
            if not frontier:
                break
            seen |= frontier
        for root in seen:
            self._tops.pop(root, None)

    def k_strings(self, state: int, k: int) -> dict[tuple[str, ...], float]:
        """Probability of each k-string out of ``state``.

        A k-string is a symbol path of length ``k``, or a shorter path
        followed by the STOP marker; probabilities multiply observed
        branching ratios, so the values sum to 1 for any live state.
        """
        out: dict[tuple[str, ...], float] = {}
        succ, count, stops, visits = self.succ, self.count, self.stops, self.visits

        def walk(node: int, depth: int, prob: float, prefix: tuple[str, ...]) -> None:
            mass = visits[node]
            if mass == 0:
                key = prefix + (STOP,)
                out[key] = out.get(key, 0.0) + prob
                return
            if depth == k:
                out[prefix] = out.get(prefix, 0.0) + prob
                return
            if stops[node]:
                key = prefix + (STOP,)
                out[key] = out.get(key, 0.0) + prob * stops[node] / mass
            counts = count[node]
            for sym, target in succ[node].items():
                walk(target, depth + 1, prob * counts[sym] / mass, prefix + (sym,))

        walk(self.find(state), 0, 1.0, ())
        return out

    def top_strings(self, state: int, k: int, s: float) -> frozenset[tuple[str, ...]]:
        """The most probable k-strings covering at least fraction ``s``."""
        state = self.find(state)
        memo = self._tops.setdefault(state, {})
        tops = memo.get((k, s))
        if tops is not None:
            return tops
        dist = sorted(
            self.k_strings(state, k).items(), key=lambda kv: (-kv[1], kv[0])
        )
        chosen: list[tuple[str, ...]] = []
        cumulative = 0.0
        for string, prob in dist:
            chosen.append(string)
            cumulative += prob
            if cumulative >= s - 1e-12:
                break
        tops = memo[(k, s)] = frozenset(chosen)
        self._horizon = max(self._horizon, k)
        return tops

    def sk_equivalent(
        self, a: int, b: int, k: int, s: float, variant: str = "and"
    ) -> bool:
        tops_a = self.top_strings(a, k, s)
        tops_b = self.top_strings(b, k, s)
        if variant == "and":
            return tops_a == tops_b
        if variant == "or":
            return bool(tops_a & tops_b)
        raise InputError(f"unknown sk-strings variant {variant!r}")

    def to_learned_fa(self) -> LearnedFA:
        """Freeze into a :class:`LearnedFA` with BFS state numbering."""
        root = self.find(0)
        order = [root]
        index = {root: 0}
        queue = deque(order)
        while queue:
            node = queue.popleft()
            for _, target in sorted(self.succ[node].items()):
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
                    queue.append(target)
        transitions = []
        counts = []
        for node in order:
            node_counts = self.count[node]
            for sym, target in sorted(self.succ[node].items()):
                transitions.append(
                    Transition(
                        f"q{index[node]}", parse_pattern(sym), f"q{index[target]}"
                    )
                )
                counts.append(node_counts[sym])
        states = [f"q{i}" for i in range(len(order))]
        accepting = [f"q{index[n]}" for n in order if self.stops[n] > 0]
        fa = FA(states, ["q0"], accepting, transitions)
        visits = tuple(self.visits[n] for n in order)
        return LearnedFA(fa, tuple(counts), visits)


def learn_sk_strings(
    traces: Iterable[Trace],
    k: int = 2,
    s: float = 1.0,
    variant: str = "and",
) -> LearnedFA:
    """Learn an FA from ``traces`` with the sk-strings method.

    Returns a deterministic FA that accepts every training trace; larger
    ``k`` / larger ``s`` yield bigger, more conservative automata, and
    ``variant="or"`` merges far more aggressively than the default
    ``"and"``.
    """
    if not 0.0 < s <= 1.0:
        raise InputError(f"s must be in (0, 1], got {s}")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if variant not in ("and", "or"):
        raise InputError(f"unknown sk-strings variant {variant!r}")
    tree = PrefixTree.from_traces(traces)
    if tree.visits[0] == 0:
        raise InputError("cannot learn from an empty trace set")
    with obs.span(
        "sk_strings.learn", nodes=tree.num_nodes, k=k, s=s, variant=variant
    ) as span:
        merger = _Merger(tree)

        merges = promotions = 0
        red: list[int] = [merger.find(0)]
        while True:
            # Blue fringe: successors of red states that are not red.
            red_set = {merger.find(r) for r in red}
            red = sorted(red_set)
            blue = {t for r in red for t in merger.succ[r].values()} - red_set
            if not blue:
                break
            b = min(blue)
            for r in red:
                if merger.sk_equivalent(r, b, k, s, variant):
                    merger.merge(r, b)
                    merges += 1
                    break
            else:
                red.append(b)
                promotions += 1
        learned = merger.to_learned_fa()
        span.set(
            merges=merges,
            promotions=promotions,
            states=len(learned.fa.states),
        )
        obs.inc("learner.merges", merges)
        obs.inc("learner.promotions", promotions)
        obs.inc("learner.runs")
        return learned
