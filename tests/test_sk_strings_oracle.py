"""Differential tests: the root-only sk-strings merger ≡ the union-find one.

The sk-strings merger stores the merged automaton by root, redirects
edges eagerly and memoises each root's top-strings.  These tests pin it
to the straightforward union-find merger it replaced: that merger and
its red–blue loop are written out here as a reference, and on random
corpora (and on every catalog specification) both learners must produce
the same :class:`LearnedFA` — the same transitions in the same order,
the same transition counts, state visits and accepting states.  The
k-tails learner shares the merger, so it is checked the same way.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fa.automaton import FA, Transition
from repro.lang.events import parse_pattern
from repro.lang.traces import parse_trace
from repro.learners.k_tails import learn_k_tails
from repro.learners.prefix_tree import PrefixTree
from repro.learners.sk_strings import STOP, LearnedFA, _Merger, learn_sk_strings
from repro.workloads.specs_catalog import SPEC_CATALOG


# --------------------------------------------------------------------- #
# reference semantics: the union-find merger with lazy re-keying
# --------------------------------------------------------------------- #


class RefMerger:
    """Union-find over prefix-tree nodes; edges keep stale targets and are
    re-keyed by their current roots whenever they are read."""

    def __init__(self, tree: PrefixTree) -> None:
        n = tree.num_nodes
        self.parent = list(range(n))
        self.edges: list[dict[str, dict[int, int]]] = []
        for node in range(n):
            out: dict[str, dict[int, int]] = {}
            for sym, child in tree.children[node].items():
                out[sym] = {child: tree.visits[child]}
            self.edges.append(out)
        self.stops = list(tree.stops)
        self.visits = list(tree.visits)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def merge(self, a: int, b: int) -> int:
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        if b < a:
            a, b = b, a
        self.parent[b] = a
        self.stops[a] += self.stops[b]
        self.visits[a] += self.visits[b]
        merged = self.edges[b]
        self.edges[b] = {}
        for sym, targets in merged.items():
            bucket = self.edges[a].setdefault(sym, {})
            for target, count in targets.items():
                target = self.find(target)
                bucket[target] = bucket.get(target, 0) + count
        while True:
            a = self.find(a)
            for sym in list(self.edges[a].keys()):
                self._normalize(a, sym)
                targets = self.edges[a].get(sym, ())
                if len(targets) > 1:
                    roots = sorted(targets)
                    self.merge(roots[0], roots[1])
                    break
            else:
                return self.find(a)

    def _normalize(self, state: int, sym: str) -> None:
        state = self.find(state)
        old = self.edges[state].get(sym, {})
        fresh: dict[int, int] = {}
        for target, count in old.items():
            target = self.find(target)
            fresh[target] = fresh.get(target, 0) + count
        self.edges[state][sym] = fresh

    def successors(self, state: int) -> dict[str, tuple[int, int]]:
        state = self.find(state)
        out: dict[str, tuple[int, int]] = {}
        for sym in list(self.edges[state]):
            self._normalize(state, sym)
            targets = self.edges[state][sym]
            if not targets:
                continue
            if len(targets) != 1:
                raise RuntimeError("merged automaton is not deterministic")
            ((target, count),) = targets.items()
            out[sym] = (target, count)
        return out

    def k_strings(self, state: int, k: int) -> dict[tuple[str, ...], float]:
        out: dict[tuple[str, ...], float] = {}

        def walk(node: int, depth: int, prob: float, prefix: tuple[str, ...]) -> None:
            node = self.find(node)
            succ = self.successors(node)
            mass = self.stops[node] + sum(c for _, c in succ.values())
            if mass == 0:
                out[prefix + (STOP,)] = out.get(prefix + (STOP,), 0.0) + prob
                return
            if depth == k:
                out[prefix] = out.get(prefix, 0.0) + prob
                return
            if self.stops[node]:
                key = prefix + (STOP,)
                out[key] = out.get(key, 0.0) + prob * self.stops[node] / mass
            for sym, (target, count) in succ.items():
                walk(target, depth + 1, prob * count / mass, prefix + (sym,))

        walk(state, 0, 1.0, ())
        return out

    def top_strings(self, state: int, k: int, s: float) -> frozenset[tuple[str, ...]]:
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
        return frozenset(chosen)

    def sk_equivalent(self, a: int, b: int, k: int, s: float, variant: str) -> bool:
        tops_a = self.top_strings(a, k, s)
        tops_b = self.top_strings(b, k, s)
        if variant == "and":
            return tops_a == tops_b
        return bool(tops_a & tops_b)

    def to_learned_fa(self) -> LearnedFA:
        root = self.find(0)
        order = [root]
        index = {root: 0}
        queue = [root]
        while queue:
            node = queue.pop(0)
            for sym in sorted(self.successors(node)):
                target, _ = self.successors(node)[sym]
                if target not in index:
                    index[target] = len(order)
                    order.append(target)
                    queue.append(target)
        transitions = []
        counts = []
        for node in order:
            for sym in sorted(self.successors(node)):
                target, count = self.successors(node)[sym]
                transitions.append(
                    Transition(
                        f"q{index[node]}", parse_pattern(sym), f"q{index[target]}"
                    )
                )
                counts.append(count)
        states = [f"q{i}" for i in range(len(order))]
        accepting = [f"q{index[n]}" for n in order if self.stops[n] > 0]
        fa = FA(states, ["q0"], accepting, transitions)
        visits = tuple(self.visits[n] for n in order)
        return LearnedFA(fa, tuple(counts), visits)


def ref_sk_strings(tree: PrefixTree, k: int, s: float, variant: str) -> LearnedFA:
    """The red–blue loop over :class:`RefMerger`."""
    merger = RefMerger(tree)
    red: list[int] = [merger.find(0)]
    while True:
        red = sorted({merger.find(r) for r in red})
        blue = sorted(
            {
                target
                for r in red
                for _, (target, _) in merger.successors(r).items()
                if target not in red
            }
        )
        if not blue:
            break
        b = blue[0]
        for r in red:
            if merger.sk_equivalent(r, b, k, s, variant):
                merger.merge(r, b)
                break
        else:
            red.append(b)
    return merger.to_learned_fa()


def ref_k_tails(tree: PrefixTree, k: int) -> LearnedFA:
    """k-tails over :class:`RefMerger`."""
    merger = RefMerger(tree)

    def tail_set(state: int, depth: int, cache: dict) -> frozenset:
        state = merger.find(state)
        if (state, depth) in cache:
            return cache[(state, depth)]
        tails: set[tuple[str, ...]] = set()
        if merger.stops[state] > 0:
            tails.add(())
        if depth > 0:
            for sym, (target, _) in merger.successors(state).items():
                for tail in tail_set(target, depth - 1, cache):
                    tails.add((sym,) + tail)
        cache[(state, depth)] = result = frozenset(tails)
        return result

    changed = True
    while changed:
        changed = False
        cache: dict = {}
        roots = sorted({merger.find(n) for n in range(tree.num_nodes)})
        groups: dict[frozenset, int] = {}
        for state in roots:
            tails = tail_set(state, k, cache)
            keeper = groups.get(tails)
            if keeper is None:
                groups[tails] = state
            elif merger.find(keeper) != merger.find(state):
                merger.merge(keeper, state)
                changed = True
    return merger.to_learned_fa()


# --------------------------------------------------------------------- #
# comparison
# --------------------------------------------------------------------- #


def assert_same(got: LearnedFA, want: LearnedFA) -> None:
    assert got.fa.states == want.fa.states
    assert got.fa.transitions == want.fa.transitions
    assert got.transition_counts == want.transition_counts
    assert got.state_visits == want.state_visits
    # ``FA.accepting`` is a frozenset, so compare it in a fixed order.
    assert sorted(got.fa.accepting) == sorted(want.fa.accepting)


SYMBOLS = ["a(X)", "b(X)", "c(X)", "d(X)", "e(X)"]


@st.composite
def corpora(draw) -> list[tuple[str, ...]]:
    """1-5 symbols, 1-40 traces of 0-8 events, duplicates included."""
    alphabet = SYMBOLS[: draw(st.integers(1, len(SYMBOLS)))]
    distinct = draw(
        st.lists(
            st.lists(st.sampled_from(alphabet), max_size=8).map(tuple),
            min_size=1,
            max_size=20,
        )
    )
    picks = draw(st.lists(st.sampled_from(distinct), max_size=20))
    return distinct + picks


def _as_traces(corpus: list[tuple[str, ...]]) -> list:
    return [parse_trace("; ".join(symbols)) for symbols in corpus]


DIFFERENTIAL = settings(max_examples=150, deadline=None)


class TestSkStringsOracle:
    @DIFFERENTIAL
    @given(
        corpus=corpora(),
        k=st.sampled_from([1, 2, 3]),
        s=st.sampled_from([0.3, 0.5, 0.75, 1.0]),
        variant=st.sampled_from(["and", "or"]),
    )
    def test_random_corpora(self, corpus, k, s, variant):
        tree = PrefixTree.from_strings(corpus)
        want = ref_sk_strings(tree, k, s, variant)
        got = learn_sk_strings(_as_traces(corpus), k=k, s=s, variant=variant)
        assert_same(got, want)

    @pytest.mark.parametrize("spec", SPEC_CATALOG, ids=lambda spec: spec.name)
    def test_catalog_debugged_fa(self, spec):
        good = [b.trace() for b in spec.behaviors if b.good]
        want = ref_sk_strings(
            PrefixTree.from_traces(good), spec.mine_k, spec.mine_s, "and"
        )
        got = learn_sk_strings(good, k=spec.mine_k, s=spec.mine_s)
        assert_same(got, want)
        assert spec.debugged_fa().transitions == want.fa.transitions


class TestKTailsOracle:
    @DIFFERENTIAL
    @given(corpus=corpora(), k=st.integers(0, 3))
    def test_random_corpora(self, corpus, k):
        want = ref_k_tails(PrefixTree.from_strings(corpus), k)
        got = learn_k_tails(_as_traces(corpus), k=k)
        assert_same(got, want)


class TestTopStringsMemo:
    """The memo is exact: after any merge, every root's memoised
    top-strings equal a fresh computation."""

    @DIFFERENTIAL
    @given(
        corpus=corpora(),
        k=st.sampled_from([1, 2, 3]),
        s=st.sampled_from([0.5, 1.0]),
        data=st.data(),
    )
    def test_memo_matches_fresh_after_merges(self, corpus, k, s, data):
        tree = PrefixTree.from_strings(corpus)
        merger = _Merger(tree)
        for _ in range(data.draw(st.integers(1, 4))):
            roots = sorted({merger.find(n) for n in range(tree.num_nodes)})
            for root in roots:
                merger.top_strings(root, k, s)
            if len(roots) < 2:
                break
            a, b = data.draw(
                st.lists(st.sampled_from(roots), min_size=2, max_size=2, unique=True)
            )
            assert merger.merge(a, b) == merger.find(a) == merger.find(b)
            for root in sorted({merger.find(n) for n in range(tree.num_nodes)}):
                memoised = merger.top_strings(root, k, s)
                merger._tops.pop(root)
                assert memoised == merger.top_strings(root, k, s)

