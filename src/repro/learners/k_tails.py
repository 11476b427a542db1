"""The classical k-tails learner (Biermann–Feldman), as an A3 baseline.

Two PTA states are k-tails-equivalent iff they accept exactly the same
strings of length ≤ k.  The learner merges equivalence classes and folds
the resulting nondeterminism, reusing the merged-automaton machinery of
the sk-strings module.  Unlike sk-strings it ignores frequencies entirely,
which is why the paper's line of work preferred the stochastic learner:
a single erroneous trace distorts k-tails as much as a thousand correct
ones.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.lang.traces import Trace
from repro.learners.prefix_tree import PrefixTree
from repro.learners.sk_strings import LearnedFA, _Merger
from repro.robustness.errors import InputError


def _tail_set(
    merger: _Merger, state: int, k: int, cache: dict[tuple[int, int], frozenset]
) -> frozenset:
    """Accepted strings of length ≤ k out of ``state`` (with memoization)."""
    state = merger.find(state)
    key = (state, k)
    if key in cache:
        return cache[key]
    tails: set[tuple[str, ...]] = set()
    if merger.stops[state] > 0:
        tails.add(())
    if k > 0:
        for sym, target in merger.succ[state].items():
            for tail in _tail_set(merger, target, k - 1, cache):
                tails.add((sym,) + tail)
    result = frozenset(tails)
    cache[key] = result
    return result


def learn_k_tails(traces: Iterable[Trace], k: int = 2) -> LearnedFA:
    """Learn an FA by merging k-tails-equivalent PTA states."""
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    tree = PrefixTree.from_traces(traces)
    if tree.visits[0] == 0:
        raise InputError("cannot learn from an empty trace set")
    merger = _Merger(tree)
    changed = True
    while changed:
        changed = False
        cache: dict[tuple[int, int], frozenset] = {}
        roots = sorted({merger.find(n) for n in range(tree.num_nodes)})
        groups: dict[frozenset, int] = {}
        for state in roots:
            tails = _tail_set(merger, state, k, cache)
            keeper = groups.get(tails)
            if keeper is None:
                groups[tails] = state
            elif merger.find(keeper) != merger.find(state):
                merger.merge(keeper, state)
                changed = True
    return merger.to_learned_fa()
