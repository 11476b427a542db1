"""Coring: dropping low-frequency transitions.

This is the naive specification-debugging mechanism of the prior
specification-mining work, kept both because Strauss's back end applies it
and because ablation A5 compares it against Cable-style labeling.  The
paper's Section 6 notes its weakness: "some buggy traces occurred so
frequently that suppressing them ... would also suppress valid traces" —
the A5 benchmark reproduces exactly that failure mode.
"""

from __future__ import annotations

from collections import deque

from repro.fa.automaton import FA
from repro.learners.sk_strings import LearnedFA
from repro.robustness.errors import InputError


def core_fa(learned: LearnedFA, min_fraction: float = 0.05) -> FA:
    """Drop transitions observed by fewer than ``min_fraction`` of traces.

    The threshold is relative to the number of training traces (the visit
    count of the initial state).  After dropping, states that become
    unreachable from the initial states, or from which no accepting state
    is reachable, are removed as well.
    """
    if not 0.0 <= min_fraction <= 1.0:
        raise InputError(f"min_fraction must be in [0, 1], got {min_fraction}")
    fa = learned.fa
    total = max(learned.state_visits[0], 1) if learned.state_visits else 1
    threshold = min_fraction * total
    kept = [
        t
        for t, count in zip(fa.transitions, learned.transition_counts)
        if count >= threshold
    ]

    # Forward reachability from initial states.
    forward: set = set(fa.initial)
    queue = deque(forward)
    by_src: dict = {}
    for t in kept:
        by_src.setdefault(t.src, []).append(t)
    while queue:
        state = queue.popleft()
        for t in by_src.get(state, []):
            if t.dst not in forward:
                forward.add(t.dst)
                queue.append(t.dst)

    # Backward reachability from accepting states.
    backward: set = set(fa.accepting)
    queue = deque(backward)
    by_dst: dict = {}
    for t in kept:
        by_dst.setdefault(t.dst, []).append(t)
    while queue:
        state = queue.popleft()
        for t in by_dst.get(state, []):
            if t.src not in backward:
                backward.add(t.src)
                queue.append(t.src)

    live = forward & backward
    states = [s for s in fa.states if s in live]
    if not states:
        # Everything was cored away; keep a single vacuous state so the
        # result is still a valid (empty-language) automaton.
        return FA(["q0"], ["q0"], [], [])
    transitions = [t for t in kept if t.src in live and t.dst in live]
    return FA(
        states,
        [s for s in fa.initial if s in live],
        [s for s in fa.accepting if s in live],
        transitions,
    )
