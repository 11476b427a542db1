"""Template reference automata for Cable's Focus command (Section 4.1).

When the inferred FA induces a lattice that is too fine, too coarse, or not
well-formed, the user re-clusters a concept's traces under a template FA:

* **Unordered** — ``(event0 | event1 | ... | eventn)*``: distinguishes
  traces only by *which* events they execute, ignoring order entirely.
* **Name projection** — loops on the events that refer to a single name
  ``X`` plus a wildcard loop for everything else: checks correctness with
  respect to one name at a time.
* **Seed order** — ``(events)* ; seed ; (events)*``: distinguishes traces
  by which events appear before vs. after (the first occurrence of) a
  designated *seed* event, the only ordering the template tracks, so the
  concept lattice stays small.

All three accept every trace over their event set — the key property
Step 1a requires of a reference FA is only that erroneous and correct
traces execute *different sets of transitions*.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.fa.automaton import FA, Transition
from repro.lang.events import EventPattern, WILDCARD_SYMBOL, parse_pattern
from repro.robustness.errors import InputError


def _as_patterns(events: Iterable[str | EventPattern]) -> list[EventPattern]:
    patterns = []
    for e in events:
        patterns.append(parse_pattern(e) if isinstance(e, str) else e)
    return patterns


def unordered_fa(events: Iterable[str | EventPattern]) -> FA:
    """The Unordered template: one state, one self-loop per event.

    Induces the coarsest useful similarity — traces are alike exactly when
    they contain the same event kinds (Figure 4's "very small FA").
    """
    patterns = _as_patterns(events)
    transitions = [Transition("q0", p, "q0") for p in patterns]
    return FA(["q0"], ["q0"], ["q0"], transitions)


def name_projection_fa(
    events: Iterable[str | EventPattern], variable: str = "X"
) -> FA:
    """The Name-projection template for ``variable``.

    Keeps the self-loops for the event patterns that mention ``variable``
    and adds one wildcard self-loop that absorbs every other event, so the
    lattice only distinguishes behaviour with respect to that one name.
    """
    patterns = _as_patterns(events)
    kept = [p for p in patterns if variable in p.variables()]
    if not kept:
        raise InputError(
            "no event pattern mentions the variable", variable=variable
        )
    transitions = [Transition("q0", p, "q0") for p in kept]
    transitions.append(Transition("q0", EventPattern(WILDCARD_SYMBOL), "q0"))
    return FA(["q0"], ["q0"], ["q0"], transitions)


def seed_order_fa(
    events: Iterable[str | EventPattern], seed: str | EventPattern
) -> FA:
    """The Seed-order template.

    Two states: ``pre`` loops on every non-seed event; the (first) seed
    event moves to ``post``, which loops on every event including further
    seeds.  Both states accept, so traces without the seed are accepted
    too.  Transitions therefore record which events a trace executes
    *before* its first seed and which it executes *after*.
    """
    seed_pattern = parse_pattern(seed) if isinstance(seed, str) else seed
    patterns = _as_patterns(events)
    transitions = [
        Transition("pre", p, "pre") for p in patterns if p != seed_pattern
    ]
    transitions.append(Transition("pre", seed_pattern, "post"))
    transitions.extend(Transition("post", p, "post") for p in patterns)
    if seed_pattern not in patterns:
        transitions.append(Transition("post", seed_pattern, "post"))
    return FA(["pre", "post"], ["pre"], ["pre", "post"], transitions)
