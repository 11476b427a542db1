"""Spec-diff: language-level comparison of two specification FAs.

The lint passes of :mod:`repro.analysis.fa_passes` check one automaton's
*syntactic* health; this module answers the semantic question a spec
author actually has after mining, repairing, or focusing: *do these two
automata accept the same language, and if not, show me a trace that
tells them apart*.  The machinery is the product construction of
:mod:`repro.fa.ops` — each disagreement direction is witnessed by a
shortest string found by BFS over the product of one FA with the
other's complement, so the witness is as small as the disagreement
allows and deterministic (stable fingerprints).

Codes (documented with examples in ``docs/static-analysis.md``):

====== ======== ==========================================================
SEM001 error    witness trace accepted by the left spec only
SEM002 error    witness trace accepted by the right spec only
SEM003 warning  symbol occurs in accepted strings of exactly one side
SEM004 warning  semantically dead transition: removing it leaves the
                language unchanged (checked against the minimized
                quotient; distinct from FA003's reachability-dead case)
SEM005 info     the two languages are equal
SEM006 info     strict containment (one language refines the other)
====== ======== ==========================================================

Everything is span-instrumented (``semantic.diff``) and budget-aware:
pass a :class:`~repro.robustness.budget.Budget` and the per-transition
equivalence checks raise
:class:`~repro.robustness.errors.BudgetExceeded` (carrying the dead
transitions found so far as checkpoint) when the wall clock trips.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro import obs
from repro.analysis.diagnostics import Diagnostic, LintReport, Location
from repro.fa.automaton import FA, State
from repro.fa.ops import (
    _moore_minimize,
    dfa_from_fa,
    dfa_to_fa,
    language_subset,
    subset_counterexample,
)
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded

#: The four possible language relations between left and right.
RELATIONS = ("equal", "subset", "superset", "incomparable")


def render_witness(witness: Sequence[str] | None) -> str:
    """Human rendering of a witness symbol string (``ε`` for empty)."""
    if witness is None:
        return "(none)"
    if not witness:
        return "ε (the empty trace)"
    return "; ".join(witness)


def live_alphabet(fa: FA) -> frozenset[str]:
    """Symbols occurring in at least one *accepted* string of ``fa``.

    Computed off the minimized quotient: minimization drops unreachable
    and dead states, so every surviving transition lies on an accepting
    path and its symbol genuinely occurs in the language.  This is the
    semantic counterpart of :meth:`FA.symbols`, which also counts
    symbols only reachable on doomed paths.
    """
    dfa = dfa_from_fa(fa)
    return _moore_minimize(dfa, dfa.alphabet()).alphabet()


def semantically_dead_transitions(
    fa: FA, budget: Budget | None = None
) -> list[int]:
    """Indices of transitions removable without changing the language.

    A transition can be reachability-live (FA003 does not fire) yet
    contribute nothing to the language because every string it helps
    accept has another accepting path.  Candidates are the
    reachability-live transitions; each is confirmed by mapping the FA
    onto its minimized quotient and checking that the quotient language
    survives the removal (``L(min(fa)) ⊆ L(fa - t)``; the reverse
    inclusion is free since removal only shrinks an NFA's language).

    ``budget`` bounds the per-transition product checks by wall clock;
    on a trip, :class:`~repro.robustness.errors.BudgetExceeded` carries
    the indices confirmed so far as its checkpoint.
    """
    # Imported here to reuse lint's reachability helper without making
    # the two pass modules import each other at module load.
    from repro.analysis.fa_passes import live_transitions

    candidates = sorted(live_transitions(fa))
    if not candidates:
        return []
    dfa = dfa_from_fa(fa)
    quotient = dfa_to_fa(_moore_minimize(dfa, dfa.alphabet()))
    meter = budget.meter() if budget is not None else None
    dead: list[int] = []
    for checked, index in enumerate(candidates):
        if meter is not None:
            violation = meter.violation(num_objects=checked, num_concepts=0)
            if violation is not None:
                dimension, limit, value = violation
                raise BudgetExceeded(
                    "semantic dead-transition analysis ran over budget",
                    checkpoint=dead,
                    dimension=dimension,
                    limit=limit,
                    value=value,
                    checked=checked,
                    candidates=len(candidates),
                )
        pruned = fa.with_transitions(
            [t for j, t in enumerate(fa.transitions) if j != index]
        )
        if language_subset(quotient, pruned):
            dead.append(index)
    return dead


def run_semantic_fa_passes(
    fa: FA, budget: Budget | None = None
) -> list[Diagnostic]:
    """The single-automaton semantic passes (currently SEM004)."""
    out = []
    for index in semantically_dead_transitions(fa, budget=budget):
        out.append(
            Diagnostic(
                code="SEM004",
                severity="warning",
                location=Location.transition(index),
                message=(
                    f"transition {fa.describe_transition(index)} is "
                    "semantically dead: removing it does not change the "
                    "accepted language"
                ),
                suggestion=(
                    "drop the transition; every trace it accepts has "
                    "another accepting path"
                ),
            )
        )
    return out


def shortest_accepting_completion(
    fa: FA, start_states: Iterable[State]
) -> tuple[str, ...] | None:
    """Shortest label sequence from any of ``start_states`` to acceptance.

    BFS over the FA's state graph (bindings are ignored, so the result
    is a may-approximation: a completion that exists structurally but
    might demand specific argument values).  ``()`` when a start state
    already accepts; ``None`` when no accepting state is reachable.
    Used by :mod:`repro.verify.explain` to attach a witness trace — the
    shortest way the lifecycle *could* have ended correctly — to each
    violation explanation.
    """
    starts = [s for s in fa.states if s in set(start_states)]
    if any(s in fa.accepting for s in starts):
        return ()
    back: dict[State, tuple[State, str]] = {}
    seen = set(starts)
    queue = deque(starts)
    while queue:
        state = queue.popleft()
        for _, t in fa.outgoing(state):
            if t.dst in seen:
                continue
            seen.add(t.dst)
            back[t.dst] = (state, str(t.pattern))
            if t.dst in fa.accepting:
                symbols: list[str] = []
                node: State = t.dst
                while node not in starts:
                    node, sym = back[node]
                    symbols.append(sym)
                return tuple(reversed(symbols))
            queue.append(t.dst)
    return None


@dataclass(frozen=True)
class SpecDiff:
    """The result of one language-level comparison.

    ``relation`` classifies L(left) against L(right): ``equal``,
    ``subset`` (strictly contained in right), ``superset``, or
    ``incomparable``.  ``left_only``/``right_only`` are shortest
    witness strings accepted by exactly that side (``None`` when the
    corresponding inclusion holds).  ``report`` carries the SEM
    diagnostics for rendering, JSON output and baseline gating.
    """

    left: str
    right: str
    relation: str
    left_only: tuple[str, ...] | None
    right_only: tuple[str, ...] | None
    report: LintReport

    @property
    def equal(self) -> bool:
        return self.relation == "equal"

    def to_dict(self) -> dict[str, object]:
        return {
            "left": self.left,
            "right": self.right,
            "relation": self.relation,
            "left_only_witness": (
                list(self.left_only) if self.left_only is not None else None
            ),
            "right_only_witness": (
                list(self.right_only) if self.right_only is not None else None
            ),
            "report": self.report.to_dict(),
        }

    def render_text(self) -> str:
        lines = [
            f"spec diff: {self.left} vs {self.right}",
            f"  relation: {self._relation_sentence()}",
        ]
        if self.left_only is not None:
            lines.append(
                f"  accepted only by {self.left}: "
                f"{render_witness(self.left_only)}"
            )
        if self.right_only is not None:
            lines.append(
                f"  accepted only by {self.right}: "
                f"{render_witness(self.right_only)}"
            )
        lines.append(self.report.render_text())
        return "\n".join(lines)

    def _relation_sentence(self) -> str:
        if self.relation == "equal":
            return "the languages are equal"
        if self.relation == "subset":
            return f"L({self.left}) ⊂ L({self.right}) (strict refinement)"
        if self.relation == "superset":
            return f"L({self.left}) ⊃ L({self.right}) (strict generalization)"
        return "the languages are incomparable (each accepts traces the other rejects)"


def classify_relation(
    left_only: tuple[str, ...] | None, right_only: tuple[str, ...] | None
) -> str:
    """The containment verdict from the two witness directions."""
    if left_only is None and right_only is None:
        return "equal"
    if left_only is None:
        return "subset"
    if right_only is None:
        return "superset"
    return "incomparable"


def diff_fas(
    left_fa: FA,
    right_fa: FA,
    left: str = "left",
    right: str = "right",
    *,
    dead_transitions: bool = True,
    budget: Budget | None = None,
) -> SpecDiff:
    """Compare two specification FAs at the language level.

    Classifies the containment relation, extracts a shortest witness
    trace for each direction of disagreement, flags symbols that occur
    in the accepted strings of only one side (SEM003), and — unless
    ``dead_transitions=False`` — flags semantically dead transitions on
    both sides (SEM004).  Typical pairings: mined vs template FA, the
    pre- vs post-repair spec, a re-mined spec vs the catalog's ground
    truth.
    """
    target = f"diff:{left}..{right}"
    with obs.span("semantic.diff", left=left, right=right) as span:
        left_only = subset_counterexample(left_fa, right_fa)
        right_only = subset_counterexample(right_fa, left_fa)
        relation = classify_relation(left_only, right_only)
        span.set(relation=relation)

        diagnostics: list[Diagnostic] = []
        if left_only is not None:
            diagnostics.append(
                Diagnostic(
                    code="SEM001",
                    severity="error",
                    location=Location.witness("left"),
                    message=(
                        f"trace accepted by {left} but rejected by {right}: "
                        f"{render_witness(left_only)}"
                    ),
                )
            )
        if right_only is not None:
            diagnostics.append(
                Diagnostic(
                    code="SEM002",
                    severity="error",
                    location=Location.witness("right"),
                    message=(
                        f"trace accepted by {right} but rejected by {left}: "
                        f"{render_witness(right_only)}"
                    ),
                )
            )

        left_alpha = live_alphabet(left_fa)
        right_alpha = live_alphabet(right_fa)
        for symbol in sorted(left_alpha ^ right_alpha):
            side = left if symbol in left_alpha else right
            other = right if symbol in left_alpha else left
            diagnostics.append(
                Diagnostic(
                    code="SEM003",
                    severity="warning",
                    location=Location.symbol(symbol),
                    message=(
                        f"symbol {symbol!r} occurs in accepted traces of "
                        f"{side} but in none of {other}"
                    ),
                )
            )

        if dead_transitions:
            for side, fa in ((left, left_fa), (right, right_fa)):
                for index in semantically_dead_transitions(fa, budget=budget):
                    diagnostics.append(
                        Diagnostic(
                            code="SEM004",
                            severity="warning",
                            location=Location("transition", f"{side}:{index}"),
                            message=(
                                f"{side} transition "
                                f"{fa.describe_transition(index)} is "
                                "semantically dead (removable without "
                                "changing the language)"
                            ),
                        )
                    )

        if relation == "equal":
            diagnostics.append(
                Diagnostic(
                    code="SEM005",
                    severity="info",
                    location=Location.whole_fa(),
                    message=(
                        f"{left} and {right} accept exactly the same "
                        "language"
                    ),
                )
            )
        elif relation in ("subset", "superset"):
            refined, general = (
                (left, right) if relation == "subset" else (right, left)
            )
            diagnostics.append(
                Diagnostic(
                    code="SEM006",
                    severity="info",
                    location=Location.whole_fa(),
                    message=(
                        f"every trace {refined} accepts is also accepted by "
                        f"{general} (strict refinement)"
                    ),
                )
            )
        span.set(diagnostics=len(diagnostics))
        obs.inc("semantic.diffs")
    return SpecDiff(
        left=left,
        right=right,
        relation=relation,
        left_only=left_only,
        right_only=right_only,
        report=LintReport(target, tuple(diagnostics)),
    )


__all__ = [
    "RELATIONS",
    "SpecDiff",
    "classify_relation",
    "diff_fas",
    "live_alphabet",
    "render_witness",
    "run_semantic_fa_passes",
    "semantically_dead_transitions",
    "shortest_accepting_completion",
]
