"""Specification models: the synthetic stand-in for X11 API usage.

A :class:`SpecModel` describes one temporal specification's world:

* **behaviors** — the distinct per-object event sequences that occur in
  the wild, each flagged good (legal API usage) or bad (a bug the paper's
  corpus contained: leaks, double frees, races, performance bugs);
* the **ground truth**: the debugged specification accepts exactly the
  good behaviors, so the reference labeling an expert would produce is
  acceptance by the ground-truth automaton;
* **generator parameters** — how many object instances to plant across
  how many program traces, how behaviors are weighted, and what unrelated
  noise events surround them;
* the **reference-FA policy** — which FA the Cable session clusters
  under: the mined FA (Section 2.2's default), or one of the Focus
  templates (Section 4.1) when the expert would have chosen one.

Behaviors are sequences of event *symbols*; every event of an instance
applies to that instance's object, which is the per-object world the
paper's specifications quantify over.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from repro.fa.automaton import FA
from repro.fa.templates import seed_order_fa, unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.learners.prefix_tree import PrefixTree
from repro.learners.sk_strings import learn_sk_strings


@dataclass(frozen=True)
class Behavior:
    """One distinct per-object event sequence, with its verdict and how
    often it occurs relative to its siblings."""

    symbols: tuple[str, ...]
    good: bool
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("empty behavior")
        if self.weight <= 0:
            raise ValueError("behavior weight must be positive")

    def events(self, obj: str) -> tuple[Event, ...]:
        """The behavior instantiated on a concrete object id."""
        return tuple(Event(sym, (obj,)) for sym in self.symbols)

    def trace(self, obj: str = "X") -> Trace:
        return Trace(self.events(obj))


@dataclass(frozen=True)
class SpecModel:
    """One of the evaluation's specifications (a Table 1 row)."""

    name: str
    description: str
    behaviors: tuple[Behavior, ...]
    #: "mined" (default), "unordered", "seed:<symbol>", or "custom" (use
    #: ``custom_reference``).
    reference_kind: str = "mined"
    #: Builder for a hand-chosen reference FA — the expert's Focus choice
    #: when templates and the mined FA both distinguish the wrong things
    #: (Section 4.1 allows arbitrary FAs whose transitions are wildcards
    #: or events of interest).
    custom_reference: Callable[[], "FA"] | None = None
    #: sk-strings parameters used when reference_kind == "mined" and for
    #: the Table 1 re-mined specification.
    mine_k: int = 2
    mine_s: float = 1.0
    n_programs: int = 10
    #: total behavior instances to plant (≥ len(behaviors); every behavior
    #: occurs at least once).
    n_instances: int = 0
    noise_symbols: tuple[str, ...] = ()
    noise_rate: float = 0.15
    #: Table 1's published FA size, when the spec is named in the paper.
    paper_states: int | None = None
    paper_transitions: int | None = None
    reconstructed: bool = False

    def __post_init__(self) -> None:
        if not self.behaviors:
            raise ValueError(f"spec {self.name} has no behaviors")
        seqs = [b.symbols for b in self.behaviors]
        if len(set(seqs)) != len(seqs):
            raise ValueError(f"spec {self.name} has duplicate behaviors")
        if not any(b.good for b in self.behaviors):
            raise ValueError(f"spec {self.name} has no good behavior")
        if self.n_instances and self.n_instances < len(self.behaviors):
            raise ValueError(
                f"spec {self.name}: n_instances < number of behaviors"
            )

    # ------------------------------------------------------------------ #
    # derived facts
    # ------------------------------------------------------------------ #

    @property
    def num_behaviors(self) -> int:
        return len(self.behaviors)

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(sym for b in self.behaviors for sym in b.symbols)

    @property
    def seeds(self) -> frozenset[str]:
        """Scenario seeds: every spec symbol anchors a scenario, so even
        behaviors missing their creation event are extracted."""
        return self.symbols

    @cached_property
    def ground_truth(self) -> FA:
        """The debugged specification: accepts exactly the good behaviors.

        Built as the prefix-tree acceptor of the good sequences, so
        ``ground_truth.accepts(scenario)`` is the oracle label.
        """
        good = [b.trace() for b in self.behaviors if b.good]
        return PrefixTree.from_traces(good).to_fa()

    def oracle_label(self, scenario: Trace) -> str:
        """The reference label of a standardized scenario trace."""
        return "good" if self.ground_truth.accepts(scenario) else "bad"

    # ------------------------------------------------------------------ #
    # reference FA for clustering
    # ------------------------------------------------------------------ #

    def reference_fa(self, scenarios: Sequence[Trace]) -> FA:
        """The FA the Cable session clusters under (Step 1a).

        ``mined`` learns from the scenarios with sk-strings (the default
        starting point of Section 2.2); the template kinds model an expert
        who focused with one of Section 4.1's templates.
        """
        if self.reference_kind == "mined":
            return learn_sk_strings(scenarios, k=self.mine_k, s=self.mine_s).fa
        if self.reference_kind == "custom":
            if self.custom_reference is None:
                raise ValueError(
                    f"spec {self.name}: reference_kind='custom' needs "
                    "custom_reference"
                )
            return self.custom_reference()
        patterns = sorted(f"{sym}(X)" for sym in self.symbols)
        if self.reference_kind == "unordered":
            return unordered_fa(patterns)
        if self.reference_kind.startswith("seed:"):
            seed_symbol = self.reference_kind.split(":", 1)[1]
            if seed_symbol not in self.symbols:
                raise ValueError(
                    f"spec {self.name}: seed symbol {seed_symbol!r} unknown"
                )
            return seed_order_fa(patterns, f"{seed_symbol}(X)")
        raise ValueError(
            f"spec {self.name}: unknown reference kind {self.reference_kind!r}"
        )

    # ------------------------------------------------------------------ #
    # the Table 1 artifact
    # ------------------------------------------------------------------ #

    def debugged_fa(self) -> FA:
        """The specification as Table 1 reports it: re-mined from the good
        behaviors with the spec's sk-strings parameters (generalizing, so
        repetition families become loops).  Learned on the first call and
        kept: the behaviors are fixed, and an :class:`FA` is immutable."""
        return self._debugged_fa

    @cached_property
    def _debugged_fa(self) -> FA:
        good = [b.trace() for b in self.behaviors if b.good]
        return learn_sk_strings(good, k=self.mine_k, s=self.mine_s).fa


def make_behaviors(
    good: Iterable[Sequence[str]],
    bad: Iterable[Sequence[str]],
    good_weight: float = 4.0,
    bad_weight: float = 1.0,
) -> tuple[Behavior, ...]:
    """Bundle good/bad sequences into behaviors.

    Good behaviors default to a higher weight: bugs are the minority in
    real corpora (yet — as the paper stresses against frequency-based
    coring — some bugs are frequent, which individual specs override).
    """
    out = [Behavior(tuple(seq), good=True, weight=good_weight) for seq in good]
    out.extend(Behavior(tuple(seq), good=False, weight=bad_weight) for seq in bad)
    return tuple(out)
