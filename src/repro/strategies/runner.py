"""Running every strategy on one clustering: the Table 3 harness.

For the nondeterministic strategies the paper reports the *lowest* cost of
Top-down and Bottom-up and the *mean of 1024 trials* for Random; this
module reproduces those measurement rules and collects everything into a
:class:`StrategyTable` row.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro import obs
from repro.core.trace_clustering import TraceClustering
from repro.strategies.base import LabelMasks, StuckError, reference_labeling_from_fa
from repro.strategies.baseline import baseline_cost
from repro.strategies.bottomup import bottom_up_strategy
from repro.strategies.expert import expert_strategy
from repro.strategies.optimal import optimal_cost
from repro.strategies.random_strategy import random_strategy_mean
from repro.strategies.topdown import top_down_strategy
from repro.util.rng import make_rng


@dataclass(frozen=True)
class StrategyTable:
    """One row of Table 3 (costs; ``None`` = could not be measured)."""

    name: str
    expert: int | None
    baseline: int
    top_down: int | None
    bottom_up: int | None
    random_mean: float | None
    optimal: int | None

    def as_row(self) -> list[object]:
        return [
            self.name,
            self.expert,
            self.baseline,
            self.top_down,
            self.bottom_up,
            self.random_mean,
            self.optimal,
        ]

    HEADERS = (
        "specification",
        "Expert",
        "Baseline",
        "Top-down",
        "Bottom-up",
        "Random",
        "Optimal",
    )


def best_of(strategy, lattice, reference, trials: int, seed: int | str) -> int | None:
    """Lowest observed cost over ``trials`` runs (None if stuck).

    The first run uses the deterministic (unshuffled) visiting order;
    the rest shuffle tie-breaking, mirroring the paper's "lowest cost"
    measurement rule for the nondeterministic strategies.
    """
    rng = make_rng(seed)
    best: int | None = None
    for trial in range(trials):
        try:
            cost = strategy(lattice, reference, None if trial == 0 else rng).cost
        except StuckError:
            return None
        if best is None or cost < best:
            best = cost
    return best


def evaluate_strategies(
    clustering: TraceClustering,
    reference: Mapping[int, str],
    name: str = "spec",
    random_trials: int = 1024,
    shuffle_trials: int = 16,
    optimal_max_states: int = 200_000,
    optimal_max_objects: int | None = None,
    seed: int | str = "table3",
) -> StrategyTable:
    """Measure every Table 3 method on one specification's clustering.

    ``optimal_max_objects`` declines the exact Optimal search outright
    for clusterings above the given class count — the Table 3 benchmark
    uses it to reproduce the paper's "we were unable to measure ... for
    the four largest specifications".
    """
    lattice = clustering.lattice
    # Checked and grouped by label once, for every run below.
    masks = LabelMasks(lattice, reference)

    with obs.span("strategy.expert", spec=name):
        try:
            expert = expert_strategy(lattice, masks).cost
        except StuckError:
            expert = None
    baseline = baseline_cost(clustering.num_objects).cost
    with obs.span("strategy.top_down", spec=name):
        top_down = best_of(
            top_down_strategy, lattice, masks, shuffle_trials, f"{seed}-td"
        )
    with obs.span("strategy.bottom_up", spec=name):
        bottom_up = best_of(
            bottom_up_strategy, lattice, masks, shuffle_trials, f"{seed}-bu"
        )
    with obs.span("strategy.random", spec=name, trials=random_trials):
        try:
            random_mean = random_strategy_mean(
                lattice, masks, trials=random_trials, seed=f"{seed}-rnd"
            )
        except StuckError:
            random_mean = None
    if (
        optimal_max_objects is not None
        and clustering.num_objects > optimal_max_objects
    ):
        optimal = None
    else:
        with obs.span("strategy.optimal", spec=name):
            optimal = optimal_cost(
                lattice, masks, max_states=optimal_max_states
            )

    return StrategyTable(
        name=name,
        expert=expert,
        baseline=baseline,
        top_down=top_down,
        bottom_up=bottom_up,
        random_mean=random_mean,
        optimal=optimal,
    )


def reference_from_ground_truth(clustering: TraceClustering, ground_truth) -> dict[int, str]:
    """Reference labeling of a clustering's classes via the correct spec."""
    return reference_labeling_from_fa(
        list(clustering.representatives), ground_truth
    )
