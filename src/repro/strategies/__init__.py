"""Labeling strategies and the Section 4.2 cost model.

A strategy chooses which concepts to inspect and label, given a *reference
labeling* (the labels an oracle would assign); its cost is the number of
Cable operations — inspections plus labelings — needed to reproduce that
labeling.  Strategies may not label a concept without inspecting it first.

Implemented: Top-down, Bottom-up, Random (mean over trials), Optimal
(exact search with a budget), the Expert simulation, and the Baseline
(inspect + label each identical-trace class separately).
"""

from repro.strategies.base import (
    LabelingSimulator,
    LabelMasks,
    StrategyOutcome,
    StuckError,
    reference_labeling_from_fa,
)
from repro.strategies.baseline import baseline_cost
from repro.strategies.bottomup import bottom_up_strategy
from repro.strategies.expert import expert_strategy
from repro.strategies.optimal import optimal_strategy
from repro.strategies.random_strategy import random_strategy, random_strategy_mean
from repro.strategies.runner import StrategyTable, evaluate_strategies
from repro.strategies.topdown import top_down_strategy

__all__ = [
    "LabelMasks",
    "LabelingSimulator",
    "StrategyOutcome",
    "StrategyTable",
    "StuckError",
    "baseline_cost",
    "bottom_up_strategy",
    "evaluate_strategies",
    "expert_strategy",
    "optimal_strategy",
    "random_strategy",
    "random_strategy_mean",
    "reference_labeling_from_fa",
    "top_down_strategy",
]
