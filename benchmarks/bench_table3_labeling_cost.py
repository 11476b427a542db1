"""Table 3: the cost of labeling, by method.

Per specification: Expert (simulated, including the Step 2b verification
operations), Baseline (2 × identical-trace classes), best-of Top-down,
best-of Bottom-up, Random (mean of trials), and the exact Optimal search.

Measurement rules follow Section 5.3: lowest observed cost for the
nondeterministic Top-down/Bottom-up, arithmetic-mean Random (the paper
used 1024 trials; set ``REPRO_RANDOM_TRIALS=1024`` to match exactly —
the default here is 128 to keep the benchmark run short), and the exact
Optimal is declined for the four largest specifications, as in the paper.
The committed ``table3_labeling_cost.txt`` holds the default setting; any
other trial count writes ``table3_labeling_cost_<N>_trials.txt``, which
is not tracked.

In-text claims verified here:

* Cable (Expert) needs < 1/3 of the Baseline's decisions overall;
* XtFree ≈ 28 vs ≈ 224;
* Top-down and Random beat Baseline except on XGetSelOwner and XPutImage.
"""

import os


from benchmarks.conftest import report
from repro.strategies.expert import expert_strategy
from repro.strategies.runner import StrategyTable, evaluate_strategies
from repro.util.tables import format_table
from repro.workloads.pipeline import cached_run
from repro.workloads.specs_catalog import FOUR_LARGEST, SPEC_CATALOG

DEFAULT_RANDOM_TRIALS = 128
RANDOM_TRIALS = int(os.environ.get("REPRO_RANDOM_TRIALS", DEFAULT_RANDOM_TRIALS))


def test_table3(benchmark):
    def build_tables():
        tables = []
        for spec in SPEC_CATALOG:
            run = cached_run(spec.name)
            tables.append(
                evaluate_strategies(
                    run.clustering,
                    run.reference_labeling,
                    name=spec.name,
                    random_trials=RANDOM_TRIALS,
                    shuffle_trials=8,
                    optimal_max_states=50_000,
                    optimal_max_objects=40,
                )
            )
        return tables

    tables = benchmark.pedantic(build_tables, rounds=1, iterations=1)
    rows = [t.as_row() for t in tables]
    text = format_table(
        StrategyTable.HEADERS,
        rows,
        title=(
            "Table 3: cost of labeling by method "
            f"(Random = mean of {RANDOM_TRIALS} trials; '-' = not measured, "
            "as in the paper for the four largest specs)"
        ),
    )
    summary = [
        "",
        "aggregate decisions: "
        f"Expert {sum(t.expert for t in tables)} vs "
        f"Baseline {sum(t.baseline for t in tables)} "
        f"(ratio {sum(t.expert for t in tables) / sum(t.baseline for t in tables):.3f}; "
        "paper claims < 1/3)",
    ]
    name = "table3_labeling_cost"
    if RANDOM_TRIALS != DEFAULT_RANDOM_TRIALS:
        name += f"_{RANDOM_TRIALS}_trials"
    report(name, text + "\n" + "\n".join(summary))

    by_name = {t.name: t for t in tables}
    # Headline claims.
    assert sum(t.expert for t in tables) * 3 < sum(t.baseline for t in tables)
    assert 24 <= by_name["XtFree"].expert <= 34
    assert 200 <= by_name["XtFree"].baseline <= 260
    for name in FOUR_LARGEST:
        assert by_name[name].optimal is None
    for t in tables:
        if t.name in FOUR_LARGEST or t.name in ("XGetSelOwner", "XPutImage"):
            continue
        assert t.top_down < t.baseline, t.name
        assert t.random_mean < t.baseline, t.name


def test_bench_expert_strategy_xtfree(benchmark):
    run = cached_run("XtFree")
    benchmark(expert_strategy, run.clustering.lattice, run.reference_labeling)
