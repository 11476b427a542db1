"""The paper's in-text evaluation claims, verified against our pipeline.

These are the quantitative statements scattered through the text (the
table contents themselves are not present in our copy of the paper; see
EXPERIMENTS.md).  This module is the executable form of that checklist.
It runs the strategies under the Table 3 benchmark's settings, so besides
the in-text ranges it pins every row of the committed Table 3 exactly, and
it pins the size of every re-mined specification in the committed Table 1.
"""

import re
from pathlib import Path

import pytest

from repro.core.wellformed import is_well_formed
from repro.strategies.runner import StrategyTable, evaluate_strategies
from repro.util.tables import format_table
from repro.workloads.pipeline import cached_run
from repro.workloads.specs_catalog import FOUR_LARGEST, SPEC_CATALOG

RESULTS_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
TABLE1_FILE = RESULTS_DIR / "table1_specifications.txt"
TABLE3_FILE = RESULTS_DIR / "table3_labeling_cost.txt"


def _table1_sizes() -> dict[str, tuple[int, int]]:
    """``spec name -> (states, transitions)`` from the committed Table 1."""
    lines = TABLE1_FILE.read_text().splitlines()
    rule_at = next(i for i, line in enumerate(lines) if line.startswith("------"))
    sizes = {}
    for line in lines[rule_at + 1 :]:
        name, states, transitions, _ = re.split(r"\s{2,}", line, maxsplit=3)
        sizes[name.removesuffix(" *")] = (int(states), int(transitions))
    return sizes


@pytest.fixture(scope="module")
def tables():
    out = {}
    for spec in SPEC_CATALOG:
        run = cached_run(spec.name)
        out[spec.name] = (
            run,
            evaluate_strategies(
                run.clustering,
                run.reference_labeling,
                name=spec.name,
                random_trials=128,
                shuffle_trials=8,
                optimal_max_states=50_000,
                optimal_max_objects=40,
            ),
        )
    return out


class TestHeadlineClaims:
    def test_xtfree_cable_about_28_baseline_about_224(self, tables):
        _, t = tables["XtFree"]
        assert 24 <= t.expert <= 34  # paper: 28
        assert 200 <= t.baseline <= 260  # paper: 224

    def test_cable_under_one_third_of_baseline_overall(self, tables):
        total_expert = sum(t.expert for _, t in tables.values())
        total_baseline = sum(t.baseline for _, t in tables.values())
        assert total_expert * 3 < total_baseline

    def test_regionsbig_much_easier_but_still_costly(self, tables):
        _, t = tables["RegionsBig"]
        assert 120 <= t.expert <= 180  # paper: 149
        assert t.expert * 2 < t.baseline

    def test_xsetfont_just_barely_easier(self, tables):
        _, t = tables["XSetFont"]
        assert t.expert < t.baseline
        assert t.expert >= 0.9 * t.baseline

    def test_expert_never_much_worse_than_baseline(self, tables):
        for name, (_, t) in tables.items():
            assert t.expert <= t.baseline + 4, name


class TestTable3Pinned:
    """Every cell of ``benchmarks/results/table3_labeling_cost.txt``,
    Random means included, must come out of the strategies unchanged."""

    def test_rows_match_committed_table(self, tables):
        committed = TABLE3_FILE.read_text().splitlines()
        header_at = next(
            i for i, line in enumerate(committed) if line.startswith("specification")
        )
        rendered = format_table(
            StrategyTable.HEADERS,
            [tables[spec.name][1].as_row() for spec in SPEC_CATALOG],
        ).splitlines()
        expected = committed[header_at : header_at + len(rendered)]
        assert rendered == expected

    def test_aggregate_line_matches_committed_table(self, tables):
        expert = sum(t.expert for _, t in tables.values())
        baseline = sum(t.baseline for _, t in tables.values())
        line = (
            f"aggregate decisions: Expert {expert} vs Baseline {baseline} "
            f"(ratio {expert / baseline:.3f}; paper claims < 1/3)"
        )
        assert TABLE3_FILE.read_text().splitlines()[-1] == line


class TestTable1Pinned:
    """Every row of ``benchmarks/results/table1_specifications.txt``: the
    debugged FA re-mined from each spec's good behaviors keeps its size."""

    def test_rows_cover_the_catalog_in_order(self):
        assert list(_table1_sizes()) == [spec.name for spec in SPEC_CATALOG]

    @pytest.mark.parametrize("spec", SPEC_CATALOG, ids=lambda spec: spec.name)
    def test_states_and_transitions(self, spec):
        fa = spec.debugged_fa()
        assert (fa.num_states, fa.num_transitions) == _table1_sizes()[spec.name]


class TestStrategyClaims:
    MEASURED = [s.name for s in SPEC_CATALOG if s.name not in FOUR_LARGEST]

    def test_topdown_and_random_beat_baseline_except_two(self, tables):
        for name in self.MEASURED:
            _, t = tables[name]
            if name in ("XGetSelOwner", "XPutImage"):
                assert t.top_down >= t.baseline, name
            else:
                assert t.top_down < t.baseline, name
                assert t.random_mean < t.baseline, name

    def test_bottom_up_tracks_baseline_on_loop_free_specs(self, tables):
        # "Bottom-up labeling is equivalent to Baseline labeling on these
        # specifications, but not in general": equality wherever each
        # identical-trace class has its own characteristic transition
        # set, which is all mined-FA specs here.
        equal = [
            name
            for name in self.MEASURED
            if tables[name][1].bottom_up == tables[name][1].baseline
        ]
        assert len(equal) >= len(self.MEASURED) - 2

    def test_optimal_unmeasurable_for_four_largest(self, tables):
        for name in FOUR_LARGEST:
            assert tables[name][1].optimal is None, name
        # ... but measurable for the small specifications.
        assert tables["XGetSelOwner"][1].optimal is not None

    def test_optimal_lower_bounds_everything(self, tables):
        for name, (_, t) in tables.items():
            if t.optimal is None:
                continue
            for cost in (t.expert, t.top_down, t.bottom_up, t.baseline):
                assert cost >= t.optimal, name


class TestScaleClaims:
    def test_class_counts_range_to_the_hundreds(self, tables):
        counts = [run.clustering.num_objects for run, _ in tables.values()]
        assert min(counts) <= 5
        assert max(counts) >= 300

    def test_concept_analysis_is_affordable(self, tables):
        # Paper: never longer than ~22 seconds on 1998 hardware; our
        # largest lattice must build well under that.
        for name, (run, _) in tables.items():
            assert run.lattice_seconds < 22.0, name

    def test_lattices_well_formed(self, tables):
        for name, (run, _) in tables.items():
            assert is_well_formed(
                run.clustering.lattice, run.reference_labeling
            ), name

    def test_many_identical_scenarios_extracted(self, tables):
        for name, (run, _) in tables.items():
            assert run.num_scenarios > run.num_unique_scenarios, name
