"""Cost of the semantic layer: spec-diff and label-flow per catalog spec.

For every catalog specification, the buggy-vs-debugged semantic diff
(the comparison a user would actually run after a Cable session) and a
label-flow pass over the spec's oracle-labeled lattice are timed.  The
point is that the language-level passes stay interactive — milliseconds
per spec — even though they build product automata and lattice-wide
fixpoints; the ``BENCH_semantic.json`` document makes that a tracked
number (compare runs with ``python tools/calibrate.py --bench``).  The
committed table holds what every run reproduces; the times go to the
terminal summary.
"""

import time

from benchmarks.conftest import report, show, write_bench
from repro.analysis.semantic import diff_fas, label_flow, oracle_concept_labels
from repro.core.trace_clustering import cluster_traces
from repro.util.tables import format_table
from repro.workloads.specs_catalog import SPEC_CATALOG


def test_semantic_costs(benchmark):
    """Wall time of ``diff_fas`` and ``label_flow`` across the catalog."""

    def measure():
        rows = []
        for spec in SPEC_CATALOG:
            debugged = spec.debugged_fa()
            truth = spec.ground_truth

            start = time.perf_counter()
            diff = diff_fas(debugged, truth, "debugged", "ground-truth")
            diff_seconds = time.perf_counter() - start

            corpus = [behavior.trace() for behavior in spec.behaviors]
            clustering = cluster_traces(corpus, debugged)
            labels = {
                o: spec.oracle_label(rep)
                for o, rep in enumerate(clustering.representatives)
            }
            start = time.perf_counter()
            acts = oracle_concept_labels(clustering.lattice, labels)
            flow = label_flow(clustering.lattice, acts)
            flow_seconds = time.perf_counter() - start

            rows.append(
                {
                    "spec": spec.name,
                    "relation": diff.relation,
                    "diff_ms": diff_seconds * 1000,
                    "concepts": len(clustering.lattice),
                    "acts": len(acts),
                    "conflicts": len(flow.conflicts),
                    "flow_ms": flow_seconds * 1000,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "semantic_costs",
        format_table(
            ["specification", "relation", "concepts", "acts"],
            [[r["spec"], r["relation"], r["concepts"], r["acts"]] for r in rows],
            title="semantic layer per catalog specification",
        ),
    )
    show(
        "semantic_ms",
        format_table(
            ["specification", "diff ms", "flow ms"],
            [[r["spec"], f"{r['diff_ms']:.2f}", f"{r['flow_ms']:.2f}"] for r in rows],
            title="semantic layer cost (this run, not committed)",
        ),
    )

    doc = {
        "name": "semantic",
        "specs": rows,
        "diff_ms_total": sum(r["diff_ms"] for r in rows),
        "flow_ms_total": sum(r["flow_ms"] for r in rows),
    }
    write_bench("semantic", doc)

    # Oracle-derived acts are conflict-free by construction; a conflict
    # here means the label-flow closures regressed.
    assert all(r["conflicts"] == 0 for r in rows)
    # A debugged spec must never accept *less* than its ground truth.
    assert all(r["relation"] in ("equal", "superset") for r in rows)
