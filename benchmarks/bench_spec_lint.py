"""Spec lint vs the full pipeline: what the static gate buys.

Per catalog specification: the diagnostics the linter finds, the time to
lint statically (FA passes + corpus passes on the Table 1 artifacts),
and the time a full ``run_spec`` costs (trace synthesis, mining,
clustering, lattice).  The point of the static gate is the ratio — lint
answers "is this spec structurally sane?" orders of magnitude cheaper
than running the pipeline to find out.

The committed table holds the findings per spec; the times go to the
terminal summary and ``BENCH_spec_lint_vs_pipeline.json``.  Also emits
the catalog's lint findings into ``benchmarks/results/`` so the
accepted state of the catalog is a checked artifact, not just a CI
exit status.
"""

import time

from benchmarks.conftest import report, show, write_bench
from repro.analysis import lint_reference, merge_reports
from repro.util.tables import format_table
from repro.workloads.pipeline import run_spec
from repro.workloads.specs_catalog import SPEC_CATALOG


def test_spec_lint_vs_pipeline(benchmark):
    """Wall-time comparison: static lint vs the dynamic pipeline.

    The lint timing covers the lint passes on prepared artifacts (the
    debugged FA and the behavior corpus, both of which exist before
    either path runs); the pipeline timing covers ``run_spec`` — trace
    synthesis, mining, clustering and the lattice build.
    """

    def measure():
        rows = []
        reports = []
        for spec in SPEC_CATALOG:
            fa = spec.debugged_fa()
            corpus = [behavior.trace() for behavior in spec.behaviors]

            start = time.perf_counter()
            lint_report = lint_reference(fa, corpus, target=f"spec:{spec.name}")
            lint_seconds = time.perf_counter() - start
            reports.append(lint_report)

            start = time.perf_counter()
            run_spec(spec)
            pipeline_seconds = time.perf_counter() - start

            counts = lint_report.counts()
            rows.append(
                [
                    spec.name,
                    counts["error"],
                    counts["warning"],
                    counts["info"],
                    lint_seconds * 1000,
                    pipeline_seconds * 1000,
                ]
            )
        return rows, reports

    rows, reports = benchmark.pedantic(measure, rounds=1, iterations=1)

    report(
        "spec_lint_vs_pipeline",
        format_table(
            ["specification", "errors", "warnings", "infos"],
            [row[:4] for row in rows],
            title="spec lint findings (per catalog specification)",
        ),
    )
    show(
        "spec_lint_vs_pipeline_ms",
        format_table(
            ["specification", "lint ms", "pipeline ms", "speedup"],
            [
                [
                    row[0],
                    f"{row[4]:.2f}",
                    f"{row[5]:.1f}",
                    f"{row[5] / row[4]:.0f}x" if row[4] > 0 else "-",
                ]
                for row in rows
            ],
            title="spec lint vs full pipeline (this run, not committed)",
        ),
    )
    write_bench(
        "spec_lint_vs_pipeline",
        {"ms": {row[0]: {"lint": row[4], "pipeline": row[5]} for row in rows}},
    )

    merged = merge_reports("catalog", reports)
    findings = "\n\n".join(r.render_text() for r in reports)
    summary = merged.counts()
    report(
        "spec_lint_catalog",
        "spec-lint findings for the shipped catalog\n"
        "(errors gate CI against tools/baselines/spec_lint.json)\n\n"
        f"{findings}\n\n"
        f"totals: {summary['error']} error(s), {summary['warning']} "
        f"warning(s), {summary['info']} info(s) "
        f"across {len(reports)} specification(s)",
    )

    # The shipped catalog must stay error-free (the CI gate's baseline
    # is empty); a regression here should fail the benchmark too.
    assert summary["error"] == 0
