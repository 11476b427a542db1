"""Cost of ``cable selfcheck``: project-model load and per-pass wall time.

The conformance gate runs on every CI push, so its latency is a tracked
number: the table splits model construction (parse + import resolution
for the whole ``src/repro`` tree) from each CC pass's scan.  The
committed table holds the findings per pass; the times go to the
terminal summary and the document claimed as ``BENCH_conformance.json`` via
:func:`benchmarks.conftest.write_bench` (compare runs with ``python
tools/calibrate.py --bench``).
"""

import time
from pathlib import Path

import repro
from benchmarks.conftest import report, show, write_bench
from repro.analysis.conformance import ProjectModel
from repro.analysis.conformance.engine import all_passes, run_conformance_timed
from repro.util.tables import format_table


def test_bench_conformance(benchmark):
    """Wall time of the full selfcheck, per pass."""
    root = Path(repro.__file__).resolve().parent

    def measure():
        start = time.perf_counter()
        project = ProjectModel.load(root)
        load_seconds = time.perf_counter() - start

        # One project-wide run, timed per pass by the engine itself —
        # the same clock the CLI exports in its JSON document.
        reports, pass_seconds = run_conformance_timed(project)
        by_code: dict[str, int] = {}
        for r in reports:
            for d in r.diagnostics:
                by_code[d.code] = by_code.get(d.code, 0) + 1
        rows = [
            {
                "code": check.code,
                "findings": by_code.get(check.code, 0),
                "ms": pass_seconds.get(check.code, 0.0) * 1000,
            }
            for check in all_passes()
        ]
        return project, load_seconds, rows

    project, load_seconds, rows = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )

    report(
        "conformance_costs",
        format_table(
            ["pass", "findings"],
            [[r["code"], r["findings"]] for r in rows],
            title=f"conformance selfcheck findings ({len(project)} modules)",
        ),
    )
    show(
        "conformance_ms",
        format_table(
            ["pass", "ms"],
            [[r["code"], f"{r['ms']:.1f}"] for r in rows]
            + [["model load", f"{load_seconds * 1000:.1f}"]],
            title="conformance selfcheck cost (this run, not committed)",
        ),
    )

    scan_seconds = sum(r["ms"] for r in rows) / 1000
    doc = {
        "name": "conformance",
        "modules": len(project),
        "seconds": load_seconds + scan_seconds,
        "load_ms": load_seconds * 1000,
        "passes": rows,
        "scan_ms_total": scan_seconds * 1000,
    }
    write_bench("conformance", doc)

    # The gate must stay interactive: a selfcheck that takes tens of
    # seconds would get skipped locally and rot.
    assert load_seconds + sum(r["ms"] for r in rows) / 1000 < 30
    # Every pass ran over the whole tree.
    assert [r["code"] for r in rows] == [p.code for p in all_passes()]
