"""The ``cable lint`` and ``cable diff`` subcommands.

``cable lint`` checks catalog specifications and/or FA files without
running any part of the dynamic pipeline, and gates on a baseline file
so CI fails only on *new* errors::

    cable lint XtFree                      # one catalog spec
    cable lint --catalog                   # all seventeen
    cable lint path/to/spec.fa             # an FA file (serialization format)
    cable lint spec.fa --traces traces.txt # + corpus compatibility passes
    cable lint --catalog --semantic        # + SEM/LBL semantic passes
    cable lint --catalog --format json     # machine-readable output
    cable lint --catalog --baseline tools/baselines/spec_lint.json
    cable lint --catalog --baseline B --update-baseline   # accept current

``cable diff`` compares two specifications at the *language* level
(:mod:`repro.analysis.semantic`): relation verdict, shortest witness
trace per disagreement direction, SEM diagnostics::

    cable diff XtFree mined.fa             # catalog spec vs FA file
    cable diff a.fa b.fa --format json     # machine-readable
    cable diff a.fa b.fa --no-dead         # skip the SEM004 pass

Exit status (both commands): 0 when no (non-baselined) errors were
found — for ``diff``, that means the languages are equal — 1 when new
errors exist, 2 on usage or input problems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import IO

from repro import obs
from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.diagnostics import SEVERITIES, LintReport
from repro.analysis.lint import (
    lint_fa,
    lint_reference,
    lint_spec_model,
    semantic_fa_report,
    semantic_spec_report,
)
from repro.fa.automaton import FA
from repro.fa.serialization import fa_from_text
from repro.lang.traces import parse_traces
from repro.robustness.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cable lint",
        description="statically lint temporal specifications",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help="catalog spec name (e.g. XtFree) or path to an FA file",
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help="lint every specification in the catalog",
    )
    parser.add_argument(
        "--traces",
        metavar="FILE",
        help="trace file (one per line) for corpus passes on FA-file targets",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline; only non-baselined errors fail",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept the current errors and exit 0",
    )
    parser.add_argument(
        "--semantic",
        action="store_true",
        help="also run the semantic passes (SEM/LBL code families)",
    )
    return parser


def _load_corpus(path: str) -> list:
    lines = Path(path).read_text().splitlines()
    kept = [i for i, line in enumerate(lines) if line.strip()]
    return parse_traces([lines[i] for i in kept], [f"t{i}" for i in kept])


def _lint_targets(args: argparse.Namespace) -> list[LintReport]:
    from repro.workloads.specs_catalog import SPEC_CATALOG, spec_by_name

    catalog_names = {spec.name for spec in SPEC_CATALOG}
    reports: list[LintReport] = []
    names = list(args.targets)
    if args.catalog:
        names.extend(spec.name for spec in SPEC_CATALOG)
    if not names:
        raise ReproError("nothing to lint: pass TARGETs or --catalog")
    seen: set[str] = set()
    for name in names:
        if name in seen:
            continue
        seen.add(name)
        if name in catalog_names:
            report = lint_spec_model(spec_by_name(name))
            if args.semantic:
                report = report.merged_with(
                    semantic_spec_report(spec_by_name(name))
                )
            reports.append(report)
        elif Path(name).exists():
            fa = fa_from_text(Path(name).read_text())
            if args.traces:
                corpus = _load_corpus(args.traces)
                report = lint_reference(fa, corpus, target=name)
            else:
                report = lint_fa(fa, target=name)
            if args.semantic:
                report = report.merged_with(semantic_fa_report(fa, name))
            reports.append(report)
        else:
            raise ReproError(
                "target is neither a catalog spec nor an existing file",
                target=name,
            )
    return reports


def lint_main(
    argv: list[str],
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """Entry point for ``cable lint``; returns the process exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles -h and usage errors
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        with obs.span("lint.targets"):
            reports = _lint_targets(args)
        baseline = (
            load_baseline(args.baseline, missing_ok=True)
            if args.baseline
            else Baseline.empty()
        )
        if args.update_baseline:
            if not args.baseline:
                raise ReproError("--update-baseline requires --baseline FILE")
            Baseline.from_reports(reports).save(args.baseline)
            print(f"baseline written to {args.baseline}", file=out)
            return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    elapsed = time.perf_counter() - started
    new_errors = {r.target: baseline.new_errors(r) for r in reports}
    num_new = sum(len(v) for v in new_errors.values())
    totals = {s: 0 for s in SEVERITIES}
    for report in reports:
        for severity, count in report.counts().items():
            totals[severity] += count

    if args.format == "json":
        document = {
            "version": 1,
            "reports": [r.to_dict() for r in reports],
            "summary": {
                **totals,
                "new_errors": num_new,
                "baselined_errors": totals["error"] - num_new,
                "targets": len(reports),
                "seconds": elapsed,
            },
        }
        print(json.dumps(document, indent=2), file=out)
    else:
        for report in reports:
            print(report.render_text(), file=out)
        suppressed = totals["error"] - num_new
        summary = (
            f"spec lint: {totals['error']} error(s) ({num_new} new), "
            f"{totals['warning']} warning(s), {totals['info']} info(s) "
            f"across {len(reports)} target(s) in {elapsed * 1e3:.1f}ms"
        )
        if suppressed:
            summary += f"; {suppressed} error(s) baselined"
        print(summary, file=out)
    return 1 if num_new else 0


# --------------------------------------------------------------------- #
# cable diff
# --------------------------------------------------------------------- #


def _build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cable diff",
        description="compare two temporal specifications at the language level",
    )
    parser.add_argument(
        "left", metavar="SPEC-A", help="catalog spec name or FA file path"
    )
    parser.add_argument(
        "right", metavar="SPEC-B", help="catalog spec name or FA file path"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline; only non-baselined errors fail",
    )
    parser.add_argument(
        "--no-dead",
        action="store_true",
        help="skip the semantically-dead-transition pass (SEM004)",
    )
    return parser


def _resolve_spec(name: str) -> FA:
    """A diff operand: catalog name → its debugged FA, else an FA file."""
    from repro.workloads.specs_catalog import SPEC_CATALOG, spec_by_name

    if name in {spec.name for spec in SPEC_CATALOG}:
        return spec_by_name(name).debugged_fa()
    if Path(name).exists():
        return fa_from_text(Path(name).read_text())
    raise ReproError(
        "diff operand is neither a catalog spec nor an existing file",
        target=name,
    )


def diff_main(
    argv: list[str],
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """Entry point for ``cable diff``; returns the process exit status.

    Exit 0 when the languages are equal (no non-baselined errors), 1
    when they differ, 2 on usage or input problems — the same gate
    contract as ``cable lint``, so CI can chain them.
    """
    from repro.analysis.semantic import diff_fas

    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_diff_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        left_fa = _resolve_spec(args.left)
        right_fa = _resolve_spec(args.right)
        baseline = (
            load_baseline(args.baseline, missing_ok=True)
            if args.baseline
            else Baseline.empty()
        )
        diff = diff_fas(
            left_fa,
            right_fa,
            args.left,
            args.right,
            dead_transitions=not args.no_dead,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    elapsed = time.perf_counter() - started
    new_errors = baseline.new_errors(diff.report)
    if args.format == "json":
        document = {
            "version": 1,
            "diff": diff.to_dict(),
            "summary": {
                **diff.report.counts(),
                "new_errors": len(new_errors),
                "seconds": elapsed,
            },
        }
        print(json.dumps(document, indent=2), file=out)
    else:
        print(diff.render_text(), file=out)
        print(
            f"spec diff: {diff.relation}, {len(new_errors)} new error(s) "
            f"in {elapsed * 1e3:.1f}ms",
            file=out,
        )
    return 1 if new_errors else 0


__all__ = ["diff_main", "lint_main"]
