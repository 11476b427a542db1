"""The ``cable selfcheck`` subcommand — run the conformance passes on
the repo's own source tree.

::

    cable selfcheck                              # text report on src/repro
    cable selfcheck --format json                # machine-readable
    cable selfcheck --codes CC001,CC011          # a subset of passes
    cable selfcheck --changed                    # modules touched vs HEAD
    cable selfcheck --changed origin/main        # ... vs a merge base
    cable selfcheck --baseline tools/baselines/conformance.json
    cable selfcheck --baseline B --update-baseline   # accept current
    cable selfcheck --list                       # pass catalog

``--changed`` is the pre-commit entry point: it narrows the scan to the
modules ``git diff --name-only <base>`` reports as touched (the project
model still loads everything, so cross-module resolution stays whole)
and is fast enough to run on every commit.

The gate is stricter than ``cable lint``: *warnings* count too.  The
selfcheck contract is "every finding is either fixed or baselined with
a reason", so exit 0 means the tree is conformance-clean modulo the
checked-in baseline.  Exit 1 on new findings, 2 on usage or input
problems — the same numeric contract as the other gates, so CI chains
them uniformly.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import IO

import repro
from repro import obs
from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.conformance.engine import (
    all_passes,
    run_conformance_timed,
)
from repro.analysis.conformance.model import ProjectModel
from repro.analysis.diagnostics import SEVERITIES, LintReport
from repro.robustness.errors import ReproError

#: Severities the selfcheck gate counts — everything visible.
GATED_SEVERITIES = ("error", "warning")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cable selfcheck",
        description="run the CC conformance passes on the repro source tree",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="package root to scan (default: the installed repro package)",
    )
    parser.add_argument(
        "--codes",
        metavar="CC001,CC002,...",
        help="comma-separated pass codes to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--changed",
        metavar="BASE",
        nargs="?",
        const="HEAD",
        default=None,
        help=(
            "scan only modules touched since BASE per `git diff "
            "--name-only` (default HEAD); the pre-commit entry point"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="suppression baseline; only non-baselined findings fail",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline to accept the current findings and exit 0",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_passes",
        help="list the registered passes and exit",
    )
    return parser


def _default_root() -> Path:
    """The source tree of the imported ``repro`` package itself."""
    return Path(repro.__file__).resolve().parent


def _changed_targets(
    project: ProjectModel, root: Path, base: str
) -> frozenset[str]:
    """Repo-relative module paths touched since ``base``, per git.

    ``git diff --name-only`` emits paths relative to the *repository*
    root while the project model keys modules by path relative to the
    package root's parent, so matching is by path suffix.
    """
    proc = subprocess.run(
        ["git", "-C", str(root), "diff", "--name-only", base],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise ReproError(
            "git diff failed for --changed",
            base=base,
            stderr=proc.stderr.strip(),
        )
    changed = [line.strip() for line in proc.stdout.splitlines() if line.strip()]
    targets = {
        module.relpath
        for module in project
        if any(path.endswith(module.relpath) for path in changed)
    }
    return frozenset(targets)


def _parse_codes(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    codes = tuple(c.strip().upper() for c in raw.split(",") if c.strip())
    known = {p.code for p in all_passes()}
    unknown = [c for c in codes if c not in known]
    if unknown:
        raise ReproError(
            "unknown conformance pass code(s)",
            unknown=", ".join(unknown),
            known=", ".join(sorted(known)),
        )
    return codes


def selfcheck_main(
    argv: list[str],
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """Entry point for ``cable selfcheck``; returns the exit status."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.list_passes:
        for p in all_passes():
            print(f"{p.code}  [{p.severity:7s}]  {p.summary}", file=out)
        return 0
    started = time.perf_counter()
    try:
        codes = _parse_codes(args.codes)
        root = Path(args.root) if args.root else _default_root()
        with obs.span("conformance.load"):
            project = ProjectModel.load(root)
        targets = (
            _changed_targets(project, root, args.changed)
            if args.changed is not None
            else None
        )
        reports, pass_seconds = run_conformance_timed(
            project, codes=codes, targets=targets
        )
        baseline = (
            load_baseline(args.baseline, missing_ok=True)
            if args.baseline
            else Baseline.empty()
        )
        if args.update_baseline:
            if not args.baseline:
                raise ReproError("--update-baseline requires --baseline FILE")
            merged = Baseline.from_reports(
                reports, severities=GATED_SEVERITIES
            )
            # Keep reasons already recorded for fingerprints that survive.
            reasons = {
                target: {
                    fp: reason
                    for fp, reason in baseline.reasons.get(target, {}).items()
                    if fp in merged.suppressions.get(target, frozenset())
                }
                for target in merged.suppressions
            }
            Baseline(
                merged.suppressions,
                {t: r for t, r in reasons.items() if r},
            ).save(args.baseline)
            print(f"baseline written to {args.baseline}", file=out)
            return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2

    elapsed = time.perf_counter() - started
    new_findings = {
        r.target: baseline.new_findings(r, severities=GATED_SEVERITIES)
        for r in reports
    }
    num_new = sum(len(v) for v in new_findings.values())
    totals = {s: 0 for s in SEVERITIES}
    for report in reports:
        for severity, count in report.counts().items():
            totals[severity] += count
    gated_total = sum(totals[s] for s in GATED_SEVERITIES)

    if args.format == "json":
        document = {
            "version": 1,
            "root": str(root),
            "passes": [
                {
                    "code": p.code,
                    "severity": p.severity,
                    "summary": p.summary,
                    "seconds": pass_seconds.get(p.code, 0.0),
                }
                for p in all_passes()
                if codes is None or p.code in codes
            ],
            "reports": [r.to_dict() for r in reports],
            "summary": {
                **totals,
                "new_findings": num_new,
                "baselined_findings": gated_total - num_new,
                "modules_scanned": (
                    len(targets) if targets is not None
                    else len(project.modules)
                ),
                "seconds": elapsed,
            },
        }
        print(json.dumps(document, indent=2), file=out)
    else:
        for report in reports:
            print(report.render_text(), file=out)
        scanned = (
            len(targets) if targets is not None else len(project.modules)
        )
        summary = (
            f"selfcheck: {gated_total} finding(s) ({num_new} new) across "
            f"{scanned} module(s) in {elapsed * 1e3:.1f}ms"
        )
        if gated_total - num_new:
            summary += f"; {gated_total - num_new} baselined"
        print(summary, file=out)
    return 1 if num_new else 0


__all__ = ["GATED_SEVERITIES", "selfcheck_main"]
