"""The conformance pass registry and runner.

A pass is a small class with a stable ``code`` (``CC001``), a default
``severity``, and a ``check_module`` hook that yields
:class:`~repro.analysis.diagnostics.Diagnostic` records.  Passes
register themselves via :func:`register_pass` when their module is
imported (:mod:`repro.analysis.conformance` imports them all), and the
runner groups findings into one
:class:`~repro.analysis.diagnostics.LintReport` per *file* — the report
target is the repo-relative path, which is also the baseline key.

Fingerprints follow the spec-lint convention (``CODE@location``) with
``Location.code(<qualname>)`` refs: a finding is identified by the
function it sits in, not its line number, so unrelated edits above it do
not churn the baseline.  When one function holds several findings of
the same code, later ones get a ``#2``/``#3`` suffix in source order.
"""

from __future__ import annotations

from collections import Counter
import time
from collections.abc import Iterable, Iterator, Sequence
from typing import ClassVar

from repro import obs
from repro.analysis.conformance.model import ModuleInfo, ProjectModel
from repro.analysis.diagnostics import (
    Diagnostic,
    LintReport,
    Location,
    sort_diagnostics,
)
from repro.robustness.errors import InputError


class ConformancePass:
    """Base class: one invariant, one stable diagnostic code."""

    #: Stable code, ``CC0xx``; documented in docs/static-analysis.md.
    code: ClassVar[str] = ""
    #: Default severity for this pass's findings.
    severity: ClassVar[str] = "error"
    #: One-line summary shown by ``cable selfcheck --list``.
    summary: ClassVar[str] = ""

    def check_module(
        self, module: ModuleInfo, project: ProjectModel
    ) -> Iterator[Diagnostic]:
        """Yield this pass's findings for one module."""
        raise NotImplementedError
        yield  # pragma: no cover

    # ------------------------------------------------------------------ #
    # helpers shared by the concrete passes
    # ------------------------------------------------------------------ #

    def finding(
        self,
        module: ModuleInfo,
        qualname: str,
        node: object,
        message: str,
        *,
        severity: str | None = None,
        suggestion: str = "",
    ) -> Diagnostic:
        """A diagnostic anchored at ``qualname`` with a witness snippet."""
        import ast

        witness = (
            module.witness(node) if isinstance(node, ast.AST) else str(node)
        )
        return Diagnostic(
            code=self.code,
            severity=severity or self.severity,
            location=Location.code(qualname or "<module>"),
            message=message,
            suggestion=suggestion,
            witness=witness,
        )


_REGISTRY: dict[str, type[ConformancePass]] = {}


def register_pass(cls: type[ConformancePass]) -> type[ConformancePass]:
    """Class decorator: add a pass to the registry (keyed by code)."""
    if not cls.code:
        raise InputError("conformance pass has no code", cls=cls.__name__)
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise InputError("duplicate conformance pass code", code=cls.code)
    _REGISTRY[cls.code] = cls
    return cls


def all_passes() -> list[ConformancePass]:
    """One instance of every registered pass, in code order."""
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def pass_by_code(code: str) -> ConformancePass:
    if code not in _REGISTRY:
        raise InputError(
            "unknown conformance pass", code=code, known=sorted(_REGISTRY)
        )
    return _REGISTRY[code]()


def _dedup_fingerprints(diagnostics: Sequence[Diagnostic]) -> list[Diagnostic]:
    """Disambiguate repeated ``code@location`` pairs with ``#N`` suffixes.

    Findings are already in source order (passes walk the AST top to
    bottom), so the suffix is stable for a given file state.
    """
    seen: Counter[str] = Counter()
    out: list[Diagnostic] = []
    for diag in diagnostics:
        seen[diag.fingerprint] += 1
        n = seen[diag.fingerprint]
        if n > 1:
            diag = Diagnostic(
                code=diag.code,
                severity=diag.severity,
                location=Location(
                    diag.location.kind, f"{diag.location.ref}#{n}"
                ),
                message=diag.message,
                suggestion=diag.suggestion,
                witness=diag.witness,
            )
        out.append(diag)
    return out


def run_conformance_timed(
    project: ProjectModel,
    codes: Iterable[str] | None = None,
    targets: Iterable[str] | None = None,
) -> tuple[list[LintReport], dict[str, float]]:
    """Run the (selected) passes and report where the time went.

    Returns ``(reports, seconds_by_code)``.  The loop is pass-outer so
    each pass gets one ``conformance.pass`` span and one sample in the
    ``conformance.pass.seconds`` histogram — a pass that amortizes
    project-wide work across modules (CC009's interprocedural fixpoint)
    is attributed the whole bill.  ``targets`` restricts the scan to
    modules whose repo-relative path is in the set (the ``--changed``
    entry point); the *project model* still covers everything, so
    cross-module resolution is unaffected by the filter.
    """
    passes = (
        [pass_by_code(c) for c in codes] if codes is not None else all_passes()
    )
    modules = sorted(project, key=lambda m: m.relpath)
    if targets is not None:
        wanted = set(targets)
        modules = [m for m in modules if m.relpath in wanted]
    reports: list[LintReport] = []
    seconds: dict[str, float] = {}
    with obs.span(
        "conformance.run", modules=len(modules), passes=len(passes)
    ) as span:
        by_module: dict[str, list[Diagnostic]] = {}
        for check in passes:
            started = time.perf_counter()
            with obs.span("conformance.pass", code=check.code) as pass_span:
                found_here = 0
                for module in modules:
                    found = list(check.check_module(module, project))
                    if found:
                        by_module.setdefault(module.relpath, []).extend(found)
                        found_here += len(found)
                pass_span.set(findings=found_here)
            seconds[check.code] = time.perf_counter() - started
            obs.observe("conformance.pass.seconds", seconds[check.code])
        total = 0
        for relpath in sorted(by_module):
            found = _dedup_fingerprints(
                sorted(
                    by_module[relpath],
                    key=lambda d: (d.code, d.location.ref),
                )
            )
            reports.append(
                LintReport(relpath, tuple(sort_diagnostics(found)))
            )
            total += len(found)
        span.set(findings=total)
        obs.inc("conformance.findings", total)
    return reports, seconds


def run_conformance(
    project: ProjectModel,
    codes: Iterable[str] | None = None,
    targets: Iterable[str] | None = None,
) -> list[LintReport]:
    """Run the (selected) passes over every module of ``project``.

    Returns one report per module **with findings**, target = the
    module's repo-relative path; modules that come back clean produce no
    report.  Reports are ordered by path.
    """
    reports, _ = run_conformance_timed(project, codes=codes, targets=targets)
    return reports


__all__ = [
    "ConformancePass",
    "all_passes",
    "pass_by_code",
    "register_pass",
    "run_conformance",
    "run_conformance_timed",
]
