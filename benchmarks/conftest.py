"""Benchmark-suite plumbing.

Benchmarks regenerate the paper's tables and figures; the rendered
artifacts are collected here and printed in the terminal summary (so
``pytest benchmarks/ --benchmark-only`` shows them even with output
capture on) and written to ``benchmarks/results/``.

Every benchmark also runs under :mod:`repro.obs` recording, and every
benchmark owns exactly **one** ``BENCH_<name>.json`` document:

* a test that calls :func:`write_bench` claims its canonical name
  (``write_bench("conformance", doc)`` →  ``BENCH_conformance.json``)
  and the autouse fixture merges the obs profile into that same
  document under a ``"profile"`` key — previously the fixture wrote a
  second ``BENCH_test_<module>.json`` next to the claimed one and
  ``calibrate.py --bench`` listed the benchmark twice;
* a test that claims nothing gets an auto-named document derived from
  its node id with the ``test_`` prefix stripped
  (``test_bench_godin_800_objects`` → ``BENCH_bench_godin_800_objects
  .json``).

Stale documents under the old ``BENCH_test_*.json`` naming are removed
at session start.  Compare runs with ``python tools/calibrate.py
--bench``.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import pytest

_REPORTS: list[tuple[str, str]] = []

RESULTS_DIR = Path(__file__).parent / "results"

#: The document claimed by the currently running benchmark, if any:
#: ``(canonical_name, doc)`` staged by :func:`write_bench` and written
#: (with the obs profile merged in) by the ``obs_profile`` fixture.
_claimed: tuple[str, dict] | None = None


def show(name: str, text: str) -> None:
    """Register a rendered text for the terminal summary only (timings,
    which would make a committed results file differ on every run)."""
    _REPORTS.append((name, text))


def report(name: str, text: str) -> None:
    """Register a rendered table/figure for the terminal summary and
    write it to ``benchmarks/results/<name>.txt``."""
    show(name, text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")


def write_bench(name: str, doc: dict) -> None:
    """Claim the canonical ``BENCH_<name>.json`` document for the
    running benchmark.

    The document is written once, after the test body, with the obs
    profile the autouse fixture recorded merged under ``"profile"`` —
    one benchmark, one document, whatever ``doc.get("name")`` says.
    """
    global _claimed
    if _claimed is not None and _claimed[0] != name:
        raise ValueError(
            f"benchmark already claimed BENCH_{_claimed[0]}.json; "
            f"cannot also claim BENCH_{name}.json"
        )
    _claimed = (name, dict(doc, name=name))


def _bench_name(nodeid: str) -> str:
    """``bench_scalability.py::test_godin[800]`` -> ``bench_godin_800``."""
    name = nodeid.rsplit("::", 1)[-1]
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    return name.removeprefix("test_")


def pytest_sessionstart(session):
    """Drop documents under the retired ``BENCH_test_*.json`` naming."""
    if not RESULTS_DIR.is_dir():
        return
    for path in RESULTS_DIR.glob("BENCH_test_*.json"):
        path.unlink(missing_ok=True)


@pytest.fixture(autouse=True)
def obs_profile(request):
    """Record every benchmark under a root span and dump its BENCH doc."""
    from repro import obs

    global _claimed
    name = _bench_name(request.node.nodeid)
    recorder = obs.configure(record=True)
    _claimed = None
    try:
        with obs.span(f"bench.{name}"):
            yield
        profile = obs.ProfileReport.from_recorder(name, recorder)
    finally:
        obs.shutdown()
    RESULTS_DIR.mkdir(exist_ok=True)
    if _claimed is not None:
        doc_name, doc = _claimed
        _claimed = None
        doc["profile"] = profile.to_dict()
    else:
        doc_name, doc = name, profile.to_dict()
    path = RESULTS_DIR / f"BENCH_{doc_name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced tables and figures")
    for name, text in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"--- {name} " + "-" * max(0, 66 - len(name)))
        for line in text.splitlines():
            terminalreporter.write_line(line)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(also written to {RESULTS_DIR}{os.sep}*.txt)"
    )
