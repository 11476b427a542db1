"""Shared fixtures: the paper's running examples, sized for fast tests."""

from __future__ import annotations

import random

import pytest

from repro.analysis.invariants import disable_debug_checks, enable_debug_checks
from repro.core.context import FormalContext
from repro.fa.automaton import FA
from repro.fa.templates import unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace, parse_trace
from repro.workloads.animals import animals_context
from repro.workloads.stdio import buggy_spec, fixed_spec, reference_fa


@pytest.fixture(scope="session", autouse=True)
def _lattice_invariant_checks():
    """Assert lattice invariants on every construction, suite-wide.

    This is the spec-lint debug hook: every ConceptLattice any test
    builds (Godin, batch, next-closure, checkpoint resume, ...) is
    checked for Galois closure, order consistency and acyclicity at
    construction time.
    """
    enable_debug_checks()
    yield
    disable_debug_checks()


@pytest.fixture
def animals() -> FormalContext:
    """The Figure 9 context (6 animals × 5 adjectives)."""
    return animals_context()


@pytest.fixture
def stdio_buggy() -> FA:
    """Figure 1: the incorrect fopen/popen specification."""
    return buggy_spec()


@pytest.fixture
def stdio_fixed() -> FA:
    """Figure 6: the corrected specification."""
    return fixed_spec()


@pytest.fixture
def stdio_reference() -> FA:
    """Figure 3: the reference FA for the violation traces."""
    return reference_fa()


#: Violation-trace-style stdio lifecycles, with their correct labels.
STDIO_LABELED = (
    ("popen(X); fread(X); pclose(X)", "good"),
    ("popen(X); pclose(X)", "good"),
    ("popen(X); fwrite(X); pclose(X)", "good"),
    ("fopen(X); fread(X); fclose(X)", "good"),
    ("fopen(X); fwrite(X); fclose(X)", "good"),
    ("fopen(X); fread(X)", "bad"),
    ("popen(X); fread(X)", "bad"),
    ("fopen(X); fread(X); pclose(X)", "bad"),
    ("popen(X); fread(X); fclose(X)", "bad"),
)


@pytest.fixture
def stdio_traces() -> list[Trace]:
    return [
        parse_trace(text, trace_id=f"t{i}")
        for i, (text, _) in enumerate(STDIO_LABELED)
    ]


@pytest.fixture
def stdio_labels() -> dict[int, str]:
    return {i: label for i, (_, label) in enumerate(STDIO_LABELED)}


#: The bulk-cluster shape: 24 one-argument symbols under one Unordered FA.
BULK_ALPHABET = tuple(f"b{i:02d}" for i in range(24))


@pytest.fixture
def bulk_corpus() -> tuple[list[Trace], FA]:
    """A small bulk-cluster-shaped corpus and its reference FA: 60
    distinct traces of 20-40 events, each using all of its own 6-symbol
    subset, plus 15 exact copies, shuffled."""
    rng = random.Random(7)
    bodies: list[tuple[int, ...]] = []
    while len(bodies) < 60:
        subset = rng.sample(range(len(BULK_ALPHABET)), 6)
        body = subset + [rng.choice(subset) for _ in range(14 + len(bodies) % 21)]
        rng.shuffle(body)
        if tuple(body) not in bodies:
            bodies.append(tuple(body))
    bodies += [rng.choice(bodies) for _ in range(15)]
    rng.shuffle(bodies)
    traces = [
        Trace(tuple(Event(BULK_ALPHABET[s], ("X",)) for s in body), f"t{i}")
        for i, body in enumerate(bodies)
    ]
    return traces, unordered_fa([f"{symbol}(X)" for symbol in BULK_ALPHABET])
