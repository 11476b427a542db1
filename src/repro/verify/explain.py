"""Human-readable diagnoses for violation traces.

A violation trace tells the user *that* the specification rejected a
lifecycle; :func:`explain_violation` tells them *where and why*: the
longest prefix the FA could still accept, the event that surprised it
(with the events it expected instead), or — for traces that end too
early — the events that could still have saved the run.  Cable users
read exactly this kind of information off the FA when deciding labels;
the function just automates the reading.

The structured form, :class:`Diagnosis` via :func:`diagnose_rejection`,
is what the robustness layer's quarantine machinery consumes: it
carries the shortest failing prefix and the expected continuations as
data, so a :class:`~repro.robustness.quarantine.RejectedReport` can be
rendered or serialized without re-running the FA.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fa.automaton import FA, Layer
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.verify.checker import Violation


def _expected_patterns(spec: FA, configs: Layer) -> list[str]:
    """The transition labels leaving any live configuration."""
    out = set()
    for state, _binding in configs:
        for _, t in spec.outgoing(state):
            out.add(str(t.pattern))
    return sorted(out)


@dataclass(frozen=True)
class Diagnosis:
    """Where and why a specification FA rejects one trace.

    ``prefix_ok`` is the number of events consumed before the FA got
    stuck; when ``stuck`` the first surprising event is
    ``trace[prefix_ok]``, otherwise the trace ran out in a
    non-accepting state.  ``expected`` are the transition labels the FA
    could have taken at that point.

    ``completion`` is a *witness trace*: the shortest label sequence
    that leads from the configurations reached by the accepted prefix
    to acceptance (``()`` if a reached state already accepts — only
    possible mid-trace — and ``None`` when no accepting state is
    reachable, or when the diagnosis predates the semantic layer).  It
    shows not just the next expected event but a complete way the
    lifecycle could have ended correctly.
    """

    trace: Trace
    prefix_ok: int
    stuck: bool
    expected: tuple[str, ...]
    completion: tuple[str, ...] | None = None

    @property
    def surprise(self) -> Event | None:
        """The first event the FA could not consume (``None`` when the
        trace simply ended too early)."""
        if self.stuck and self.prefix_ok < len(self.trace):
            return self.trace[self.prefix_ok]
        return None

    @property
    def failing_prefix(self) -> Trace:
        """The shortest rejected prefix: up to and including the
        surprising event, or the whole trace when it ended too early."""
        if self.stuck:
            return Trace(
                tuple(self.trace[: self.prefix_ok + 1]),
                trace_id=self.trace.trace_id,
            )
        return self.trace


def _accepting_completion(
    spec: FA, configs: Layer
) -> tuple[str, ...] | None:
    """Shortest witness completion from the live configurations."""
    # Imported lazily: repro.analysis.semantic imports fa.ops, and verify
    # must stay importable without the analysis layer in the picture.
    from repro.analysis.semantic import shortest_accepting_completion

    states = {state for state, _binding in configs}
    if not states:
        return None
    return shortest_accepting_completion(spec, states)


def diagnose_rejection(spec: FA, trace: Trace) -> Diagnosis:
    """Structured diagnosis of why ``spec`` rejects ``trace``."""
    layers = spec._forward_layers(trace)
    stuck_at = next((i for i, layer in enumerate(layers) if not layer), None)
    if stuck_at is not None:
        position = stuck_at - 1
        expected = _expected_patterns(spec, layers[position])
        return Diagnosis(
            trace=trace,
            prefix_ok=position,
            stuck=True,
            expected=tuple(expected),
            completion=_accepting_completion(spec, layers[position]),
        )
    expected = _expected_patterns(spec, layers[len(trace)])
    return Diagnosis(
        trace=trace,
        prefix_ok=len(trace),
        stuck=False,
        expected=tuple(expected),
        completion=_accepting_completion(spec, layers[len(trace)]),
    )


def explain_violation(spec: FA, violation: Violation) -> str:
    """One-paragraph diagnosis of why ``spec`` rejects the trace."""
    trace = violation.trace
    diagnosis = diagnose_rejection(spec, trace)
    lines = [f"{violation}"]
    if diagnosis.stuck:
        position = diagnosis.prefix_ok
        prefix = "; ".join(str(e) for e in trace[:position]) or "(start)"
        lines.append(
            f"  the specification got stuck at event {position + 1} "
            f"({trace[position]})"
        )
        lines.append(f"  after accepting: {prefix}")
        if diagnosis.expected:
            lines.append(f"  it expected one of: {', '.join(diagnosis.expected)}")
        else:
            lines.append("  no transition leaves the reached state(s)")
    else:
        # The whole trace ran but ended in a non-accepting state: the
        # lifecycle stopped too early.
        lines.append("  the trace ends before the lifecycle completes")
        if diagnosis.expected:
            lines.append(
                f"  it could have continued with: {', '.join(diagnosis.expected)}"
            )
    if diagnosis.completion:
        lines.append(
            "  shortest accepting completion: "
            + "; ".join(diagnosis.completion)
        )
    return "\n".join(lines)


def explain_all(spec: FA, violations: list[Violation]) -> str:
    """Concatenated diagnoses, one blank-line-separated block each."""
    return "\n\n".join(explain_violation(spec, v) for v in violations)
