"""Checking temporal specifications against execution traces.

The paper's specifications are universally quantified over an object:
"For all calls ``X = fopen()`` or ``X = popen()``: ...".  The checker
therefore:

1. identifies the *tracked objects* of a program trace — each occurrence
   of a *creation event* (e.g. ``fopen``/``popen``) binds a fresh object;
2. projects the trace onto each tracked object's events, from its creation
   onward;
3. runs the specification FA on the projection; a rejected projection is
   reported as a :class:`Violation` whose trace (standardized) is exactly
   the kind of violation trace a verification tool emits.

This is a dynamic (trace-based) checker: like the verification tools the
paper cites, it reports *apparent* violations — the author decides with
Cable which ones are real program errors and which are specification bugs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro import obs
from repro.fa.automaton import FA
from repro.lang.traces import Trace
from repro.robustness.errors import InputError


@dataclass(frozen=True)
class Violation:
    """An apparent specification violation.

    ``trace`` is the standardized per-object projection that the FA
    rejects; ``object_name`` and ``program_trace_id`` locate it in the
    original run, and ``prefix_ok`` is the length of the longest prefix
    the FA could still have extended to an accepting run (a debugging aid:
    the first "surprising" event is ``trace[prefix_ok]`` when
    ``prefix_ok < len(trace)``, otherwise the trace ended too early).
    """

    trace: Trace
    object_name: str
    program_trace_id: str
    prefix_ok: int

    def __str__(self) -> str:
        return (
            f"violation[{self.program_trace_id}:{self.object_name}] {self.trace}"
        )


def _live_prefix_length(spec: FA, trace: Trace) -> int:
    """Longest prefix after which some accepting continuation *could* exist.

    Measured as the longest prefix with a nonempty configuration set —
    i.e. the FA has not yet gotten stuck.
    """
    layers = spec._forward_layers(trace)
    longest = 0
    for i, layer in enumerate(layers):
        if layer:
            longest = i
    return longest


@dataclass
class TemporalChecker:
    """A trace-based temporal-safety checker for one specification.

    ``creation_args`` maps creation event symbols to the argument position
    holding the created object (almost always 0 — we model return values
    as the first argument).
    """

    spec: FA
    creation_args: Mapping[str, int]

    def tracked_objects(self, trace: Trace) -> list[tuple[str, int]]:
        """``(object id, creation position)`` pairs, in creation order.

        An id re-created later (handle reuse) is tracked once per creation.
        """
        out: list[tuple[str, int]] = []
        for i, event in enumerate(trace):
            pos = self.creation_args.get(event.symbol)
            if pos is None:
                continue
            if pos >= len(event.args):
                raise InputError(
                    f"creation event {event} lacks argument {pos}"
                )
            out.append((event.args[pos], i))
        return out

    def projection(self, trace: Trace, name: str, start: int) -> Trace:
        """Events mentioning ``name`` from position ``start`` to the next
        re-creation of the same id (exclusive), standardized."""
        events = []
        for i in range(start, len(trace)):
            event = trace[i]
            if i > start:
                pos = self.creation_args.get(event.symbol)
                if pos is not None and pos < len(event.args) and event.args[pos] == name:
                    break  # the id was recycled; a new lifetime begins
            if name in event.args:
                events.append(event)
        projected = Trace(tuple(events), trace_id=f"{trace.trace_id}:{name}@{start}")
        standardized = projected.standardize_names()
        return Trace(standardized.events, trace_id=projected.trace_id)

    def check(self, trace: Trace) -> list[Violation]:
        """All violations of one program trace."""
        violations = []
        obs.inc("verify.checks")
        for name, start in self.tracked_objects(trace):
            projected = self.projection(trace, name, start)
            if not self.spec.accepts(projected):
                violations.append(
                    Violation(
                        trace=projected,
                        object_name=name,
                        program_trace_id=trace.trace_id,
                        prefix_ok=_live_prefix_length(self.spec, projected),
                    )
                )
        return violations

    def check_all(
        self,
        traces: Iterable[Trace],
        jobs: int | None = None,
        *,
        retry=None,
        task_timeout: float | None = None,
        on_fault: str = "raise",
    ) -> list[Violation]:
        """All violations across a set of program traces.

        Per-trace checks are independent, so ``jobs > 1`` fans them out
        over a :func:`repro.parallel.parallel_map` worker pool (``0`` =
        one worker per CPU); violation order is identical to serial.
        ``retry``/``task_timeout``/``on_fault`` supervise the fan-out;
        under ``on_fault="quarantine"`` traces whose check was poisoned
        are skipped (their violations simply do not appear) after the
        supervisor exhausts retries — the obs counter
        ``parallel.quarantined`` records how many.
        """
        from repro.parallel import parallel_map, resolve_jobs
        from repro.robustness.supervise import PartialMapResult

        trace_list = list(traces)
        njobs = resolve_jobs(jobs)
        with obs.span(
            "verify.check_all", traces=len(trace_list), jobs=njobs
        ) as span:
            faults = 0
            if (
                njobs <= 1 or len(trace_list) <= 1
            ) and retry is None and on_fault == "raise":
                out: list[Violation] = []
                for trace in trace_list:
                    out.extend(self.check(trace))
            else:
                per_trace = parallel_map(
                    self.check,
                    trace_list,
                    jobs=njobs,
                    retry=retry,
                    task_timeout=task_timeout,
                    on_fault=on_fault,
                    span_name="verify.fanout",
                )
                if isinstance(per_trace, PartialMapResult):
                    faults = len(per_trace.failures)
                    per_trace = per_trace.results
                out = [v for vs in per_trace for v in vs]
            span.set(violations=len(out), faults=faults)
            obs.inc("verify.traces", len(trace_list))
            obs.inc("verify.violations", len(out))
            return out


def check_traces(
    spec: FA,
    traces: Iterable[Trace],
    creation_args: Mapping[str, int],
    jobs: int | None = None,
    *,
    retry=None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> list[Violation]:
    """Convenience wrapper: check ``traces`` against ``spec``."""
    return TemporalChecker(spec, creation_args).check_all(
        traces,
        jobs=jobs,
        retry=retry,
        task_timeout=task_timeout,
        on_fault=on_fault,
    )
