"""The event/trace language shared by every subsystem.

A *program execution trace* is a sequence of ground events such as
``fopen(f1)`` or ``fread(f1)``; a temporal specification's transitions are
labeled by *event patterns* such as ``fclose(X)`` that bind object names.
This package defines both, plus parsing, and the trace containers used by
the verifier, the miner, and Cable.
"""

from repro.lang.events import (
    ANY,
    Event,
    EventPattern,
    Lit,
    Var,
    WILDCARD_SYMBOL,
    parse_event,
    parse_pattern,
)
from repro.lang.traces import (
    Trace,
    TraceSet,
    dedup_traces,
    parse_trace,
    parse_traces,
)

__all__ = [
    "ANY",
    "Event",
    "EventPattern",
    "Lit",
    "Var",
    "WILDCARD_SYMBOL",
    "parse_event",
    "parse_pattern",
    "Trace",
    "TraceSet",
    "dedup_traces",
    "parse_trace",
    "parse_traces",
]
