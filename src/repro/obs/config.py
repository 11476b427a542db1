"""Global observability state: the active sink, registry, and bootstrap.

The default state is **disabled**: no sink, no registry, and every
``obs.span`` / ``obs.inc`` call is a near-free no-op.  Enable either
programmatically::

    from repro import obs
    recorder = obs.configure(record=True)          # in-memory, for tests
    obs.configure(trace_path="run.jsonl",          # JSON-lines events
                  chrome_path="run.trace.json",    # chrome://tracing
                  metrics_path="run.prom")         # Prometheus text dump

or through the environment (read once, on first import)::

    REPRO_OBS=record
    REPRO_OBS=jsonl:/tmp/run.jsonl,prom:/tmp/run.prom,chrome:/tmp/run.json

File-backed exporters flush on :func:`shutdown` (registered with
``atexit``, so CLI runs write their artifacts even on early exit).
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Any, Protocol

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord

if TYPE_CHECKING:
    from repro.obs.recorder import InMemoryRecorder

#: Environment variable that enables observability at process start.
ENV_VAR = "REPRO_OBS"


class Sink(Protocol):
    """Where finished spans and point events go."""

    def on_span(self, record: SpanRecord) -> None: ...

    def on_event(self, name: str, attrs: dict[str, Any]) -> None: ...

    def close(self) -> None: ...


class MultiSink:
    """Fan out to several sinks (close order = registration order)."""

    def __init__(self, sinks: list[Sink]) -> None:
        self.sinks = list(sinks)

    def on_span(self, record: SpanRecord) -> None:
        for sink in self.sinks:
            sink.on_span(record)

    def on_event(self, name: str, attrs: dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.on_event(name, attrs)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class _State:
    __slots__ = ("sink", "registry")

    def __init__(self) -> None:
        self.sink: Sink | None = None
        self.registry: MetricsRegistry | None = None


STATE = _State()


def is_enabled() -> bool:
    """True when a sink is configured (spans are recorded).  Metrics are
    recorded whenever :func:`get_registry` is not ``None``."""
    return STATE.sink is not None


def get_registry() -> MetricsRegistry | None:
    """The active metrics registry, or None when disabled."""
    return STATE.registry


def get_sink() -> Sink | None:
    """The active sink, or None when disabled."""
    return STATE.sink


def configure(
    sink: Sink | None = None,
    *,
    record: bool = False,
    trace_path: str | None = None,
    chrome_path: str | None = None,
    metrics_path: str | None = None,
    registry: MetricsRegistry | None = None,
) -> "InMemoryRecorder | Sink | None":
    """Enable observability; replaces (and closes) any previous sink.

    Pass an explicit ``sink``, or let the convenience keywords assemble
    one: ``record=True`` adds an in-memory recorder (returned, so tests
    can read it back), ``trace_path`` a JSON-lines exporter,
    ``chrome_path`` a Chrome-trace exporter, and ``metrics_path`` a
    Prometheus text dump written at :func:`shutdown`.

    A ``registry`` alone configures metrics only: counters, gauges and
    histograms go to it, spans are the shared no-op and events are
    dropped, so nothing accumulates per call (returns ``None``).  A
    long-running server uses this to back ``/metrics``.
    """
    from repro.obs.chrometrace import ChromeTraceExporter
    from repro.obs.jsonl import JsonlExporter
    from repro.obs.promtext import PrometheusTextExporter
    from repro.obs.recorder import InMemoryRecorder

    shutdown()
    new_registry = registry if registry is not None else MetricsRegistry()
    sinks: list[Sink] = [sink] if sink is not None else []
    recorder: InMemoryRecorder | None = None
    if record:
        recorder = InMemoryRecorder(registry=new_registry)
        sinks.append(recorder)
    if trace_path:
        sinks.append(JsonlExporter(trace_path, registry=new_registry))
    if chrome_path:
        sinks.append(ChromeTraceExporter(chrome_path))
    if metrics_path:
        sinks.append(
            PrometheusTextExporter(metrics_path, registry=new_registry)
        )
    if not sinks and registry is None:
        raise ValueError(
            "configure() needs a sink, record=True, an exporter path, "
            "or a registry"
        )
    STATE.registry = new_registry
    if sinks:
        STATE.sink = sinks[0] if len(sinks) == 1 else MultiSink(sinks)
    return recorder if recorder is not None else STATE.sink


def shutdown() -> None:
    """Close the active sink (flushing file exporters) and disable."""
    sink, STATE.sink = STATE.sink, None
    STATE.registry = None
    if sink is not None:
        sink.close()


def _configure_from_env(value: str) -> None:
    """Parse ``REPRO_OBS`` directives: ``record`` / ``1`` / ``on`` for the
    in-memory recorder, ``jsonl:PATH``, ``chrome:PATH``, ``prom:PATH``;
    comma-separated directives combine."""
    kwargs: dict[str, Any] = {}
    for directive in value.split(","):
        directive = directive.strip()
        if not directive:
            continue
        if directive in ("1", "on", "record"):
            kwargs["record"] = True
        elif directive.startswith("jsonl:"):
            kwargs["trace_path"] = directive[len("jsonl:"):]
        elif directive.startswith("chrome:"):
            kwargs["chrome_path"] = directive[len("chrome:"):]
        elif directive.startswith("prom:"):
            kwargs["metrics_path"] = directive[len("prom:"):]
        else:
            raise ValueError(
                f"bad {ENV_VAR} directive {directive!r} "
                "(use record, jsonl:PATH, chrome:PATH, prom:PATH)"
            )
    if kwargs:
        configure(**kwargs)


def _bootstrap() -> None:
    value = os.environ.get(ENV_VAR, "").strip()
    if value and value.lower() not in ("0", "off", ""):
        _configure_from_env(value)


atexit.register(shutdown)
_bootstrap()
