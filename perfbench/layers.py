"""Which public functions of each layer the traced run wraps, and how the
recorded spans turn into the per-layer metrics.

Span names are the metric stems: a span named ``core.godin`` feeds
``core.godin.ms``.  Every span name below reports its self time, so the
self times of one workload plus ``op.unattributed.ms`` add up to
``op.wall.ms``.
"""

from __future__ import annotations

from perfbench.common import median, tail
from perfbench.tracer import (
    Span, Tracer, patch_function, patch_method, self_by_name, self_times, within,
)

#: Every span name a wrapper can record; each reports ``<name>.ms``
#: except the two whose self time has a name of its own.
SPAN_NAMES = (
    "fa.relation",
    "parallel.relation_map",
    "lang.dedup",
    "core.context",
    "core.godin",
    "core.godin.insert",
    "core.extend",
    "tracegen",
    "mining.front_end",
    "learners.sk_strings.reference",
    "learners.sk_strings.remine",
    "strategies.expert",
    "strategies.top_down",
    "strategies.bottom_up",
    "strategies.random",
    "strategies.optimal",
    "pipeline",
    "cable.persist.save",
    "cable.persist.load",
    "service.http",
    "service.api",
    "service.manager",
    "service.lock",
    "service.verb",
)

#: Span name -> metric name for the self-time metrics.
SELF_METRIC = {name: f"{name}.ms" for name in SPAN_NAMES}
SELF_METRIC["parallel.relation_map"] = "parallel.relation_map.overhead_ms"
SELF_METRIC["pipeline"] = "pipeline.unattributed.ms"

#: Request header carrying the client's tag for one request.
TAG_HEADER = "X-Perfbench-Tag"

#: Logical serve-session verbs with a per-verb latency metric.
SERVE_VERBS = (
    "create", "lattice", "inspect", "label", "addtraces", "suspend", "resume", "kill",
)


def _sk_name(parent: str | None) -> str:
    """sk-strings learning is charged to the caller that asked for it."""
    if parent == "learners.sk_strings.remine":
        return parent
    return "learners.sk_strings.reference"


def install(tracer: Tracer) -> None:
    """Wrap every measured layer's public functions with ``tracer``."""
    import repro.cable.persist as persist
    import repro.core.godin as godin
    import repro.core.trace_clustering as clustering
    import repro.learners.sk_strings as sk_strings
    import repro.lang.traces as traces
    import repro.parallel.relation as relation
    import repro.strategies.runner as runner
    import repro.workloads.pipeline as pipeline
    import repro.workloads.tracegen as tracegen
    from repro.core.context import BitContext, FormalContext
    from repro.fa.automaton import FA
    from repro.mining.strauss import Strauss
    from repro.service.api import SessionService
    from repro.service.manager import SessionManager
    from repro.workloads.xlib_model import SpecModel

    patch_method(tracer, FA, "relation", "fa.relation",
                 lambda fa, trace: {"events": len(trace)})
    patch_function(tracer, relation, "relation_map", "parallel.relation_map",
                   lambda fa, traces, **kw: {"traces": len(traces)})
    patch_function(tracer, traces, "dedup_traces", "lang.dedup")
    patch_method(tracer, FormalContext, "__init__", "core.context")
    patch_method(tracer, BitContext, "__init__", "core.context")
    patch_function(tracer, godin, "build_lattice_godin", "core.godin",
                   lambda context, *a, **kw: {"objects": context.num_objects})
    patch_method(tracer, godin.GodinLatticeBuilder, "build", "core.godin")
    patch_method(tracer, godin.GodinLatticeBuilder, "from_lattice", "core.godin")
    patch_method(tracer, godin.GodinLatticeBuilder, "add_object", "core.godin.insert")
    patch_function(tracer, clustering, "extend_clustering", "core.extend")
    patch_function(tracer, tracegen, "generate_program_traces", "tracegen")
    patch_method(tracer, Strauss, "front_end", "mining.front_end")
    patch_method(tracer, SpecModel, "reference_fa", "learners.sk_strings.reference")
    patch_method(tracer, SpecModel, "debugged_fa", "learners.sk_strings.remine")
    patch_function(tracer, sk_strings, "learn_sk_strings", _sk_name,
                   lambda *a, **kw: {"learn": 1})
    for attr, name in (
        ("expert_strategy", "strategies.expert"),
        ("top_down_strategy", "strategies.top_down"),
        ("bottom_up_strategy", "strategies.bottom_up"),
        ("random_strategy_mean", "strategies.random"),
        ("optimal_cost", "strategies.optimal"),
    ):
        patch_function(tracer, runner, attr, name)
    patch_function(tracer, pipeline, "run_spec", "pipeline")
    patch_function(tracer, persist, "save_session", "cable.persist.save")
    patch_function(tracer, persist, "load_session_with_recovery", "cable.persist.load")
    for attr in ("create", "kill", "handle_verb"):
        patch_method(tracer, SessionService, attr, "service.api")
    for attr in list(vars(SessionService)):
        if attr.startswith("_verb_"):
            patch_method(tracer, SessionService, attr, "service.verb")
    for attr in ("create", "kill", "suspend", "_resume"):
        patch_method(tracer, SessionManager, attr, "service.manager")
    patch_method(tracer, SessionManager, "run", "service.lock")


def install_http(tracer: Tracer) -> None:
    """Wrap the server's request dispatch; the client's request tag
    (header :data:`TAG_HEADER`) marks every span of that request."""
    from repro.service.server import CableRequestHandler

    dispatch = tracer.wrap(CableRequestHandler._dispatch, "service.http")

    def tagged(handler, method):
        tracer.set_tag(handler.headers.get(TAG_HEADER))
        try:
            return dispatch(handler, method)
        finally:
            tracer.set_tag(None)

    CableRequestHandler._dispatch = tagged


def layer_metrics(spans: list[Span], ops: int, op_wall_s: float,
                  unattributed_s: float) -> dict[str, float]:
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    ``op_wall_s`` is the ops' total wall time and ``unattributed_s`` the
    part no layer span covers; the self times below plus it add up to it.
    """
    self_s = self_by_name(spans)
    by_id = {span.id: span for span in spans}
    out = {SELF_METRIC[name]: self_s.get(name, 0.0) * 1e3 / ops for name in SPAN_NAMES}

    relation = [s for s in spans if s.name == "fa.relation"]
    rel_s = sum(s.duration for s in relation)
    events = sum(s.attrs["events"] for s in relation)
    out["fa.relation.calls"] = len(relation) / ops
    out["fa.relation.us_per_trace"] = rel_s * 1e6 / len(relation) if relation else 0.0
    out["fa.relation.ns_per_event"] = rel_s * 1e9 / events if events else 0.0

    mapped = sum(s.attrs["traces"] for s in spans if s.name == "parallel.relation_map")
    under_map = sum(
        1 for s in relation
        if s.parent in by_id and by_id[s.parent].name == "parallel.relation_map"
    )
    out["parallel.relation_cache.hit_ratio"] = 1.0 - under_map / mapped if mapped else 0.0

    batch = [s for s in spans if s.name == "core.godin" and s.attrs]
    objects = sum(s.attrs["objects"] for s in batch)
    batch_s = sum(s.duration for s in batch)
    out["core.godin.us_per_object"] = batch_s * 1e6 / objects if objects else 0.0
    inserts = [s.duration for s in spans if s.name == "core.godin.insert"]
    out["core.godin.insert_us"] = sum(inserts) * 1e6 / len(inserts) if inserts else 0.0
    out["learners.sk_strings.calls"] = sum(
        1 for s in spans if s.attrs and "learn" in s.attrs
    ) / ops

    out["op.wall.ms"] = op_wall_s * 1e3 / ops
    out["op.unattributed.ms"] = unattributed_s * 1e3 / ops
    return out


def from_op_roots(spans: list[Span]) -> dict[str, float]:
    """Layer metrics over ops recorded as root spans named ``op``; the
    roots' own self time is the unattributed part."""
    roots = [span for span in spans if span.name == "op" and not span.parent]
    inside = within(spans, [root.id for root in roots])
    own = self_times(inside)
    return layer_metrics(
        inside,
        len(roots),
        sum(root.duration for root in roots),
        sum(own[root.id] for root in roots),
    )


def accounting_gap_ms(metrics: dict[str, float]) -> float:
    """``op.wall.ms`` minus the layer self times and ``op.unattributed.ms``."""
    parts = sum(metrics[SELF_METRIC[name]] for name in SPAN_NAMES)
    return metrics["op.wall.ms"] - parts - metrics["op.unattributed.ms"]


def verb_metrics(requests: list[dict]) -> dict[str, float]:
    """Server-side latency per logical serve-session verb."""
    out = {}
    for verb in SERVE_VERBS:
        ms = [r["server_ms"] for r in requests if r["verb"] == verb]
        out[f"serve.verb.{verb}.ms_p50"] = median(ms) if ms else 0.0
        if verb in ("create", "addtraces"):
            out[f"serve.verb.{verb}.ms_tail"] = tail(ms)[0] if ms else 0.0
    return out
