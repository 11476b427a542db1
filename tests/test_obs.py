"""The observability subsystem: spans, metrics, exporters, overhead."""

import io
import json
import time

import pytest

from repro import obs
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.obs.chrometrace import REQUIRED_KEYS, ChromeTraceExporter
from repro.obs.jsonl import JsonlExporter, read_jsonl
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.promtext import (
    metric_name,
    parse_prometheus,
    render_prometheus,
)
from repro.util.rng import make_rng


@pytest.fixture
def recorder():
    rec = obs.configure(record=True)
    try:
        yield rec
    finally:
        obs.shutdown()


def _random_context(num_objects: int, num_attrs: int = 24, row_size: int = 6):
    rng = make_rng(f"obs-{num_objects}")
    pool = [
        frozenset(rng.sample(range(num_attrs), row_size))
        for _ in range(max(4, num_objects // 3))
    ]
    return FormalContext(
        [f"o{i}" for i in range(num_objects)],
        [f"a{i}" for i in range(num_attrs)],
        [rng.choice(pool) for _ in range(num_objects)],
    )


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not obs.is_enabled()
        span = obs.span("anything", objects=3)
        assert span is obs.NOOP_SPAN
        assert span is obs.span("something.else")
        with span as s:
            s.set(more=1)  # all no-ops

    def test_nesting_records_parent_and_depth(self, recorder):
        with obs.span("outer") as outer:
            with obs.span("inner"):
                with obs.span("innermost"):
                    pass
        outer_rec, = recorder.named("outer")
        inner_rec, = recorder.named("inner")
        innermost_rec, = recorder.named("innermost")
        assert outer_rec.parent_id is None and outer_rec.depth == 0
        assert inner_rec.parent_id == outer.span_id and inner_rec.depth == 1
        assert innermost_rec.parent_id == inner_rec.span_id
        assert innermost_rec.depth == 2
        # Children finish first: delivery order is innermost-out.
        assert [s.name for s in recorder.spans] == [
            "innermost", "inner", "outer",
        ]
        assert recorder.children_of(outer_rec) == [inner_rec]
        assert recorder.roots() == [outer_rec]

    def test_exception_is_captured_and_propagates(self, recorder):
        with pytest.raises(ValueError, match="boom"):
            with obs.span("failing"):
                raise ValueError("boom")
        record, = recorder.named("failing")
        assert record.error == "ValueError: boom"
        assert not record.ok
        assert obs.current_span() is None  # stack was unwound

    def test_attributes_set_while_open(self, recorder):
        with obs.span("work", objects=5) as span:
            span.set(concepts=7)
        record, = recorder.named("work")
        assert record.attrs == {"objects": 5, "concepts": 7}

    def test_wall_and_cpu_times_recorded(self, recorder):
        with obs.span("sleepy"):
            time.sleep(0.01)
        record, = recorder.named("sleepy")
        assert record.wall >= 0.009
        assert record.cpu >= 0.0
        assert record.start > 0

    def test_current_span_tracks_innermost(self, recorder):
        assert obs.current_span() is None
        with obs.span("a") as a:
            assert obs.current_span() is a
            with obs.span("b") as b:
                assert obs.current_span() is b
            assert obs.current_span() is a
        assert obs.current_span() is None


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("x") is counter  # same instrument

    def test_gauge_goes_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 8.0

    def test_histogram_bucket_edges_le_semantics(self):
        h = Histogram("h", bounds=(1.0, 5.0, 10.0))
        h.observe(1.0)    # exactly on an edge -> le="1.0" bucket
        h.observe(1.0001)  # just over -> le="5.0" bucket
        h.observe(5.0)
        h.observe(10.0)
        h.observe(10.0001)  # overflow -> +Inf only
        assert h.counts == [1, 2, 1, 1]
        cumulative = h.cumulative()
        assert cumulative == [(1.0, 1), (5.0, 3), (10.0, 4), (float("inf"), 5)]
        assert h.count == 5
        assert h.mean == pytest.approx((1.0 + 1.0001 + 5.0 + 10.0 + 10.0001) / 5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("dup", bounds=(1.0, 1.0))

    def test_default_buckets_cover_span_durations(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.3)
        snapshot = registry.snapshot()
        round_trip = json.loads(json.dumps(snapshot))
        assert round_trip["counters"] == {"c": 1.0}
        assert round_trip["gauges"] == {"g": 2.0}
        assert round_trip["histograms"]["h"]["count"] == 1
        assert round_trip["histograms"]["h"]["buckets"][-1][0] == "+Inf"

    def test_module_level_helpers_record_when_enabled(self, recorder):
        obs.inc("c", 2)
        obs.set_gauge("g", 7)
        obs.observe("h", 0.02)
        registry = recorder.registry
        assert registry.counter("c").value == 2
        assert registry.gauge("g").value == 7
        assert registry.histogram("h").count == 1

    def test_module_level_helpers_noop_when_disabled(self):
        assert not obs.is_enabled()
        obs.inc("nope")
        obs.set_gauge("nope", 1)
        obs.observe("nope", 1.0)
        obs.event("nope")
        assert obs.get_registry() is None


class TestJsonlExporter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        registry = MetricsRegistry()
        registry.counter("godin.inserts").inc(3)
        exporter = JsonlExporter(path, registry=registry)
        obs.configure(exporter)
        try:
            with obs.span("outer", objects=2):
                with obs.span("inner"):
                    pass
            obs.event("budget.exceeded", dimension="wall")
        finally:
            obs.shutdown()
        records = read_jsonl(path)
        types = [r["type"] for r in records]
        assert types == ["span", "span", "event", "metrics"]
        inner, outer = records[0], records[1]
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"] == {"objects": 2}
        assert records[2]["name"] == "budget.exceeded"
        assert records[3]["counters"] == {"godin.inserts": 3.0}

    def test_streams_to_file_like(self):
        buffer = io.StringIO()
        exporter = JsonlExporter(buffer)
        obs.configure(exporter)
        try:
            with obs.span("only"):
                pass
        finally:
            obs.shutdown()
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "only"

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n')
        with pytest.raises(ValueError, match="not valid JSON"):
            read_jsonl(path)
        path.write_text('{"no_type": 1}\n')
        with pytest.raises(ValueError, match="lacks a 'type' tag"):
            read_jsonl(path)


class TestChromeTraceExporter:
    def test_events_carry_required_keys(self, tmp_path):
        path = tmp_path / "trace.json"
        obs.configure(ChromeTraceExporter(path))
        try:
            with obs.span("pipeline.run", spec="XtFree"):
                with obs.span("godin.insert"):
                    pass
            obs.event("budget.exceeded")
        finally:
            obs.shutdown()
        events = json.loads(path.read_text())
        assert len(events) == 3
        for event in events:
            for key in REQUIRED_KEYS:
                assert key in event, f"{event['name']} lacks {key}"
        complete = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"pipeline.run", "godin.insert"}
        # Relative microsecond timestamps: the earliest span starts at ~0.
        assert min(e["ts"] for e in complete) == 0.0
        by_name = {e["name"]: e for e in complete}
        assert by_name["pipeline.run"]["args"]["spec"] == "XtFree"
        assert by_name["pipeline.run"]["cat"] == "pipeline"
        instant, = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "budget.exceeded"


class TestPrometheusExporter:
    def test_render_and_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("learner.merges").inc(12)
        registry.gauge("lattice.concepts").set(28)
        h = registry.histogram("span.wall", (0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(2.0)
        text = render_prometheus(registry)
        assert "# TYPE repro_learner_merges counter" in text
        assert "# TYPE repro_span_wall histogram" in text
        samples = parse_prometheus(text)
        assert samples["repro_learner_merges"] == 12
        assert samples["repro_lattice_concepts"] == 28
        assert samples['repro_span_wall_bucket{le="0.1"}'] == 1
        assert samples['repro_span_wall_bucket{le="1"}'] == 2
        assert samples['repro_span_wall_bucket{le="+Inf"}'] == 3
        assert samples["repro_span_wall_count"] == 3
        assert samples["repro_span_wall_sum"] == pytest.approx(2.55)

    def test_metric_name_sanitization(self):
        assert metric_name("lattice.concepts") == "repro_lattice_concepts"
        assert metric_name("weird-name!") == "repro_weird_name_"
        assert metric_name("0day") == "repro__0day"

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="not a Prometheus sample"):
            parse_prometheus("this is not a sample\n")

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestConfigure:
    def test_configure_requires_something(self):
        with pytest.raises(ValueError):
            obs.configure()
        assert not obs.is_enabled()

    def test_configure_and_shutdown_toggle(self):
        recorder = obs.configure(record=True)
        assert obs.is_enabled()
        assert obs.get_registry() is recorder.registry
        obs.shutdown()
        assert not obs.is_enabled()
        assert recorder.closed

    def test_registry_alone_is_metrics_only(self):
        registry = obs.MetricsRegistry()
        assert obs.configure(registry=registry) is None
        try:
            assert obs.get_registry() is registry
            assert not obs.is_enabled()
            assert obs.span("nothing-kept") is obs.NOOP_SPAN
            obs.event("dropped")
            obs.inc("kept")
            obs.observe("kept_seconds", 0.5)
            assert registry.counter("kept").value == 1.0
            assert registry.histogram("kept_seconds").count == 1
        finally:
            obs.shutdown()
        assert obs.get_registry() is None

    def test_multi_sink_fans_out(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = obs.configure(record=True, trace_path=str(path))
        try:
            with obs.span("both"):
                pass
        finally:
            obs.shutdown()
        assert [s.name for s in recorder.spans] == ["both"]
        assert [r["name"] for r in read_jsonl(path) if r["type"] == "span"] == [
            "both"
        ]

    def test_env_directives(self, tmp_path):
        from repro.obs.config import _configure_from_env

        path = tmp_path / "env.jsonl"
        _configure_from_env(f"record,jsonl:{path}")
        try:
            assert obs.is_enabled()
            with obs.span("from-env"):
                pass
        finally:
            obs.shutdown()
        assert read_jsonl(path)[0]["name"] == "from-env"
        with pytest.raises(ValueError, match="bad REPRO_OBS directive"):
            _configure_from_env("bogus:x")


class TestPipelineInstrumentation:
    def test_godin_build_emits_spans_and_metrics(self, recorder):
        context = _random_context(30)
        lattice = build_lattice_godin(context)
        build, = recorder.named("godin.build")
        # Batch construction: one godin.batch_insert span for the whole
        # row block (not one span per object), same insert counter.
        batch, = recorder.named("godin.batch_insert")
        assert batch.parent_id == build.span_id
        assert batch.attrs["objects"] == 30
        assert build.attrs["concepts"] == len(lattice)
        registry = recorder.registry
        assert registry.counter("godin.inserts").value == 30
        assert registry.gauge("lattice.concepts").value == len(lattice)

    def test_run_spec_records_phases(self, recorder):
        from repro.workloads.pipeline import PHASES, run_spec

        run = run_spec("XGetSelOwner")
        root, = recorder.named("pipeline.run_spec")
        assert root.attrs["spec"] == "XGetSelOwner"
        phase_names = {
            s.name for s in recorder.spans if s.name.startswith("phase.")
        }
        # ``lint`` runs (and gets a span) only with ``lint=True``.
        assert phase_names == {f"phase.{p}" for p in PHASES if p != "lint"}
        assert set(run.phase_seconds) == set(PHASES) - {"lint"}
        assert run.total_seconds == pytest.approx(
            sum(run.phase_seconds.values())
        )
        assert run.lattice_seconds == run.phase_seconds["cluster"]
        assert "tracegen" in run.describe_phases()
        assert recorder.registry.counter("pipeline.runs").value == 1

    def test_profile_report_from_recorder(self, recorder):
        with obs.span("pipeline.profile"):
            with obs.span("phase.lattice"):
                pass
            with obs.span("phase.verify"):
                pass
        obs.inc("verify.violations", 4)
        report = obs.ProfileReport.from_recorder("demo", recorder)
        assert list(report.phases()) == ["lattice", "verify"]
        assert report.total_seconds == pytest.approx(
            recorder.named("pipeline.profile")[0].wall
        )
        doc = report.to_dict()
        assert doc["version"] == 1 and doc["name"] == "demo"
        assert set(doc["phases"]) == {"lattice", "verify"}
        assert doc["metrics"]["counters"]["verify.violations"] == 4
        rendered = report.render()
        assert "profile: demo" in rendered
        assert "verify.violations" in rendered


class TestOverheadGuard:
    def test_disabled_obs_overhead_under_five_percent(self):
        """The ISSUE's guard: with no sink configured, the instrumentation
        left in a 200-object Godin build must cost <5% of the build.

        Measured as per-call no-op cost x number of instrumentation calls
        the build makes (one span + one counter per insert, plus the build
        span and gauge) against the measured build time — this is robust
        to scheduler noise, unlike differencing two timed builds.
        """
        obs.shutdown()
        assert not obs.is_enabled()
        context = _random_context(200)
        build_lattice_godin(context)  # warm-up
        build_seconds = min(
            self._timed_build(context) for _ in range(3)
        )

        calls = 20_000
        per_call = min(self._timed_noops(calls) for _ in range(5)) / calls
        # One obs.span + one obs.inc per insert, +2 for build span/gauge.
        estimated_overhead = per_call * (len(context.objects) + 2)
        assert estimated_overhead < 0.05 * build_seconds, (
            f"no-op instrumentation estimated at {estimated_overhead:.6f}s "
            f"on a {build_seconds:.6f}s build"
        )

    @staticmethod
    def _timed_build(context) -> float:
        start = time.perf_counter()
        build_lattice_godin(context)
        return time.perf_counter() - start

    @staticmethod
    def _timed_noops(calls: int) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            with obs.span("godin.insert", objects=1):
                pass
            obs.inc("godin.inserts")
        return time.perf_counter() - start
