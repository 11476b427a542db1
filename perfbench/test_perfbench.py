"""Tests for the benchmark's own helpers.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench import common, layers  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    Span, Tracer, covered, link_requests, self_times, within,
)
from perfbench.wl_bulk import closure_size  # noqa: E402


# --------------------------------------------------------------------- #
# tail-percentile selection
# --------------------------------------------------------------------- #

def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct = common.tail(values)
    assert value == 90
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_tail_ignores_input_order():
    values = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 11, 12, 20, 19, 18, 17, 16, 15, 14, 13]
    assert common.tail(values) == common.tail(sorted(values))
    assert common.tail(values) == (10, 50.0)


def test_tail_with_too_few_samples_is_the_slowest():
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert common.tail([float(v) for v in range(19)]) == (18.0, 100.0)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        common.tail([])


def test_timing_metrics_count_only_completed_ops():
    out = common.timing_metrics([0.5, 0.5, 1.0, 2.0], 3, [1.0] * 4)
    assert out["ops_per_s"] == pytest.approx(3 / 4.0)
    assert out["op_ms_p50"] == pytest.approx(750.0)
    assert out["op_ms_tail"] == pytest.approx(2000.0)


def test_timing_metrics_scale_each_op_by_its_own_factor():
    out = common.timing_metrics([1.0, 1.0, 2.0], 3, [1.0, 0.5, 2.0])
    assert out["op_ms_p50"] == pytest.approx(1000.0)
    assert out["op_ms_tail"] == pytest.approx(4000.0)
    assert out["ops_per_s"] == pytest.approx(3 / 5.5)


def _host(*loop_ms: float) -> common.HostSpeed:
    host = common.HostSpeed()
    host.samples = [ms / 1e3 for ms in loop_ms]
    return host


def test_local_factors_use_the_samples_near_each_op():
    # A host running the calibration loop twice as slowly as the
    # reference host reports half the raw times.
    ref, slow = common.CAL_REFERENCE_MS, 2 * common.CAL_REFERENCE_MS
    host = _host(ref, ref, ref, slow, slow, slow)
    assert common.local_factors(host, [0, 5], reach=0) == pytest.approx([1.0, 0.5])
    assert common.local_factors(host, [0, 5], reach=1) == pytest.approx([1.0, 0.5])
    # Two samples per slot: slot 1 holds samples 2 and 3.
    assert common.local_factors(host, [1], per_slot=2, reach=0) == pytest.approx([2 / 3])


def test_host_speed_samples_the_loop():
    host = common.HostSpeed()
    host.sample(3)
    assert len(host.samples) == 3
    assert host.factor() > 0


# --------------------------------------------------------------------- #
# self time from span trees
# --------------------------------------------------------------------- #

def _span(id, parent, name, start, end, tag=None, attrs=None):
    return Span(id, parent, name, start, end, tag, attrs)


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert covered([(-1, 2), (8, 12)], 0, 10) == 4
    assert covered([], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, 0, "op", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 2, "b", 2.0, 3.0),
        _span(4, 1, "a", 5.0, 9.0),
        # overlaps its sibling: the union counts, not the sum
        _span(5, 1, "c", 8.0, 9.5),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(10 - 3 - 4.5), 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.5}


def test_self_times_of_a_tree_add_up_to_its_root():
    spans = [
        _span(1, 0, "op", 0.0, 10.0),
        _span(2, 1, "a", 1.0, 4.0),
        _span(3, 2, "b", 2.0, 3.0),
        _span(4, 1, "a", 5.0, 9.0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_within_collects_whole_subtrees_only():
    spans = [
        _span(1, 0, "op", 0, 10),
        _span(2, 1, "a", 1, 2),
        _span(3, 2, "b", 1, 2),
        _span(4, 0, "stray", 11, 12),
        _span(5, 4, "a", 11, 12),
    ]
    assert sorted(s.id for s in within(spans, [1])) == [1, 2, 3]


def test_tracer_records_nesting_and_names_from_parent():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, lambda parent: f"child-of-{parent}")
    outer = tracer.wrap(lambda: inner(), "outer")
    tracer.run("op", outer)
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"op", "outer", "child-of-outer"}
    assert by_name["child-of-outer"].parent == by_name["outer"].id
    assert by_name["outer"].parent == by_name["op"].id
    assert by_name["op"].parent == 0


def test_layer_accounting_closes():
    spans = [
        _span(1, 0, "op", 0.0, 1.0),
        _span(2, 1, "pipeline", 0.1, 0.9),
        _span(3, 2, "fa.relation", 0.2, 0.3, attrs={"events": 10}),
        _span(4, 2, "core.godin", 0.4, 0.8, attrs={"objects": 4}),
        _span(5, 0, "op", 2.0, 2.5),
        _span(6, 5, "lang.dedup", 2.1, 2.2),
    ]
    out = layers.from_op_roots(spans)
    assert out["op.wall.ms"] == pytest.approx(750.0)
    assert out["op.unattributed.ms"] == pytest.approx((200.0 + 400.0) / 2)
    assert out["fa.relation.ns_per_event"] == pytest.approx(1e7)
    assert out["core.godin.us_per_object"] == pytest.approx(1e5)
    assert layers.accounting_gap_ms(out) == pytest.approx(0.0, abs=1e-9)


def test_layer_accounting_notices_an_unknown_layer():
    spans = [_span(1, 0, "op", 0.0, 1.0), _span(2, 1, "mystery", 0.1, 0.6)]
    out = layers.from_op_roots(spans)
    assert layers.accounting_gap_ms(out) == pytest.approx(500.0)


# --------------------------------------------------------------------- #
# linking client requests to server spans
# --------------------------------------------------------------------- #

def test_link_requests_by_tag():
    spans = [
        _span(1, 0, "service.http", 0, 5, tag="c0.0"),
        _span(2, 1, "service.api", 1, 4, tag="c0.0"),
        _span(3, 0, "service.http", 6, 7, tag=None),  # a health probe
        _span(4, 0, "service.http", 8, 9, tag="c0.1"),
    ]
    requests = [{"tag": "c0.0"}, {"tag": "c0.1"}, {"tag": "c0.2"}]
    linked = link_requests(requests, spans)
    assert [s.id for s in linked["c0.0"]] == [1, 2]
    assert [s.id for s in linked["c0.1"]] == [4]
    assert linked["c0.2"] == []


def test_request_layers_split_client_latency():
    from perfbench.wl_serve import request_layers

    spans = [
        _span(1, 0, "service.http", 0.000, 0.010, tag="a"),
        _span(2, 1, "service.api", 0.001, 0.009, tag="a"),
        _span(3, 2, "service.verb", 0.002, 0.008, tag="a"),
    ]
    records = [{"tag": "a", "verb": "label", "seconds": 0.012, "ok": True}]
    problems: list[str] = []
    out = request_layers(records, spans, problems)
    assert problems == []
    assert out["op.wall.ms"] == pytest.approx(12.0)
    assert out["op.unattributed.ms"] == pytest.approx(2.0)
    assert out["service.http_overhead.ms_p50"] == pytest.approx(4.0)
    assert out["serve.verb.label.ms_p50"] == pytest.approx(8.0)
    assert layers.accounting_gap_ms(out) == pytest.approx(0.0, abs=1e-9)


def test_known_defect_409s_are_not_failed_ops():
    from perfbench.wl_serve import failures, resume_failed_ratio

    records = [
        {"verb": "resume", "ok": False, "defect": True},
        {"verb": "resume", "ok": True, "defect": False},
        {"verb": "label", "ok": False, "defect": False},
    ]
    assert failures(records) == 1
    assert resume_failed_ratio(records) == pytest.approx(0.5)


# --------------------------------------------------------------------- #
# the bulk-cluster oracle
# --------------------------------------------------------------------- #

def test_closure_size_counts_intersections_plus_full_set():
    rows = {0b0011, 0b0110}
    # {0011, 0110, 0010} plus the 24-bit full attribute set
    assert closure_size(rows) == 4
