"""The repro.parallel execution layer: pool, cache, and fan-out sites."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.trace_clustering import cluster_traces
from repro.fa.templates import unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace, parse_trace
from repro.parallel import (
    MapCheckpoint,
    RelationCache,
    auto_chunk_size,
    cached_relation,
    parallel_map,
    relation_cache,
    relation_map,
    resolve_jobs,
)
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded, InputError

SYMBOLS = ("open", "read", "write", "close")


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _slow_square(x):
    import time

    time.sleep(0.02)
    return x * x


@st.composite
def traces(draw, min_traces=1, max_traces=10):
    count = draw(st.integers(min_traces, max_traces))
    out = []
    for i in range(count):
        length = draw(st.integers(1, 5))
        symbols = [draw(st.sampled_from(SYMBOLS)) for _ in range(length)]
        out.append(
            Trace(tuple(Event(s, ("X",)) for s in symbols), trace_id=f"t{i}")
        )
    return out


class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            resolve_jobs(-2)

    def test_bool_rejected(self):
        with pytest.raises(InputError):
            resolve_jobs(True)


class TestAutoChunkSize:
    def test_targets_a_few_chunks_per_worker(self):
        assert auto_chunk_size(100, 4) == 7  # ceil(100 / 16)

    def test_never_below_one(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(3, 8) == 1


class TestParallelMap:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_ordering_matches_serial(self, backend):
        items = list(range(23))
        expected = [_square(x) for x in items]
        assert parallel_map(_square, items, jobs=3, backend=backend) == expected

    def test_empty_input(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_unknown_backend_rejected(self):
        for backend in ("fiber", "thread"):
            with pytest.raises(InputError):
                parallel_map(_square, [1], backend=backend)

    @pytest.mark.parametrize("backend", ["process"])
    def test_explicit_chunk_size(self, backend):
        items = list(range(17))
        got = parallel_map(_square, items, jobs=2, backend=backend, chunk_size=3)
        assert got == [_square(x) for x in items]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2, backend="process")

    def test_serial_budget_cancellation_carries_checkpoint(self):
        # The fake clock advances one second per reading, so the wall
        # budget trips deterministically after two completed items.
        ticks = iter(range(100))
        budget = Budget(wall_seconds=2.5)
        with pytest.raises(BudgetExceeded) as exc_info:
            parallel_map(
                _square,
                list(range(10)),
                jobs=1,
                budget=budget,
                clock=lambda: float(next(ticks)),
            )
        checkpoint = exc_info.value.checkpoint
        assert isinstance(checkpoint, MapCheckpoint)
        assert checkpoint.total == 10
        assert 0 < checkpoint.done < 10
        assert all(checkpoint.completed[i] == i * i for i in checkpoint.completed)

    def test_checkpoint_resume_completes(self):
        ticks = iter(range(100))
        with pytest.raises(BudgetExceeded) as exc_info:
            parallel_map(
                _square,
                list(range(10)),
                jobs=1,
                budget=Budget(wall_seconds=2.5),
                clock=lambda: float(next(ticks)),
            )
        resumed = parallel_map(
            _square, list(range(10)), jobs=1, checkpoint=exc_info.value.checkpoint
        )
        assert resumed == [x * x for x in range(10)]

    def test_pooled_budget_cancellation(self):
        # chunk_size=1 with a ticking clock: the very first budget check
        # (between chunk completions) trips while most of the 50 slow
        # chunks are still queued, cancelling them mid-fan-out.
        ticks = iter(range(1000))
        with pytest.raises(BudgetExceeded) as exc_info:
            parallel_map(
                _slow_square,
                list(range(50)),
                jobs=2,
                backend="process",
                chunk_size=1,
                budget=Budget(wall_seconds=0.5),
                clock=lambda: float(next(ticks)),
            )
        checkpoint = exc_info.value.checkpoint
        assert isinstance(checkpoint, MapCheckpoint)
        assert checkpoint.remaining > 0
        assert all(checkpoint.completed[i] == i * i for i in checkpoint.completed)


class TestRelationCache:
    def test_hit_and_miss_counters(self):
        cache = RelationCache(maxsize=8)
        fa = unordered_fa(["open(X)", "close(X)"])
        t = parse_trace("open(x); close(x)")
        assert cache.get(t.key()) is None
        cache.put(t.key(), fa.relation(t))
        assert cache.get(t.key()) == fa.relation(t)
        assert cache.stats() == {
            "size": 1, "hits": 1, "misses": 1, "invalidations": 0
        }

    def test_lru_eviction(self):
        cache = RelationCache(maxsize=2)
        fa = unordered_fa(["a(X)"])
        t1, t2, t3 = (parse_trace("a(x)" + "; a(x)" * i) for i in range(3))
        for t in (t1, t2, t3):
            cache.put(t.key(), fa.relation(t))
        assert len(cache) == 2
        assert cache.get(t1.key()) is None  # evicted, oldest

    def test_cached_relation_shared_per_fa(self):
        fa = unordered_fa(["open(X)", "close(X)"])
        t = parse_trace("open(x); close(x)")
        first = cached_relation(fa, t)
        assert cached_relation(fa, t) == first
        assert relation_cache(fa).hits >= 1

    def test_key_ignores_trace_id(self):
        fa = unordered_fa(["open(X)"])
        cache = RelationCache()
        a = parse_trace("open(x)", trace_id="a")
        b = parse_trace("open(x)", trace_id="b")
        cache.put(a.key(), fa.relation(a))
        assert cache.get(b.key()) is not None

    def test_mutated_fa_invalidates_rows(self):
        # Regression: rows cached before the FA's language-defining
        # attributes are reassigned must not be served afterwards.
        fa = unordered_fa(["open(X)", "close(X)"])
        t = parse_trace("open(x); close(x)")
        cache = RelationCache(fa=fa)
        stale = fa.relation(t)
        cache.put(t.key(), stale)
        assert cache.get(t.key()) == stale
        fa.accepting = frozenset()  # version bump: language changed
        assert cache.get(t.key()) is None
        assert cache.invalidations == 1
        fresh = fa.relation(t)
        assert not fresh.accepted
        cache.put(t.key(), fresh)
        assert cache.get(t.key()) == fresh  # same version: no re-drop
        assert cache.invalidations == 1

    def test_shared_cache_survives_mutation(self):
        fa = unordered_fa(["open(X)"])
        t = parse_trace("open(x)")
        assert cached_relation(fa, t).accepted
        fa.accepting = frozenset()
        # The shared per-FA cache watches the version, so the stale
        # accepting row is dropped rather than returned.
        assert not cached_relation(fa, t).accepted
        assert relation_cache(fa).invalidations >= 1

    def test_unwatched_cache_keeps_rows(self):
        # Without fa=..., there is nothing to watch — documented behavior.
        fa = unordered_fa(["open(X)"])
        t = parse_trace("open(x)")
        cache = RelationCache()
        cache.put(t.key(), fa.relation(t))
        fa.accepting = frozenset()
        assert cache.get(t.key()) is not None


class TestRelationMap:
    def test_matches_direct_evaluation(self):
        fa = unordered_fa([f"{s}(X)" for s in SYMBOLS])
        ts = [parse_trace("open(x); close(x)"), parse_trace("read(x)")]
        got = relation_map(fa, ts, cache=False)
        assert [r.executed for r in got] == [
            fa.executed_transitions(t) for t in ts
        ]
        assert [r.accepted for r in got] == [fa.accepts(t) for t in ts]

    def test_cache_hit_path_equivalent(self):
        fa = unordered_fa([f"{s}(X)" for s in SYMBOLS])
        ts = [parse_trace("open(x); close(x)"), parse_trace("read(x); read(x)")]
        cache = RelationCache()
        cold = relation_map(fa, ts, cache=cache)
        assert cache.misses == len(ts)
        warm = relation_map(fa, ts, cache=cache)
        assert warm == cold
        assert cache.hits == len(ts)

    def test_in_batch_duplicates_evaluated_once(self):
        fa = unordered_fa(["open(X)"])
        cache = RelationCache()
        ts = [parse_trace("open(x)", trace_id=f"d{i}") for i in range(5)]
        results = relation_map(fa, ts, cache=cache)
        assert len(set(results)) == 1
        assert cache.misses == 5  # one probe per occurrence...
        assert len(cache) == 1  # ...but a single evaluation stored

    def test_budget_trip_banks_completed_chunks_for_resume(self):
        fa = unordered_fa([f"{s}(X)" for s in SYMBOLS])
        ts = [
            Trace((Event("open", ("X",)),) * (1 + i % 3), trace_id=f"t{i}")
            for i in range(12)
        ]
        cache = RelationCache()
        ticks = iter(range(1000))
        with pytest.raises(BudgetExceeded) as exc_info:
            relation_map(
                fa,
                ts,
                cache=cache,
                budget=Budget(wall_seconds=2.5),
                clock=lambda: float(next(ticks)),
            )
        assert exc_info.value.checkpoint is not None
        banked = len(cache)
        assert banked > 0
        # Resume: the banked rows come from the cache; only the rest run.
        resumed = relation_map(fa, ts, cache=cache)
        assert resumed == relation_map(fa, ts, cache=False)


class TestVerifierFanOut:
    def test_check_all_parallel_equals_serial(self):
        from repro.verify.checker import TemporalChecker
        from repro.workloads.stdio import buggy_spec

        traces = [
            parse_trace("fopen(f1); fread(f1); fclose(f1)", trace_id="p0"),
            parse_trace("fopen(f1); fclose(f1); fread(f1)", trace_id="p1"),
            parse_trace("popen(p1); pclose(p1)", trace_id="p2"),
            parse_trace("fopen(f2); fread(f2)", trace_id="p3"),
        ]
        checker = TemporalChecker(buggy_spec(), {"fopen": 0, "popen": 0})
        serial = checker.check_all(traces)
        parallel = checker.check_all(traces, jobs=2)
        assert [str(v) for v in parallel] == [str(v) for v in serial]


class TestClusteringEquivalenceProperty:
    """Parallel clustering is bit-identical to serial on random corpora."""

    @staticmethod
    def _canonical(clustering):
        lattice = clustering.lattice
        return {
            "extents": [c.extent for c in lattice.concepts],
            "intents": [c.intent for c in lattice.concepts],
            "covers": [tuple(lattice.children[c]) for c in lattice],
            "objects": lattice.context.objects,
            "attributes": lattice.context.attributes,
            "rows": lattice.context.rows,
            "representatives": [t.key() for t in clustering.representatives],
            "counts": clustering.class_counts,
            "rejected": [t.key() for t in clustering.rejected],
        }

    @given(traces())
    @settings(max_examples=6, deadline=None)
    def test_process_backend_identical(self, ts):
        reference = unordered_fa([f"{s}(X)" for s in SYMBOLS[:3]])
        serial = cluster_traces(ts, reference)
        processed = cluster_traces(ts, reference, jobs=2)
        assert self._canonical(serial) == self._canonical(processed)

    def test_smoke_jobs2_both_backends_with_rejections(self):
        """The CI parallel-smoke entry point: jobs=2, rejected traces in
        the corpus, serial against process, full structural equality."""
        reference = unordered_fa(["open(X)", "close(X)"])
        ts = [
            parse_trace("open(x); close(x)"),
            parse_trace("read(x)"),  # rejected
            parse_trace("close(x); open(x)"),
            parse_trace("open(x); close(x)"),  # duplicate class
        ]
        serial = cluster_traces(ts, reference)
        par = cluster_traces(ts, reference, jobs=2)
        assert self._canonical(serial) == self._canonical(par)


class TestObsIntegration:
    def test_relation_map_emits_span_and_counters(self):
        recorder = obs.configure(record=True)
        try:
            fa = unordered_fa(["open(X)"])
            ts = [parse_trace("open(x)"), parse_trace("open(x)")]
            cache = RelationCache()
            relation_map(fa, ts, cache=cache)  # cold: one distinct miss
            relation_map(fa, ts, cache=cache)  # warm: both hit
            spans = [s.name for s in recorder.spans]
            assert "relation.map" in spans
            assert "parallel.map" in spans
            # jobs=None runs serially; both spans record that backend.
            for name in ("relation.map", "parallel.map"):
                assert {s.attrs["backend"] for s in recorder.named(name)} == {
                    "serial"
                }
            counters = recorder.registry.snapshot()["counters"]
            assert counters["relation.cache.misses"] == 1
            assert counters["relation.cache.hits"] == 2
        finally:
            obs.shutdown()
