"""Supervised execution: retry policy, timeouts, quarantine, degradation."""

import pickle
import time

import pytest

from repro.parallel import MapCheckpoint, parallel_map
from repro.robustness.errors import (
    BudgetExceeded,
    InputError,
    TaskError,
    TaskTimeout,
)
from repro.robustness.supervise import (
    DEGRADATION_LADDER,
    ITEM_REPR_LIMIT,
    PartialMapResult,
    RemoteTraceback,
    RetryPolicy,
    TaskFailure,
    as_task_error,
    attach_remote_cause,
    default_retryable,
    item_excerpt,
    next_backend,
    normalize_retry,
)


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _transient_until_two(x, counts={}):
    """Fails items transiently on their first two calls (same process)."""
    n = counts.get(x, 0)
    counts[x] = n + 1
    if n < 2:
        raise OSError(f"flaky {x}")
    return x * 10


def _hang_on_zero(x):
    # Long enough to dwarf the 0.2s task timeout, short enough that the
    # stranded worker process doesn't stall interpreter shutdown.
    if x == 0:
        time.sleep(3)
    return x


class TestRetryPolicy:
    def test_delay_is_pure_exponential_with_default_jitter(self):
        policy = RetryPolicy(base_delay=0.1, factor=2.0, max_delay=10.0)
        # default jitter is the midpoint 0.5 => scale factor 1.0
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)

    def test_delay_caps_at_max(self):
        policy = RetryPolicy(base_delay=1.0, factor=10.0, max_delay=2.0)
        assert policy.delay(5) == pytest.approx(2.0)

    def test_injectable_jitter_scales_the_band(self):
        lo = RetryPolicy(base_delay=1.0, jitter=lambda: 0.0)
        hi = RetryPolicy(base_delay=1.0, jitter=lambda: 0.999)
        assert lo.delay(0) == pytest.approx(0.5)
        assert hi.delay(0) == pytest.approx(1.499)

    def test_should_retry_respects_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        exc = OSError("flaky")
        assert policy.should_retry(exc, 0)
        assert policy.should_retry(exc, 1)
        assert not policy.should_retry(exc, 2)

    def test_should_retry_respects_classification(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry(ValueError("det"), 0)
        assert policy.should_retry(TimeoutError("t"), 0)

    def test_validation(self):
        with pytest.raises(InputError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InputError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(InputError):
            RetryPolicy(factor=0.5)

    def test_normalize_retry(self):
        assert normalize_retry(None) is None
        assert normalize_retry(0) is None
        assert normalize_retry(2).max_attempts == 3  # 2 retries = 3 tries
        policy = RetryPolicy(max_attempts=7)
        assert normalize_retry(policy) is policy
        with pytest.raises(InputError):
            normalize_retry(-1)
        with pytest.raises(InputError):
            normalize_retry("lots")
        with pytest.raises(InputError):
            normalize_retry(True)


class TestClassification:
    def test_taxonomy_is_never_retryable(self):
        assert not default_retryable(TaskTimeout("hung"))
        assert not default_retryable(InputError("bad"))
        assert not default_retryable(BudgetExceeded("over"))

    def test_os_flakiness_is_retryable(self):
        assert default_retryable(OSError("io"))
        assert default_retryable(ConnectionError("reset"))
        assert default_retryable(TimeoutError("slow"))

    def test_explicit_transient_attribute_wins(self):
        err = ValueError("marked")
        err.transient = True
        assert default_retryable(err)
        err2 = OSError("io")
        err2.transient = False
        assert not default_retryable(err2)

    def test_plain_exceptions_are_deterministic(self):
        assert not default_retryable(ValueError("bug"))
        assert not default_retryable(KeyError("missing"))


class TestLadder:
    def test_next_backend_walks_down(self):
        assert DEGRADATION_LADDER == ("process", "serial")
        assert next_backend("process") == "serial"
        assert next_backend("serial") is None
        assert next_backend("thread") is None
        assert next_backend("bogus") is None


class TestTaskErrorEnvelope:
    def test_context_carries_index_and_item_excerpt(self):
        try:
            raise ValueError("inner detail")
        except ValueError as exc:
            err = as_task_error(exc, 42, {"some": "item"})
        assert isinstance(err, TaskError)
        assert err.context["item_index"] == 42
        assert "some" in err.context["item"]
        assert "ValueError" in str(err) and "inner detail" in str(err)

    def test_original_traceback_is_chained(self):
        try:
            raise ValueError("inner detail")
        except ValueError as exc:
            err = as_task_error(exc, 0, "x")
        assert isinstance(err.__cause__, ValueError)
        assert "inner detail" in err.remote_traceback
        assert "ValueError" in err.remote_traceback

    def test_transient_classification_rides_along(self):
        try:
            raise OSError("flaky")
        except OSError as exc:
            err = as_task_error(exc, 0, "x")
        assert err.transient
        try:
            raise ValueError("det")
        except ValueError as exc:
            err = as_task_error(exc, 0, "x")
        assert not err.transient

    def test_already_enveloped_passes_through(self):
        inner = TaskError("already wrapped")
        assert as_task_error(inner, 1, "x") is inner

    def test_pickle_roundtrip_preserves_everything(self):
        try:
            raise ValueError("inner")
        except ValueError as exc:
            err = as_task_error(exc, 7, "item-7")
        clone = pickle.loads(pickle.dumps(err))
        assert clone.transient == err.transient
        assert clone.remote_traceback == err.remote_traceback
        assert clone.context["item_index"] == 7
        # The live cause is lost to pickling; resurrect it from the
        # carried traceback text.
        assert clone.__cause__ is None
        attach_remote_cause(clone)
        assert isinstance(clone.__cause__, RemoteTraceback)
        assert "inner" in str(clone.__cause__)

    def test_item_excerpt_is_bounded(self):
        text = item_excerpt("x" * 10_000)
        assert len(text) <= ITEM_REPR_LIMIT
        assert text.endswith("...")


class TestCheckpointValidation:
    def test_mismatched_total_is_rejected(self):
        stale = MapCheckpoint(total=10, completed={0: 0})
        with pytest.raises(InputError, match="totals differ"):
            parallel_map(_square, range(5), checkpoint=stale)

    def test_out_of_range_indices_are_rejected(self):
        bad = MapCheckpoint(total=5, completed={7: 49})
        with pytest.raises(InputError, match="out of range"):
            parallel_map(_square, range(5), checkpoint=bad)

    def test_wrong_type_is_rejected(self):
        with pytest.raises(InputError, match="MapCheckpoint"):
            parallel_map(_square, range(5), checkpoint={"total": 5})

    def test_compatible_checkpoint_skips_completed_items(self):
        ckpt = MapCheckpoint(total=5, completed={0: 100, 3: 300})
        out = parallel_map(_square, range(5), checkpoint=ckpt)
        assert out == [100, 1, 4, 300, 16]


class TestSerialRetries:
    def test_transient_failures_heal_with_instant_backoff(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
        out = parallel_map(
            _transient_until_two, [1, 2], retry=policy, backend="serial"
        )
        assert out == [10, 20]
        assert len(sleeps) == 4  # two retries per item
        assert all(s > 0 for s in sleeps)

    def test_exhausted_retries_raise_by_default(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
        with pytest.raises(TaskError, match="flaky"):
            parallel_map(
                lambda x: (_ for _ in ()).throw(OSError("flaky")),
                [1],
                retry=policy,
                backend="serial",
            )

    def test_deterministic_failures_are_not_retried(self):
        calls = []

        def fn(x):
            calls.append(x)
            raise ValueError("deterministic")

        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        with pytest.raises(TaskError, match="deterministic"):
            parallel_map(fn, [1], retry=policy, backend="serial")
        assert calls == [1]


class TestQuarantine:
    def test_partial_result_completes_with_survivors(self):
        r = parallel_map(
            _fail_on_three, range(6), on_fault="quarantine", backend="serial"
        )
        assert isinstance(r, PartialMapResult)
        assert not r.ok
        assert r.failed_indices == (3,)
        assert r.results == [0, 1, 2, 4, 5]
        assert r.result_or_none(3) is None
        assert r.result_or_none(2) == 2
        [failure] = r.failures
        assert isinstance(failure, TaskFailure)
        assert failure.attempts == 1
        assert "boom" in str(failure.error)
        assert "item 3" in failure.render()

    def test_pooled_quarantine_matches_serial(self):
        serial = parallel_map(
            _fail_on_three, range(20), on_fault="quarantine", backend="serial"
        )
        pooled = parallel_map(
            _fail_on_three,
            range(20),
            jobs=3,
            backend="process",
            on_fault="quarantine",
        )
        assert pooled.failed_indices == serial.failed_indices == (3,)
        assert pooled.completed == serial.completed

    def test_process_failure_carries_context_across_the_boundary(self):
        r = parallel_map(
            _fail_on_three,
            range(6),
            jobs=2,
            backend="process",
            on_fault="quarantine",
        )
        [failure] = r.failures
        err = failure.error
        assert err.context["item_index"] == 3
        assert "3" in err.context["item"]
        assert err.__cause__ is not None  # resurrected remote traceback
        assert "RuntimeError" in err.remote_traceback

    def test_to_dict_is_json_ready(self):
        import json

        r = parallel_map(
            _fail_on_three, range(4), on_fault="quarantine", backend="serial"
        )
        blob = json.loads(json.dumps(r.to_dict()))
        assert blob["total"] == 4
        assert blob["completed"] == 3
        assert blob["failures"][0]["index"] == 3

    def test_bad_mode_is_rejected(self):
        with pytest.raises(InputError, match="on_fault"):
            parallel_map(_square, range(3), on_fault="ignore")


class TestTaskTimeout:
    def test_hung_worker_times_out_within_budget(self):
        t0 = time.monotonic()
        r = parallel_map(
            _hang_on_zero,
            range(8),
            jobs=2,
            backend="process",
            chunk_size=1,
            task_timeout=0.2,
            on_fault="quarantine",
        )
        elapsed = time.monotonic() - t0
        # The hung task must fail within its deadline plus a few watchdog
        # polls — well before the 3s hang resolves on its own.
        assert elapsed < 2.0
        assert r.timeouts >= 1
        assert 0 in r.failed_indices
        [failure] = [f for f in r.failures if f.index == 0]
        assert isinstance(failure.error, TaskTimeout)
        # Every live item still completed.
        for i in range(1, 8):
            assert r.result_or_none(i) == i

    def test_timeouts_are_not_retried(self):
        r = parallel_map(
            _hang_on_zero,
            range(4),
            jobs=2,
            backend="process",
            chunk_size=1,
            task_timeout=0.2,
            retry=3,
            on_fault="quarantine",
        )
        [failure] = [f for f in r.failures if f.index == 0]
        assert failure.attempts == 1  # no retry budget burned on a hang

    def test_validation(self):
        with pytest.raises(InputError, match="task_timeout"):
            parallel_map(_square, range(3), task_timeout=0.0)


class TestDegradation:
    def test_unpicklable_function_degrades_to_serial(self):
        fn = lambda x: x * x  # noqa: E731 — unpicklable on purpose
        r = parallel_map(
            fn, range(12), jobs=2, backend="process", on_fault="quarantine"
        )
        assert r.ok
        assert r.results == [x * x for x in range(12)]
        [downgrade] = r.downgrades
        assert downgrade.from_backend == "process"
        assert downgrade.to_backend == "serial"
        assert downgrade.resubmitted > 0

    def test_downgrade_is_counted_in_metrics(self):
        from repro import obs

        rec = obs.configure(record=True)
        try:
            parallel_map(
                lambda x: x,  # noqa: E731
                range(6),
                jobs=2,
                backend="process",
                on_fault="quarantine",
            )
            counters = rec.registry.counters
            assert counters["parallel.downgrades"].value >= 1
        finally:
            obs.shutdown()
