"""Deterministic chaos injection and the fault/retry equivalence laws."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.fa.templates import unordered_fa
from repro.core.trace_clustering import cluster_traces
from repro.parallel import parallel_map, relation_map
from repro.parallel.relation import clear_relation_caches
from repro.robustness import chaos
from repro.robustness.atomicio import atomic_write_text
from repro.robustness.chaos import ChaosInjected, ChaosProfile
from repro.robustness.errors import InputError
from repro.robustness.supervise import RetryPolicy


def _double(x):
    return x * 2


@pytest.fixture(autouse=True)
def _pristine_chaos():
    """Every test starts and ends with no chaos configured."""
    chaos.reset()
    yield
    chaos.reset()


def _mk_trace(symbols, tid):
    return Trace(tuple(Event(s, ("X",)) for s in symbols), trace_id=tid)


INSTANT = RetryPolicy(max_attempts=4, sleep=lambda s: None)


class TestProfileParsing:
    def test_round_trip(self):
        p = chaos.parse_profile("failure_rate=0.25,seed=9,fail_attempts=2")
        assert p == ChaosProfile(failure_rate=0.25, seed=9, fail_attempts=2)

    def test_empty_and_off_disable(self):
        assert chaos.parse_profile("") is None
        assert chaos.parse_profile("off") is None
        assert chaos.parse_profile("OFF") is None

    def test_bad_entries_are_input_errors(self):
        with pytest.raises(InputError, match="key=value"):
            chaos.parse_profile("failure_rate")
        with pytest.raises(InputError, match="unknown"):
            chaos.parse_profile("explosions=1.0")
        with pytest.raises(InputError, match="bad chaos profile value"):
            chaos.parse_profile("failure_rate=lots")

    def test_rates_are_validated(self):
        with pytest.raises(InputError):
            ChaosProfile(failure_rate=1.5)
        with pytest.raises(InputError):
            ChaosProfile(fail_attempts=0)

    def test_from_env(self):
        env = {chaos.ENV_VAR: "failure_rate=0.5,seed=3"}
        p = chaos.from_env(env)
        assert p.failure_rate == 0.5 and p.seed == 3
        assert chaos.from_env({}) is None


class TestDeterminism:
    def test_draws_are_pure_functions_of_seed_kind_key(self):
        p = ChaosProfile(seed=42)
        assert p.draw("fail", "item") == p.draw("fail", "item")
        assert p.draw("fail", "item") != p.draw("slow", "item")
        assert p.draw("fail", "item") != ChaosProfile(seed=43).draw(
            "fail", "item"
        )

    def test_transient_failures_fire_only_below_fail_attempts(self):
        p = ChaosProfile(seed=0, failure_rate=1.0, fail_attempts=2)
        wrapped = chaos.ChaosWrapped(_double, p)
        from repro.robustness.supervise import reset_attempt, set_attempt

        for attempt, should_fail in [(0, True), (1, True), (2, False)]:
            token = set_attempt(attempt)
            try:
                if should_fail:
                    with pytest.raises(ChaosInjected):
                        wrapped(5)
                else:
                    assert wrapped(5) == 10
            finally:
                reset_attempt(token)

    def test_kills_never_fire_in_the_parent_process(self):
        p = ChaosProfile(seed=0, kill_rate=1.0)
        wrapped = chaos.ChaosWrapped(_double, p)
        assert wrapped.parent_pid == os.getpid()
        assert wrapped(3) == 6  # would have os._exit'd in a child


class TestConfiguration:
    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv(chaos.ENV_VAR, "failure_rate=1.0")
        assert chaos.active().failure_rate == 1.0
        chaos.configure(None)  # explicit disable beats the env
        assert chaos.active() is None
        chaos.reset()
        assert chaos.active().failure_rate == 1.0

    def test_env_profile_reaches_parallel_map(self, monkeypatch):
        monkeypatch.setenv(
            chaos.ENV_VAR, "failure_rate=1.0,fail_attempts=99,seed=1"
        )
        r = parallel_map(
            _double, range(4), backend="serial", on_fault="quarantine"
        )
        assert len(r.failures) == 4
        assert all(
            isinstance(f.error.__cause__, ChaosInjected) for f in r.failures
        )

    def test_configure_kwargs_and_conflict(self):
        p = chaos.configure(failure_rate=0.5, seed=2)
        assert chaos.active() is p
        with pytest.raises(InputError):
            chaos.configure(p, failure_rate=0.1)

    def test_corrupt_hook_flips_written_files(self, tmp_path):
        path = tmp_path / "session.json"
        chaos.configure(corrupt_rate=1.0, seed=0)
        atomic_write_text(path, "precious content", backups=0)
        assert path.read_bytes() != b"precious content"
        chaos.reset()
        atomic_write_text(path, "precious content", backups=0)
        assert path.read_text() == "precious content"


class TestEquivalence:
    """Chaos + retries must be observationally equal to no chaos at all."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rate=st.floats(0.05, 0.6),
        backend=st.sampled_from(["serial", "process"]),
    )
    def test_transient_faults_plus_retries_equal_fault_free_serial(
        self, seed, rate, backend
    ):
        items = list(range(30))
        expected = [x * 2 for x in items]
        chaos.configure(
            ChaosProfile(seed=seed, failure_rate=rate, fail_attempts=1)
        )
        try:
            out = parallel_map(
                _double,
                items,
                jobs=3 if backend != "serial" else None,
                backend=backend,
                retry=INSTANT,
            )
        finally:
            chaos.reset()
        assert out == expected

    def test_process_backend_equivalence(self):
        items = list(range(40))
        chaos.configure(
            ChaosProfile(seed=5, failure_rate=0.3, fail_attempts=1)
        )
        try:
            out = parallel_map(
                _double, items, jobs=2, backend="process", retry=2
            )
        finally:
            chaos.reset()
        assert out == [x * 2 for x in items]

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_same_seed_reproduces_the_same_quarantine_set(self, seed):
        profile = ChaosProfile(seed=seed, failure_rate=0.4, fail_attempts=99)
        runs = []
        for backend, jobs in (("serial", None), ("process", 3), ("serial", None)):
            chaos.configure(profile)
            try:
                r = parallel_map(
                    _double,
                    range(25),
                    jobs=jobs,
                    backend=backend,
                    retry=1,
                    on_fault="quarantine",
                )
            finally:
                chaos.reset()
            runs.append(r.failed_indices)
        assert runs[0] == runs[1] == runs[2]

    def test_relation_map_under_chaos_equals_fault_free(self):
        fa = unordered_fa(["open(X)", "close(X)"])
        traces = [
            _mk_trace(("open", "close") if i % 3 else ("open",), f"t{i}")
            for i in range(40)
        ]
        clear_relation_caches()
        plain = relation_map(fa, traces, backend="serial", cache=False)
        clear_relation_caches()
        chaos.configure(
            ChaosProfile(seed=3, failure_rate=0.3, fail_attempts=1)
        )
        try:
            healed = relation_map(
                fa,
                traces,
                backend="serial",
                cache=False,
                retry=INSTANT,
                on_fault="quarantine",
            )
        finally:
            chaos.reset()
        assert healed.ok
        assert list(healed.results) == plain


def _chaos_corpus(n=500):
    """``n`` distinct traces (so every relation evaluation fans out)."""
    symbols = ("open", "read", "write", "close")
    out = []
    for i in range(n):
        body = tuple(symbols[j % 4] for j in range(1 + i % 5))
        out.append(
            Trace(
                tuple(Event(s, ("X", str(i))) for s in body),
                trace_id=f"c{i}",
            )
        )
    return out


class TestChaosAcceptance:
    """The issue's end-to-end bar: a 500-trace clustering under chaos
    (transient failures plus worker kills) lands bit-identical to a
    fault-free serial run, with the retries and downgrades on record."""

    def test_500_trace_clustering_survives_chaos(self):
        spec_fa = unordered_fa(["open(X,Y)", "read(X,Y)", "write(X,Y)",
                                "close(X,Y)"])
        traces = _chaos_corpus(500)
        profile = ChaosProfile(
            seed=1, failure_rate=0.15, fail_attempts=1, kill_rate=0.004
        )
        # Preconditions on the seed: >=10% of evaluations fail
        # transiently and at least one worker kill is scheduled.
        failing = sum(
            profile.decides("fail", repr(t), profile.failure_rate)
            for t in traces
        )
        kills = sum(
            profile.decides("kill", repr(t), profile.kill_rate)
            for t in traces
        )
        assert failing >= 50, failing
        assert kills >= 1, kills

        clear_relation_caches()
        baseline = cluster_traces(traces, spec_fa, jobs=1)

        clear_relation_caches()
        rec = obs.configure(record=True)
        chaos.configure(profile)
        try:
            chaotic = cluster_traces(
                traces,
                spec_fa,
                jobs=2,
                retry=INSTANT,
                on_fault="quarantine",
            )
            counters = rec.registry.counters
            retries = counters["parallel.retries"].value
            downgrades = counters.get("parallel.downgrades")
            quarantined = counters.get("parallel.quarantined")
        finally:
            chaos.reset()
            obs.shutdown()

        # Identical to the fault-free serial run: nothing quarantined,
        # same classes, same lattice shape.
        assert chaotic.fault_report is None
        assert quarantined is None or quarantined.value == 0
        assert chaotic.representatives == baseline.representatives
        assert chaotic.class_counts == baseline.class_counts
        assert chaotic.rejected == baseline.rejected
        assert len(chaotic.lattice) == len(baseline.lattice)
        assert (
            chaotic.lattice.context.rows == baseline.lattice.context.rows
        )
        # The supervisor did real work getting there.
        assert retries > 0
        # A kill fired in a child worker, so the pool broke and the map
        # degraded down the ladder.
        assert downgrades is not None and downgrades.value >= 1
