"""Unit tests for the session lifecycle machine and the bounded store."""

import threading

import pytest

from repro.robustness.errors import InputError, LookupInputError
from repro.service.lifecycle import (
    LifecycleError,
    SessionBusy,
    SessionRecord,
    SessionState,
    StoreFull,
    advance,
)
from repro.service.manager import SessionManager

TRACES = [
    "open(X); read(X); close(X)",
    "open(Y); write(Y); close(Y)",
    "open(Z); close(Z)",
]


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def tick(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def manager(tmp_path, clock):
    return SessionManager(
        tmp_path / "store",
        max_sessions=2,
        idle_ttl=10.0,
        zombie_after=30.0,
        lock_timeout=0.2,
        clock=clock,
    )


class TestLifecycleMachine:
    def test_legal_path(self, tmp_path):
        record = SessionRecord("s", tmp_path / "s.json")
        advance(record, SessionState.ACTIVE)
        advance(record, SessionState.SUSPENDED)
        advance(record, SessionState.ACTIVE)
        advance(record, SessionState.ZOMBIE)
        advance(record, SessionState.ACTIVE)
        advance(record, SessionState.DEAD)

    @pytest.mark.parametrize(
        "start,to",
        [
            (SessionState.SPAWNING, SessionState.SUSPENDED),
            (SessionState.SPAWNING, SessionState.ZOMBIE),
            (SessionState.SUSPENDED, SessionState.ZOMBIE),
            (SessionState.DEAD, SessionState.ACTIVE),
            (SessionState.DEAD, SessionState.SPAWNING),
        ],
    )
    def test_illegal_hops_raise(self, tmp_path, start, to):
        record = SessionRecord("s", tmp_path / "s.json", state=start)
        with pytest.raises(LifecycleError):
            advance(record, to)

    def test_non_resident_record_has_no_session(self, tmp_path):
        record = SessionRecord("s", tmp_path / "s.json")
        with pytest.raises(LifecycleError):
            record.session


class TestSessionStore:
    def test_create_and_run(self, manager):
        record = manager.create(TRACES)
        assert record.state is SessionState.ACTIVE
        classes = manager.run(
            record.session_id,
            lambda r: r.session.clustering.num_objects,
        )
        assert classes >= 1
        assert manager.info(record.session_id)["requests"] == 1

    def test_session_id_validation(self, manager):
        with pytest.raises(InputError):
            manager.create(TRACES, session_id="../escape")
        with pytest.raises(InputError):
            manager.create(TRACES, session_id="")
        record = manager.create(TRACES, session_id="good-id.1")
        with pytest.raises(InputError):
            manager.create(TRACES, session_id="good-id.1")

    def test_unknown_session(self, manager):
        with pytest.raises(LookupInputError):
            manager.run("nope", lambda r: None)

    def test_failed_spawn_is_buried(self, manager):
        with pytest.raises(InputError):
            manager.create([])
        assert len(manager) == 0

    def test_spawn_failure_outside_taxonomy_is_buried(self, manager):
        """A non-ReproError during spawn (here: AttributeError from FA
        parsing on a non-string) must bury the reserved record too —
        otherwise each bad request leaks a permanent SPAWNING ghost
        that fills the residency bound (max_sessions=2)."""
        for _ in range(3):
            with pytest.raises(AttributeError):
                manager.create(TRACES, fa_text=123)
        assert len(manager) == 0
        # The store is not poisoned: a good create still fits.
        record = manager.create(TRACES)
        assert record.state is SessionState.ACTIVE

    def test_attach_failure_outside_taxonomy_is_buried(
        self, manager, monkeypatch
    ):
        import repro.service.manager as manager_mod

        def boom(path):
            raise RuntimeError("unexpected loader fault")

        monkeypatch.setattr(
            manager_mod, "load_session_with_recovery", boom
        )
        for _ in range(3):
            with pytest.raises(RuntimeError):
                manager.attach("whatever.session.json")
        assert len(manager) == 0

    def test_lru_eviction_on_overflow(self, manager, clock):
        a = manager.create(TRACES, session_id="a")
        clock.tick(1)
        b = manager.create(TRACES, session_id="b")
        clock.tick(1)
        c = manager.create(TRACES, session_id="c")  # evicts a (LRU)
        assert a.state is SessionState.SUSPENDED
        assert a.path.exists()
        assert b.state is SessionState.ACTIVE
        assert c.state is SessionState.ACTIVE

    def test_transparent_resume(self, manager, clock):
        manager.create(TRACES, session_id="a")
        clock.tick(1)
        manager.create(TRACES, session_id="b")
        clock.tick(1)
        manager.create(TRACES, session_id="c")
        # "a" is suspended on disk; touching it resumes it (and evicts
        # the new LRU victim, "b").
        classes = manager.run(
            "a", lambda r: r.session.clustering.num_objects
        )
        assert classes >= 1
        assert manager.info("a")["state"] == "active"
        assert manager.info("b")["state"] == "suspended"

    def test_store_full_when_everything_busy(self, manager):
        entered = threading.Barrier(3, timeout=5.0)
        release = threading.Event()
        done = threading.Barrier(3, timeout=10.0)

        def hold(sid: str) -> None:
            def fn(record):
                entered.wait()
                release.wait(timeout=10.0)

            manager.run(sid, fn)
            done.wait()

        manager.create(TRACES, session_id="a")
        manager.create(TRACES, session_id="b")
        threads = [
            threading.Thread(target=hold, args=(sid,)) for sid in ("a", "b")
        ]
        for t in threads:
            t.start()
        entered.wait()  # both sessions are mid-request: nothing evictable
        try:
            with pytest.raises(StoreFull):
                manager.create(TRACES, session_id="c")
        finally:
            release.set()
            done.wait()
            for t in threads:
                t.join()

    def test_idle_ttl_sweep_suspends(self, manager, clock):
        manager.create(TRACES, session_id="a")
        clock.tick(11.0)  # > idle_ttl=10
        swept = manager.maintain()
        assert swept["suspended"] == 1
        assert manager.info("a")["state"] == "suspended"

    def test_zombie_detection_and_reaping(self, manager, clock):
        manager.create(TRACES, session_id="a")
        entered = threading.Event()
        release = threading.Event()

        def fn(record):
            entered.set()
            release.wait(timeout=10.0)

        wedged = threading.Thread(target=manager.run, args=("a", fn))
        wedged.start()
        try:
            assert entered.wait(timeout=5.0)
            clock.tick(31.0)  # > zombie_after=30
            swept = manager.maintain()
            assert swept["zombies"] == 1
            assert manager.info("a")["state"] == "zombie"
            # A zombie refuses new requests (its lock is held).
            with pytest.raises(SessionBusy):
                manager.run("a", lambda r: None)
            swept = manager.maintain()
            assert swept["reaped"] == 1
            with pytest.raises(LookupInputError):
                manager.info("a")
        finally:
            release.set()
            wedged.join()

    def test_zombie_rehabilitates_if_request_finishes(self, manager, clock):
        manager.create(TRACES, session_id="a")
        entered = threading.Event()
        release = threading.Event()

        def fn(record):
            entered.set()
            release.wait(timeout=10.0)

        wedged = threading.Thread(target=manager.run, args=("a", fn))
        wedged.start()
        assert entered.wait(timeout=5.0)
        clock.tick(31.0)
        manager.maintain()
        assert manager.info("a")["state"] == "zombie"
        release.set()  # the "wedged" request finishes after all
        wedged.join()
        manager.run("a", lambda r: None)  # rehabilitates
        assert manager.info("a")["state"] == "active"

    def test_kill_is_terminal(self, manager):
        manager.create(TRACES, session_id="a")
        manager.kill("a")
        with pytest.raises(LookupInputError):
            manager.run("a", lambda r: None)

    def test_focused_session_not_evictable(self, manager, clock, tmp_path):
        from repro.fa.templates import unordered_fa

        a = manager.create(TRACES, session_id="a")

        def open_focus(record):
            session = record.session
            symbols = sorted(
                {str(e) for t in session.show_traces(session.lattice.top) for e in t}
            )
            record.stack.append(
                session.focus(session.lattice.top, unordered_fa(symbols))
            )

        manager.run("a", open_focus)
        clock.tick(1)
        manager.create(TRACES, session_id="b")
        clock.tick(1)
        # The store is full and "a" (the LRU) is focused: "b" must be
        # the victim instead.
        manager.create(TRACES, session_id="c")
        assert manager.info("a")["state"] == "active"
        assert manager.info("b")["state"] == "suspended"

    def test_same_session_serializes(self, manager):
        manager.create(TRACES, session_id="a")
        state = {"in_critical": False, "violation": False, "busy": False}
        entered = threading.Event()
        release = threading.Event()

        def first(record):
            state["in_critical"] = True
            entered.set()
            release.wait(timeout=10.0)
            state["in_critical"] = False

        def second(record):
            # Runs only once the first request fully left the session.
            if state["in_critical"]:
                state["violation"] = True

        t1 = threading.Thread(target=manager.run, args=("a", first))
        t1.start()
        assert entered.wait(timeout=5.0)

        def try_second():
            try:
                manager.run("a", second)
            except SessionBusy:
                # Equally valid serialization outcome: the 0.2 s lock
                # timeout expired while the first request held the lock.
                state["busy"] = True

        t2 = threading.Thread(target=try_second)
        t2.start()
        t2.join(timeout=1.0)
        release.set()
        t1.join()
        t2.join()
        assert not state["violation"]

    def test_distinct_sessions_parallel(self, manager):
        manager.create(TRACES, session_id="a")
        manager.create(TRACES, session_id="b")
        both_inside = threading.Barrier(2, timeout=5.0)

        def fn(record):
            both_inside.wait()  # passes only if both run concurrently

        threads = [
            threading.Thread(target=manager.run, args=(sid, fn))
            for sid in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert both_inside.broken is False

    def test_busy_session_info_sticks_to_metadata(self, manager):
        """Listings hold only the store lock, so while a verb is in
        flight (and may be mutating the lattice under the session lock)
        the snapshot must not dereference the live session object."""
        manager.create(TRACES, session_id="a")
        entered = threading.Event()
        release = threading.Event()

        def fn(record):
            entered.set()
            release.wait(timeout=10.0)

        busy = threading.Thread(target=manager.run, args=("a", fn))
        busy.start()
        try:
            assert entered.wait(timeout=5.0)
            info = manager.info("a")
            assert info["busy"] is True
            assert "classes" not in info
            assert "concepts" not in info
            assert "operations" not in info
        finally:
            release.set()
            busy.join()
        # Quiescent again: the live-object fields come back.
        info = manager.info("a")
        assert info["busy"] is False
        assert info["classes"] >= 1

    def test_attach_returns_recovery_warnings(self, manager, tmp_path):
        from repro.cable.persist import save_session
        from repro.robustness.faults import flip_bit

        record = manager.create(TRACES, session_id="a")
        external = tmp_path / "external.session.json"
        manager.run("a", lambda r: save_session(r.session, external))
        save_session(record.session, external)  # rotate a good backup
        flip_bit(external)
        attached = manager.attach(external, session_id="re")
        assert attached.warnings
        assert any("backup" in w for w in attached.warnings)


class TestPathConfinement:
    """Client-supplied save/attach paths on a non-loopback bind."""

    @pytest.fixture
    def confined(self, tmp_path, clock):
        return SessionManager(
            tmp_path / "store", confine_paths=True, clock=clock
        )

    def test_attach_outside_store_is_refused(self, confined, tmp_path):
        outside = tmp_path / "elsewhere" / "x.session.json"
        with pytest.raises(InputError):
            confined.attach(outside)
        assert len(confined) == 0

    def test_save_outside_store_is_refused(self, confined, tmp_path):
        from repro.service.api import SessionService

        service = SessionService(confined)
        record = confined.create(TRACES, session_id="a")
        with pytest.raises(InputError):
            service.handle_verb(
                "a", "save", {"path": str(tmp_path / "evil.json")}
            )
        with pytest.raises(InputError):
            service.handle_verb("a", "save", {"path": "../escape.json"})
        # Inside the store directory is fine.
        inside = confined.store_dir / "copy.session.json"
        saved = service.handle_verb("a", "save", {"path": str(inside)})
        assert saved["saved"] == str(inside.resolve())
        assert inside.exists()
        # And the default target (the session's own slot) still works.
        assert service.handle_verb("a", "save", {})["saved"] == str(
            record.path
        )

    def test_attach_inside_store_is_allowed(self, confined):
        confined.create(TRACES, session_id="a")
        assert confined.suspend("a") is True
        attached = confined.attach(
            confined.store_dir / "a.session.json", session_id="b"
        )
        assert attached.state is SessionState.ACTIVE

    def test_unconfined_manager_passes_paths_through(
        self, manager, tmp_path
    ):
        from repro.service.api import SessionService

        service = SessionService(manager)
        manager.create(TRACES, session_id="a")
        external = tmp_path / "anywhere.session.json"
        service.handle_verb("a", "save", {"path": str(external)})
        assert external.exists()

    def test_loopback_bind_leaves_paths_unconfined(self, tmp_path):
        from repro.service.server import CableServer, is_loopback_host

        manager = SessionManager(tmp_path / "store")
        assert manager.confine_paths is None
        server = CableServer(manager, host="127.0.0.1", port=0)
        try:
            assert manager.confine_paths is False
        finally:
            server._httpd.server_close()
        assert is_loopback_host("127.0.0.1")
        assert is_loopback_host("localhost")
        assert is_loopback_host("::1")
        assert not is_loopback_host("0.0.0.0")
        assert not is_loopback_host("192.168.1.5")
        assert not is_loopback_host("")


class TestAddTracesThenResume:
    """A session that took ``addtraces`` batches suspends and resumes with
    the same lattice, labels and label log (trace ids are never reused)."""

    @pytest.mark.parametrize(
        "batches",
        [
            # The same existing trace twice: the class count stays put.
            [["open(F); close(F)"], ["open(F); close(F)"]],
            # New classes, one of them sent in both batches.
            [["open(F); read(F); read(F); close(F)"],
             ["open(G); write(G); read(G); close(G)", "open(F); close(F)"]],
        ],
    )
    def test_add_add_suspend_resume(self, manager, batches):
        from repro.service.api import SessionService

        service = SessionService(manager)
        service.create({"traces": TRACES, "session": "a"})
        lattice = service.handle_verb("a", "lattice", {})
        top = max(lattice["concepts"], key=lambda c: c["extent"])["concept"]
        service.handle_verb("a", "label", {"concept": top, "label": "good"})
        for batch in batches:
            service.handle_verb("a", "addtraces", {"traces": batch})

        def snapshot(record):
            session = record.session
            return (
                session.lattice.extent_masks,
                session.lattice.intent_masks,
                list(session.label_log),
                session.labels.unlabeled(),
            )

        before = manager.run("a", snapshot)
        assert service.handle_verb("a", "suspend", {})["suspended"]
        state = service.handle_verb("a", "state", {})
        assert manager.info("a")["state"] == "active"
        assert manager.run("a", snapshot) == before
        assert state["unlabeled"] == len(before[3])
        # The resumed session numbers its next trace past every id so far.
        assert manager.run("a", lambda r: r.session.traces_added) == len(
            TRACES
        ) + sum(map(len, batches))

    def test_rejected_trace_survives_resume(self, manager):
        from repro.service.api import SessionService

        service = SessionService(manager)
        service.create({"traces": TRACES, "session": "a"})
        batch = {"traces": ["close(F); open(F)"]}
        service.handle_verb("a", "addtraces", batch)

        def rejected(record):
            return record.session.clustering.rejected

        before = manager.run("a", rejected)
        assert len(before) == 1
        assert service.handle_verb("a", "suspend", {})["suspended"]
        service.handle_verb("a", "state", {})
        assert manager.run("a", rejected) == before
        # The resumed session still knows the trace: adding it again
        # does not store it twice.
        service.handle_verb("a", "addtraces", batch)
        assert manager.run("a", rejected) == before


def test_serve_verbs_build_no_concepts(manager):
    """The serve path reads extent and intent masks: ``lattice``,
    ``inspect``, ``transitions``, ``label`` and ``state`` leave the
    lattice's frozenset ``concepts`` unbuilt."""
    from repro.analysis.invariants import disable_debug_checks, enable_debug_checks
    from repro.service.api import SessionService

    service = SessionService(manager)
    # The suite-wide invariant hook reads every concept; the verbs must not.
    disable_debug_checks()
    try:
        service.create({"traces": TRACES, "session": "a"})
        lattice = service.handle_verb("a", "lattice", {})
        top = max(lattice["concepts"], key=lambda c: c["extent"])["concept"]
        service.handle_verb("a", "inspect", {"concept": top})
        service.handle_verb("a", "transitions", {"concept": top})
        service.handle_verb("a", "label", {"concept": top, "label": "good"})
        service.handle_verb("a", "state", {})
    finally:
        enable_debug_checks()
    built = manager.run("a", lambda r: "concepts" in vars(r.session.lattice))
    assert not built
