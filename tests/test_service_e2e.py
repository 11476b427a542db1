"""End-to-end tests: N client threads against one live Cable server.

The acceptance scenario of the service subsystem: boot a real
:class:`~repro.service.server.CableServer` on an ephemeral port, drive
it with :class:`~repro.service.client.ServiceClient` from concurrent
threads, and assert the multi-tenant contract — distinct sessions
progress in parallel, same-session requests serialize, an idle session
is evicted to disk and transparently resumed, and ``/metrics`` exposes
the lifecycle counters and request-latency histograms.
"""

import http.client
import threading

import pytest

from repro import obs
from repro.obs.promtext import parse_prometheus
from repro.service import CableServer, ServiceClient, ServiceError, SessionManager
from repro.service.api import SessionService

N_CLIENTS = 4

TRACES = [
    "open(X); read(X); close(X)",
    "open(Y); write(Y); close(Y)",
    "open(Z); close(Z)",
]


@pytest.fixture
def server(tmp_path):
    obs.configure(record=True)
    manager = SessionManager(
        tmp_path / "store",
        max_sessions=N_CLIENTS + 2,
        idle_ttl=0.2,
        lock_timeout=5.0,
    )
    srv = CableServer(manager, port=0, maintenance_interval=0.05)
    srv.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        obs.shutdown()


@pytest.fixture
def client(server):
    return ServiceClient(server.url)


def _drive_one_session(client: ServiceClient, i: int) -> dict:
    """One tenant's full workflow: create → inspect → label → state."""
    info = client.create(TRACES, session=f"tenant{i}")
    sid = info["session"]
    lattice = client.verb(sid, "lattice")
    assert lattice["concepts"]
    top = max(
        lattice["concepts"], key=lambda c: c["extent"]
    )["concept"]
    client.verb(sid, "inspect", concept=top)
    labeled = client.verb(sid, "label", concept=top, label="good", which="all")
    assert labeled["labeled"] >= 1
    return client.verb(sid, "state")


class TestConcurrentTenants:
    def test_distinct_sessions_progress_concurrently(self, client):
        """N>=4 threads each drive their own session to completion; a
        start barrier forces the requests to overlap in flight."""
        barrier = threading.Barrier(N_CLIENTS, timeout=10.0)
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def tenant(i: int) -> None:
            try:
                barrier.wait()
                results[i] = _drive_one_session(client, i)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        assert len(results) == N_CLIENTS
        for state in results.values():
            assert state["operations"]["labelings"] == 1
        sessions = {s["session"] for s in client.sessions()}
        assert {f"tenant{i}" for i in range(N_CLIENTS)} <= sessions

    def test_same_session_requests_serialize(self, client):
        """Hammer one session from N threads; the per-session lock must
        serialize them — the operation counter (a plain, unsynchronized
        Python counter) ends exactly at the request count."""
        client.create(TRACES, session="shared")
        rounds = 5
        errors: list[BaseException] = []
        barrier = threading.Barrier(N_CLIENTS, timeout=10.0)

        def worker(i: int) -> None:
            try:
                barrier.wait()
                for _ in range(rounds):
                    client.verb(i and "shared" or "shared", "inspect", concept=0)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(N_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert not errors, errors
        state = client.verb("shared", "state")
        assert state["operations"]["inspections"] == N_CLIENTS * rounds
        assert client.info("shared")["requests"] == N_CLIENTS * rounds + 1


class TestEvictionAndResume:
    def test_idle_session_evicted_then_transparently_resumed(
        self, server, client
    ):
        info = client.create(TRACES, session="idler")
        store_file = server.manager.store_dir / "idler.session.json"
        # The maintenance sweep (every 50 ms, idle_ttl 200 ms) must
        # suspend it to disk.
        deadline = threading.Event()
        for _ in range(100):
            if client.info("idler")["state"] == "suspended":
                break
            deadline.wait(0.05)
        assert client.info("idler")["state"] == "suspended"
        assert store_file.exists()
        # The next verb resumes it transparently: same classes, same
        # lattice, labels intact.
        state = client.verb("idler", "state")
        assert state["classes"] == info["classes"]
        assert client.info("idler")["state"] == "active"

    def test_suspend_survives_labels(self, client):
        client.create(TRACES, session="s")
        lattice = client.verb("s", "lattice")
        top = max(lattice["concepts"], key=lambda c: c["extent"])["concept"]
        client.verb("s", "label", concept=top, label="good", which="all")
        before = client.verb("s", "state")
        assert client.verb("s", "suspend")["suspended"] is True
        after = client.verb("s", "state")  # transparent resume
        assert after["unlabeled"] == before["unlabeled"]
        assert after["classes"] == before["classes"]


class TestMetricsEndpoint:
    def test_lifecycle_counters_and_latency_histograms(self, client):
        client.create(TRACES, session="m1")
        client.verb("m1", "state")
        client.verb("m1", "suspend")
        client.verb("m1", "state")  # resume
        client.kill("m1")
        metrics = parse_prometheus(client.metrics())
        assert metrics["repro_service_sessions_spawned"] >= 1.0
        assert metrics["repro_service_sessions_suspended"] >= 1.0
        assert metrics["repro_service_sessions_resumed"] >= 1.0
        assert metrics["repro_service_sessions_killed"] >= 1.0
        assert metrics["repro_service_requests"] >= 5.0
        # Latency histograms: overall and per-verb, with count/sum.
        assert metrics["repro_service_request_seconds_count"] >= 5.0
        assert metrics["repro_service_request_seconds_sum"] >= 0.0
        assert metrics["repro_service_verb_seconds_state_count"] >= 2.0

    def test_residency_gauges_exposed(self, server, client):
        client.create(TRACES, session="g")
        metrics = parse_prometheus(client.metrics())
        assert metrics["repro_service_store_resident"] >= 1.0
        assert "repro_service_store_suspended" in metrics


class TestErrorMapping:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.verb("ghost", "state")
        assert info.value.context["status"] == 404

    def test_bad_payload_is_400(self, client):
        client.create(TRACES, session="e")
        with pytest.raises(ServiceError) as info:
            client.verb("e", "label", concept="not-an-int", label="x")
        assert info.value.context["status"] == 400

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("GET", "/nope")
        assert info.value.context["status"] == 404

    def test_unknown_verb_is_400(self, client):
        client.create(TRACES, session="v")
        with pytest.raises(ServiceError) as info:
            client.verb("v", "frobnicate")
        assert info.value.context["status"] == 400

    def test_nonstring_fa_is_400_and_leaks_no_session(self, client):
        """A non-string 'fa' used to escape the taxonomy (AttributeError
        mid-spawn): the connection dropped with no response and the
        reserved SPAWNING record leaked.  It must be a clean 400, and
        the store must stay empty."""
        with pytest.raises(ServiceError) as info:
            client.request(
                "POST", "/sessions", {"traces": TRACES, "fa": 123}
            )
        assert info.value.context["status"] == 400
        assert client.sessions() == []
        # The server is not poisoned: a good create still works.
        assert client.create(TRACES, session="ok")["state"] == "active"

    def test_nonstring_session_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.request(
                "POST", "/sessions", {"traces": TRACES, "session": 123}
            )
        assert info.value.context["status"] == 400
        with pytest.raises(ServiceError) as info:
            client.request(
                "POST",
                "/sessions/attach",
                {"path": "x.session.json", "session": 123},
            )
        assert info.value.context["status"] == 400
        assert client.sessions() == []

    def test_attach_missing_file_is_409(self, client, tmp_path):
        with pytest.raises(ServiceError) as info:
            client.attach(str(tmp_path / "absent.session.json"))
        assert info.value.context["status"] == 409

    def test_attach_reports_recovery_warnings_in_json(
        self, server, client, tmp_path
    ):
        """Satellite: a server attaching a session sees backup-recovery
        warnings in the JSON response, not on some stderr."""
        from repro.cable.persist import load_session, save_session
        from repro.robustness.faults import flip_bit

        client.create(TRACES, session="w")
        external = str(tmp_path / "w.session.json")
        client.verb("w", "save", path=external)
        client.verb("w", "save", path=external)  # rotates a good backup
        flip_bit(external)
        info = client.attach(external, session="w2")
        assert info["warnings"]
        assert any("backup" in w for w in info["warnings"])
        # And the attached session still works.
        assert client.verb("w2", "state")["classes"] >= 1


class TestInternalError:
    def test_traceback_reaches_stderr_and_server_keeps_serving(
        self, client, capsys, monkeypatch
    ):
        def broken(self, record, payload):
            raise RuntimeError("injected fault")

        client.create(TRACES, session="i")
        monkeypatch.setattr(SessionService, "_verb_state", broken)
        with pytest.raises((http.client.HTTPException, ConnectionError)):
            client.verb("i", "state")
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: injected fault" in err
        monkeypatch.undo()
        assert client.verb("i", "state")["classes"] == 3
        metrics = parse_prometheus(client.metrics())
        assert metrics["repro_service_errors_internal"] == 1.0


class TestDiffEndpoint:
    def test_catalog_diff(self, client):
        result = client.diff(left="XtFree", right="XtFree")
        assert result["diff"]["relation"] == "equal"

    def test_inline_fa_diff(self, client):
        fa_a = "states: q0\ninitial: q0\naccepting: q0\n"
        result = client.diff(left_text=fa_a, right_text=fa_a)
        assert result["diff"]["relation"] == "equal"

    def test_diff_needs_operands(self, client):
        with pytest.raises(ServiceError) as info:
            client.diff(left="XtFree")
        assert info.value.context["status"] == 400
