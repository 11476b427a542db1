"""The HTTP face of the Cable debugging server.

A thin, stdlib-only layer (``http.server`` + ``socketserver``
threading — the package has zero runtime deps) over
:class:`~repro.service.api.SessionService`:

====== ============================== ===================================
Method Path                           Meaning
====== ============================== ===================================
GET    ``/health``                    liveness + store size
GET    ``/metrics``                   live Prometheus text 0.0.4
GET    ``/sessions``                  lifecycle snapshot of every session
GET    ``/sessions/{id}``             one session's snapshot
POST   ``/sessions``                  create (cluster traces)
POST   ``/sessions/attach``           attach a persisted session file
POST   ``/sessions/{id}/{verb}``      one Cable verb (label, focus, ...)
POST   ``/diff``                      spec-level language diff
DELETE ``/sessions/{id}``             kill
====== ============================== ===================================

Every request is timed into the ``service.request_seconds`` histogram
(plus a per-verb ``service.verb_seconds.<verb>``) and counted in
``service.requests`` / ``service.errors`` — all of which ``GET
/metrics`` serves back out, closing the observability loop.  Errors
from the :mod:`repro.robustness.errors` taxonomy map onto HTTP statuses
(unknown session → 404, malformed payload → 400, store full / busy /
budget-exceeded → 503 with ``Retry-After``, corrupt persistence → 409);
anything outside the taxonomy escapes to ``handle_error``, which logs
the fault and fails only that connection, never the server.

:class:`CableServer` owns the listener thread plus a maintenance thread
that runs :meth:`SessionManager.maintain` (idle eviction, zombie
reaping) every ``maintenance_interval`` seconds.
"""

from __future__ import annotations

import ipaddress
import json
import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import obs
from repro.cable.session import SelectionError
from repro.obs.promtext import render_prometheus
from repro.robustness.errors import (
    BudgetExceeded,
    InputError,
    LookupInputError,
    ReproError,
    SessionCorrupt,
    TaskTimeout,
)
from repro.service.api import SessionService
from repro.service.lifecycle import SessionBusy, StoreFull
from repro.service.manager import SessionManager

#: Largest accepted request body (a trace corpus, not a DOS vector).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Content type of the Prometheus exposition format we emit.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def is_loopback_host(host: str) -> bool:
    """Whether ``host`` can only be reached from this machine."""
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def status_for(exc: BaseException) -> int:
    """The HTTP status an error from the repro taxonomy maps onto."""
    if isinstance(exc, LookupInputError):
        return 404
    if isinstance(exc, (StoreFull, SessionBusy, BudgetExceeded)):
        return 503
    if isinstance(exc, SessionCorrupt):
        return 409
    if isinstance(exc, TaskTimeout):
        return 504
    if isinstance(exc, (InputError, SelectionError, ValueError)):
        return 400
    return 500


def error_body(exc: BaseException) -> dict[str, Any]:
    """The JSON error document for ``exc`` (taxonomy context included)."""
    if isinstance(exc, ReproError):
        return {"error": exc.to_dict()}
    return {
        "error": {"error": type(exc).__name__, "message": str(exc)}
    }


class CableRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request to the session service."""

    protocol_version = "HTTP/1.1"
    server: "_Server"

    # ------------------------------------------------------------------ #
    # verb entry points
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #

    def _dispatch(self, method: str) -> None:
        started = time.monotonic()
        route = "?"
        try:
            route, result, status = self._route(method)
            self._respond(status, result)
            obs.inc("service.requests")
        except (ReproError, SelectionError, ValueError) as exc:
            status = status_for(exc)
            self._respond(status, error_body(exc), retry=status == 503)
            obs.inc("service.requests")
            obs.inc("service.errors")
            obs.inc(f"service.errors.{type(exc).__name__}")
        finally:
            elapsed = time.monotonic() - started
            obs.observe("service.request_seconds", elapsed)
            if route != "?":
                obs.observe(f"service.verb_seconds.{route}", elapsed)

    def _route(self, method: str) -> tuple[str, Any, int]:
        """Resolve the request to ``(route_name, response, status)``."""
        service = self.server.service
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        if method == "GET":
            if path == "/health":
                return (
                    "health",
                    {"status": "ok", "sessions": len(service.manager)},
                    200,
                )
            if path == "/metrics":
                return ("metrics", self._metrics_text(), 200)
            if path == "/sessions":
                return ("list", service.list_sessions(), 200)
            if len(parts) == 2 and parts[0] == "sessions":
                return ("info", service.info(parts[1]), 200)
        elif method == "POST":
            if path == "/sessions":
                return ("create", service.create(self._payload()), 201)
            if path == "/sessions/attach":
                return ("attach", service.attach(self._payload()), 201)
            if path == "/diff":
                return ("diff", service.diff(self._payload()), 200)
            if len(parts) == 3 and parts[0] == "sessions":
                verb = parts[2]
                return (
                    verb,
                    service.handle_verb(parts[1], verb, self._payload()),
                    200,
                )
        elif method == "DELETE":
            if len(parts) == 2 and parts[0] == "sessions":
                return ("kill", service.kill(parts[1]), 200)
        raise LookupInputError(
            "no such route", method=method, path=self.path
        )

    def _payload(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise InputError(
                "request body too large",
                bytes=length,
                limit=MAX_BODY_BYTES,
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        document = json.loads(raw.decode("utf-8"))
        if not isinstance(document, dict):
            raise InputError(
                "request body must be a JSON object",
                got=type(document).__name__,
            )
        return document

    def _metrics_text(self) -> str:
        registry = obs.get_registry()
        if registry is None:
            return "# metrics recording is disabled\n"
        return render_prometheus(registry)

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #

    def _respond(
        self, status: int, body: Any, *, retry: bool = False
    ) -> None:
        if isinstance(body, str):
            payload = body.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            payload = (json.dumps(body, indent=2) + "\n").encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if retry:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format: str, *args: Any) -> None:
        """Route http.server's chatter into obs events, not stderr."""
        obs.event("service.http", message=format % args)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the session service."""

    daemon_threads = True

    def __init__(
        self, address: tuple[str, int], service: SessionService
    ) -> None:
        self.service = service
        super().__init__(address, CableRequestHandler)

    def handle_error(self, request: Any, client_address: Any) -> None:
        """A fault outside the error taxonomy: log it, drop the
        connection, keep serving (overrides socketserver's
        print-to-stderr)."""
        obs.inc("service.errors")
        obs.inc("service.errors.internal")
        obs.event(
            "service.internal_error",
            client=str(client_address),
            trace=traceback.format_exc(limit=8),
        )


class CableServer:
    """One Cable debugging server: HTTP listener + maintenance sweep.

    ``port=0`` binds an ephemeral port (the bound one is in ``.port``
    after construction) — the end-to-end tests rely on this.  Use as a
    context manager, or call :meth:`start` / :meth:`shutdown`.
    """

    def __init__(
        self,
        manager: SessionManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        maintenance_interval: float = 30.0,
    ) -> None:
        # /metrics needs a live registry.  Metrics only: a sink would
        # keep every span and event for the life of the process.
        if obs.get_registry() is None:
            obs.configure(registry=obs.MetricsRegistry())
        self.manager = manager
        self.service = SessionService(manager)
        self.maintenance_interval = maintenance_interval
        self._httpd = _Server((host, port), self.service)
        self.host, self.port = self._httpd.server_address[:2]
        # Path confinement by default when anyone off-box can reach us:
        # save/attach take client-supplied file paths, and a non-loopback
        # bind has no auth (docs/service.md, "Trust model").  An explicit
        # SessionManager(confine_paths=...) choice is respected.
        if self.manager.confine_paths is None:
            self.manager.confine_paths = not is_loopback_host(str(self.host))
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "CableServer":
        """Serve in daemon threads; returns immediately."""
        with obs.span("service.start", host=self.host, port=self.port):
            serve = threading.Thread(
                target=self._httpd.serve_forever,
                name="cable-serve",
                daemon=True,
            )
            sweep = threading.Thread(
                target=self._maintenance_loop,
                name="cable-maintain",
                daemon=True,
            )
            self._threads = [serve, sweep]
            for thread in self._threads:
                thread.start()
            obs.event("service.started", url=self.url)
            return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI path); the maintenance
        sweep still runs in the background."""
        with obs.span("service.serve", host=self.host, port=self.port):
            sweep = threading.Thread(
                target=self._maintenance_loop,
                name="cable-maintain",
                daemon=True,
            )
            self._threads = [sweep]
            sweep.start()
            obs.event("service.started", url=self.url)
            try:
                self._httpd.serve_forever()
            finally:
                self._stop.set()

    def _maintenance_loop(self) -> None:
        while not self._stop.wait(self.maintenance_interval):
            self.manager.maintain()

    def shutdown(self) -> None:
        with obs.span("service.shutdown"):
            self._stop.set()
            self._httpd.shutdown()
            self._httpd.server_close()
            for thread in self._threads:
                thread.join(timeout=5.0)
            obs.event("service.stopped", url=self.url)

    def __enter__(self) -> "CableServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()


__all__ = [
    "CableRequestHandler",
    "CableServer",
    "MAX_BODY_BYTES",
    "PROMETHEUS_CONTENT_TYPE",
    "error_body",
    "is_loopback_host",
    "status_for",
]
