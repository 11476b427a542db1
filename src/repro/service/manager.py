"""The multi-tenant session store behind the Cable debugging server.

A :class:`SessionManager` owns every served :class:`~repro.cable.
session.CableSession` and applies the lifecycle machine of
:mod:`repro.service.lifecycle`:

* **bounded residency** — at most ``max_sessions`` sessions are held in
  memory; when a create/resume would exceed the bound, the
  least-recently-used idle session is suspended to disk first
  (``StoreFull`` only when everything resident is busy);
* **idle eviction** — :meth:`maintain` suspends sessions idle longer
  than ``idle_ttl`` (crash-safely, via :func:`repro.cable.persist.
  save_session`, rotating backups intact) and transparently resumes
  them on their next request;
* **serialization** — verbs on one session run under that session's
  lock; verbs on distinct sessions run in parallel.  Metadata (states,
  idle times) lives under the store lock, so listings never block
  behind a slow lattice build;
* **zombie reaping** — a request holding a session's lock longer than
  ``zombie_after`` marks the session ``ZOMBIE`` (new requests refused);
  the next sweep reaps it to ``DEAD``.  A zombie whose request does
  finish is rehabilitated to ``ACTIVE``.

Per-request ``budget=`` / ``task_timeout=`` / ``on_fault=`` are plumbed
down to :func:`~repro.core.trace_clustering.cluster_traces` and the
supervised fan-outs of :mod:`repro.robustness.supervise`, so a runaway
build trips its budget and fails one request instead of wedging the
server.

Lifecycle metrics (``service.sessions.*`` — spawned, suspended,
resumed, reaped, killed, evicted) and residency gauges feed the
server's ``/metrics`` endpoint.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from repro import obs
from repro.cable.persist import load_session_with_recovery, save_session
from repro.cable.session import CableSession
from repro.core.trace_clustering import cluster_traces
from repro.fa.automaton import FA
from repro.fa.serialization import fa_from_text
from repro.lang.traces import Trace, parse_traces
from repro.learners.sk_strings import learn_sk_strings
from repro.robustness.budget import Budget
from repro.robustness.errors import InputError, LookupInputError
from repro.service.lifecycle import (
    SessionBusy,
    SessionRecord,
    SessionState,
    StoreFull,
    advance,
)

#: Legal session ids: path-safe, so ``<id>.session.json`` cannot escape
#: the store directory.
SESSION_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Default bound on resident sessions.
DEFAULT_MAX_SESSIONS = 16

#: Default idle time (seconds) before a session is suspended to disk.
DEFAULT_IDLE_TTL = 300.0

#: Default busy time (seconds) before a session is declared a zombie.
DEFAULT_ZOMBIE_AFTER = 600.0

#: How long a request waits for a session's lock before giving up.
DEFAULT_LOCK_TIMEOUT = 60.0


def _gauges(active: int, suspended: int) -> None:
    obs.set_gauge("service.store.resident", active)
    obs.set_gauge("service.store.suspended", suspended)


class SessionManager:
    """The bounded, lifecycle-aware store of served Cable sessions."""

    def __init__(
        self,
        store_dir: str | Path,
        *,
        max_sessions: int = DEFAULT_MAX_SESSIONS,
        idle_ttl: float = DEFAULT_IDLE_TTL,
        zombie_after: float = DEFAULT_ZOMBIE_AFTER,
        lock_timeout: float = DEFAULT_LOCK_TIMEOUT,
        jobs: int | None = None,
        retries: int | None = None,
        on_fault: str = "raise",
        task_timeout: float | None = None,
        budget: Budget | None = None,
        confine_paths: bool | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if max_sessions < 1:
            raise InputError(
                "max_sessions must be positive", max_sessions=max_sessions
            )
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.zombie_after = zombie_after
        self.lock_timeout = lock_timeout
        #: Server-wide supervision defaults; per-request values override.
        self.jobs = jobs
        self.retries = retries
        self.on_fault = on_fault
        self.task_timeout = task_timeout
        self.budget = budget
        #: Restrict client-supplied save/attach paths to the store
        #: directory.  ``None`` means "decide at bind time": the server
        #: turns it on when listening on a non-loopback interface (an
        #: unauthenticated remote client must not read or write
        #: arbitrary files).
        self.confine_paths = confine_paths
        self._clock = clock or time.monotonic
        #: LRU order: oldest first.  Guarded by ``_lock`` with every
        #: other piece of store metadata (record states, idle stamps).
        self._records: OrderedDict[str, SessionRecord] = OrderedDict()
        self._serial = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def _slot_path(self, session_id: str) -> Path:
        return self.store_dir / f"{session_id}.session.json"

    def resolve_user_path(self, path: str | Path) -> Path:
        """Vet a client-supplied session-file path (save/attach target).

        With :attr:`confine_paths` on, the resolved path must live
        inside the store directory; anything else is refused with
        :class:`~repro.robustness.errors.InputError`.  Off (the
        loopback-bind default), paths pass through untouched — the
        trust model is documented in ``docs/service.md``.
        """
        if not isinstance(path, (str, Path)) or not str(path):
            raise InputError(
                "session file path must be a non-empty string",
                path=repr(path),
            )
        if not self.confine_paths:
            return Path(path)
        resolved = Path(path).expanduser().resolve()
        root = self.store_dir.resolve()
        if resolved != root and root not in resolved.parents:
            raise InputError(
                "path is outside the session store (this server is not "
                "bound to loopback, so save/attach paths are confined "
                "to the store directory)",
                path=str(path),
                store=str(root),
            )
        return resolved

    def _register(self, session_id: str | None) -> SessionRecord:
        """Reserve a SPAWNING record (and its residency slot) atomically."""
        now = self._clock()
        with self._lock:
            if session_id is None:
                self._serial += 1
                session_id = f"s{self._serial:04d}"
                while session_id in self._records:
                    self._serial += 1
                    session_id = f"s{self._serial:04d}"
            elif not SESSION_ID.match(session_id):
                raise InputError(
                    "session id must be alphanumeric with ._- (max 64 chars)",
                    session=session_id,
                )
            elif session_id in self._records:
                raise InputError(
                    "session id already exists", session=session_id
                )
            self._make_room_locked()
            record = SessionRecord(
                session_id=session_id,
                path=self._slot_path(session_id),
                created_at=now,
                last_used=now,
            )
            self._records[session_id] = record
            return record

    def _make_room_locked(self) -> None:
        """Ensure one residency slot is free (store lock held).

        Suspends the least-recently-used idle ACTIVE session; raises
        :class:`StoreFull` when every resident session is busy or
        focused (an open focus stack cannot be persisted).
        """
        while self._resident_count_locked() >= self.max_sessions:
            victim = self._lru_idle_locked()
            if victim is None:
                raise StoreFull(
                    "session store is full and no resident session is "
                    "evictable",
                    max_sessions=self.max_sessions,
                )
            # Drop the store lock ordering problem: we hold _lock, and
            # _suspend_record only takes the session's own lock
            # non-blocking, so this cannot deadlock with a request
            # (requests take the session lock first, then _lock).
            if not self._suspend_record_locked(victim, reason="lru"):
                # The victim got busy between selection and suspension;
                # try the next candidate.
                continue

    def _resident_count_locked(self) -> int:
        return sum(1 for r in self._records.values() if r.resident)

    def _lru_idle_locked(self) -> SessionRecord | None:
        for record in self._records.values():  # oldest last_used first
            if (
                record.state is SessionState.ACTIVE
                and record.busy_since is None
                and not record.focused
            ):
                return record
        return None

    # ------------------------------------------------------------------ #
    # create / attach
    # ------------------------------------------------------------------ #

    def create(
        self,
        traces: Sequence[Trace] | Sequence[str],
        fa_text: str | None = None,
        *,
        session_id: str | None = None,
        budget: Budget | None = None,
        task_timeout: float | None = None,
        on_fault: str | None = None,
    ) -> SessionRecord:
        """Cluster ``traces`` into a new served session.

        ``traces`` may be parsed :class:`Trace` objects or raw
        ``"a(x); b(x)"`` strings; without ``fa_text`` the reference FA
        is learned with sk-strings (the miner-FA default).  The
        clustering runs under the given (or server-default) budget and
        supervision knobs, so a pathological corpus fails this request
        instead of the server.
        """
        record = self._register(session_id)
        with obs.span(
            "service.create", session=record.session_id, traces=len(traces)
        ) as span:
            try:
                parsed = parse_traces(traces, standardize=True)
                if not parsed:
                    raise InputError("create needs at least one trace")
                if fa_text:
                    reference: FA = fa_from_text(fa_text)
                else:
                    reference = learn_sk_strings(parsed, k=2, s=1.0).fa
                clustering = cluster_traces(
                    parsed,
                    reference,
                    budget=budget if budget is not None else self.budget,
                    jobs=self.jobs,
                    retry=self.retries,
                    task_timeout=(
                        task_timeout
                        if task_timeout is not None
                        else self.task_timeout
                    ),
                    on_fault=on_fault if on_fault is not None else self.on_fault,
                )
                session = CableSession(
                    clustering,
                    jobs=self.jobs,
                    retries=self.retries,
                    on_fault=on_fault if on_fault is not None else self.on_fault,
                )
            except BaseException:
                # Bury on *any* failure, not just the taxonomy: a record
                # stuck in SPAWNING holds a residency slot forever and is
                # never evictable, so a few malformed requests would fill
                # the store. A bad request must fail one request, not the
                # server.
                self._bury(record)
                raise
            with self._lock:
                record.stack = [session]
                advance(record, SessionState.ACTIVE)
                record.last_used = self._clock()
            obs.inc("service.sessions.spawned")
            self._update_gauges()
            span.set(
                classes=clustering.num_objects,
                concepts=len(session.lattice),
            )
            return record

    def attach(
        self, path: str | Path, *, session_id: str | None = None
    ) -> SessionRecord:
        """Load a persisted session file into the store.

        Backup recovery warnings (the main file was corrupt and a
        ``.bak`` was used) land in ``record.warnings`` — the server
        returns them in the attach response, where they matter more
        than on a human's stderr.  Future suspensions write to the
        session's *store slot*, never back to the attached file.
        """
        path = self.resolve_user_path(path)
        record = self._register(session_id)
        with obs.span(
            "service.attach", session=record.session_id, path=str(path)
        ) as span:
            try:
                session, warnings = load_session_with_recovery(path)
            except BaseException:
                self._bury(record)
                raise
            session.jobs = self.jobs
            session.retries = self.retries
            session.on_fault = self.on_fault
            with self._lock:
                record.stack = [session]
                record.warnings.extend(warnings)
                advance(record, SessionState.ACTIVE)
                record.last_used = self._clock()
            obs.inc("service.sessions.spawned")
            self._update_gauges()
            span.set(
                classes=session.clustering.num_objects,
                warnings=len(warnings),
            )
            return record

    def _bury(self, record: SessionRecord) -> None:
        """A spawn failed: mark the reserved record DEAD and drop it."""
        with self._lock:
            advance(record, SessionState.DEAD)
            self._records.pop(record.session_id, None)

    # ------------------------------------------------------------------ #
    # request execution
    # ------------------------------------------------------------------ #

    def run(
        self, session_id: str, fn: Callable[[SessionRecord], Any]
    ) -> Any:
        """Run ``fn(record)`` with the session's lock held.

        Suspended sessions are transparently resumed first; requests to
        one session serialize on its lock (waiting at most
        ``lock_timeout`` seconds before :class:`SessionBusy`), while
        distinct sessions proceed in parallel.  ``fn`` runs *without*
        the store lock, so a slow verb never blocks listings or other
        sessions.
        """
        record = self._get(session_id)
        if not record.lock.acquire(timeout=self.lock_timeout):
            obs.inc("service.sessions.lock_timeouts")
            raise SessionBusy(
                "session is busy (request lock not acquired in time)",
                session=session_id,
                waited_seconds=self.lock_timeout,
            )
        try:
            with self._lock:
                if record.state is SessionState.DEAD:
                    raise LookupInputError(
                        "session is dead", session=session_id
                    )
                if record.state is SessionState.ZOMBIE:
                    # The wedged request finished (we hold the lock):
                    # rehabilitate.
                    advance(record, SessionState.ACTIVE)
                needs_resume = record.state is SessionState.SUSPENDED
            if needs_resume:
                self._resume(record)
            with self._lock:
                now = self._clock()
                record.busy_since = now
                record.last_used = now
                record.requests += 1
                self._records.move_to_end(session_id)
            try:
                with obs.span("service.run", session=session_id):
                    return fn(record)
            finally:
                with self._lock:
                    record.busy_since = None
                    record.last_used = self._clock()
        finally:
            record.lock.release()

    def _get(self, session_id: str) -> SessionRecord:
        with self._lock:
            record = self._records.get(session_id)
        if record is None:
            raise LookupInputError("unknown session", session=session_id)
        return record

    def _resume(self, record: SessionRecord) -> None:
        """Reload a suspended session from its store slot (session lock
        held by the caller)."""
        with obs.span("service.resume", session=record.session_id) as span:
            with self._lock:
                self._make_room_locked()
            session, warnings = load_session_with_recovery(record.path)
            session.jobs = self.jobs
            session.retries = self.retries
            session.on_fault = self.on_fault
            with self._lock:
                record.stack = [session]
                record.warnings.extend(warnings)
                advance(record, SessionState.ACTIVE)
            obs.inc("service.sessions.resumed")
            self._update_gauges()
            span.set(warnings=len(warnings))

    # ------------------------------------------------------------------ #
    # suspension / eviction / reaping
    # ------------------------------------------------------------------ #

    def suspend(self, session_id: str) -> bool:
        """Explicitly suspend one session to disk (False if busy/focused)."""
        record = self._get(session_id)
        with self._lock:
            return self._suspend_record_locked(record, reason="explicit")

    def _suspend_record_locked(
        self, record: SessionRecord, reason: str
    ) -> bool:
        """Suspend ``record`` if it is idle (store lock held).

        Takes the session lock non-blocking — a session mid-request is
        simply not evictable right now.  The save itself is crash-safe
        (temp + fsync + rename with rotating backups).
        """
        if record.state is not SessionState.ACTIVE or record.focused:
            return False
        if not record.lock.acquire(blocking=False):
            return False
        try:
            save_session(record.session, record.path)
            record.stack = []
            advance(record, SessionState.SUSPENDED)
        finally:
            record.lock.release()
        obs.inc("service.sessions.suspended")
        if reason != "explicit":
            obs.inc("service.sessions.evicted")
        obs.event(
            "service.suspend", session=record.session_id, reason=reason
        )
        self._update_gauges_locked()
        return True

    def kill(self, session_id: str) -> None:
        """Terminate a session and forget it (its store slot remains)."""
        record = self._get(session_id)
        with obs.span("service.kill", session=session_id):
            with self._lock:
                if record.state is not SessionState.DEAD:
                    advance(record, SessionState.DEAD)
                record.stack = []
                self._records.pop(session_id, None)
            obs.inc("service.sessions.killed")
            self._update_gauges()

    def maintain(self) -> dict[str, int]:
        """One housekeeping sweep: idle eviction + zombie detection/reaping.

        Returns counts of what happened (``{"suspended": n, "zombies":
        n, "reaped": n}``) for the server's maintenance log.
        """
        with obs.span("service.maintain") as span:
            now = self._clock()
            suspended = zombies = reaped = 0
            with self._lock:
                records = list(self._records.values())
            for record in records:
                with self._lock:
                    state = record.state
                    busy_since = record.busy_since
                    idle = now - record.last_used
                if state is SessionState.ZOMBIE:
                    self._reap(record)
                    reaped += 1
                elif (
                    state is SessionState.ACTIVE
                    and busy_since is not None
                    and now - busy_since > self.zombie_after
                ):
                    wedged = False
                    with self._lock:
                        # Re-check under the lock — including the elapsed
                        # time: the wedged request may have finished and a
                        # *fresh* request started since the snapshot, and
                        # a healthy session must not be zombified.
                        if (
                            record.state is SessionState.ACTIVE
                            and record.busy_since is not None
                            and self._clock() - record.busy_since
                            > self.zombie_after
                        ):
                            advance(record, SessionState.ZOMBIE)
                            wedged = True
                    if wedged:
                        zombies += 1
                        obs.event(
                            "service.zombie", session=record.session_id
                        )
                elif (
                    state is SessionState.ACTIVE
                    and busy_since is None
                    and idle > self.idle_ttl
                ):
                    with self._lock:
                        if self._suspend_record_locked(record, reason="idle"):
                            suspended += 1
            span.set(suspended=suspended, zombies=zombies, reaped=reaped)
            return {
                "suspended": suspended,
                "zombies": zombies,
                "reaped": reaped,
            }

    def _reap(self, record: SessionRecord) -> None:
        """Kill a zombie (its lock is presumed held by a wedged thread)."""
        with self._lock:
            if record.state is not SessionState.ZOMBIE:
                return
            advance(record, SessionState.DEAD)
            record.stack = []
            self._records.pop(record.session_id, None)
        obs.inc("service.sessions.reaped")
        obs.event("service.reap", session=record.session_id)
        self._update_gauges()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def info(self, session_id: str) -> dict[str, Any]:
        """One session's lifecycle snapshot (never blocks on its lock)."""
        with obs.span("service.info", session=session_id):
            record = self._get(session_id)
            with self._lock:
                return self._info_locked(record)

    def _info_locked(self, record: SessionRecord) -> dict[str, Any]:
        now = self._clock()
        out: dict[str, Any] = {
            "session": record.session_id,
            "state": record.state.value,
            "busy": record.busy_since is not None,
            "focused": record.focused,
            "idle_seconds": round(max(0.0, now - record.last_used), 3),
            "requests": record.requests,
            "warnings": list(record.warnings),
        }
        # Live-object fields (lattice/clustering sizes) only while the
        # session is quiescent: verbs mutate those structures under the
        # *session* lock, and we hold only the store lock here.  While
        # ``busy_since`` is set a verb may be mid-rebuild, so listings
        # stick to metadata and never observe a transient state.
        if record.stack and record.busy_since is None:
            session = record.stack[0]
            out["classes"] = session.clustering.num_objects
            out["concepts"] = len(session.lattice)
            out["operations"] = session.ops.total
        return out

    def list_sessions(self) -> list[dict[str, Any]]:
        """Lifecycle snapshots for every known session, LRU order."""
        with obs.span("service.list"):
            with self._lock:
                return [
                    self._info_locked(r) for r in self._records.values()
                ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------ #
    # metrics plumbing
    # ------------------------------------------------------------------ #

    def _update_gauges(self) -> None:
        with self._lock:
            self._update_gauges_locked()

    def _update_gauges_locked(self) -> None:
        resident = sum(1 for r in self._records.values() if r.resident)
        suspended = sum(
            1
            for r in self._records.values()
            if r.state is SessionState.SUSPENDED
        )
        _gauges(resident, suspended)


__all__ = [
    "DEFAULT_IDLE_TTL",
    "DEFAULT_LOCK_TIMEOUT",
    "DEFAULT_MAX_SESSIONS",
    "DEFAULT_ZOMBIE_AFTER",
    "SESSION_ID",
    "SessionManager",
]
