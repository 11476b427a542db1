"""Cached, parallel evaluation of the trace relation R (Section 3.2).

Running every trace through the reference FA dominates wall time in
clustering and verification, yet the per-trace work is independent and
the same traces recur across re-clusterings, session resumes, and Focus
sub-sessions.  This module wraps :meth:`repro.fa.automaton.FA.relation`
with two pieces:

* a per-FA **LRU cache** keyed by :meth:`repro.lang.traces.Trace.key`
  (the event sequence, hashed once per trace — ``trace_id`` is ignored,
  matching dedup), held
  in a :class:`weakref.WeakKeyDictionary` so caches die with their FA;
* :func:`relation_map` — evaluate a whole corpus: cache hits are
  resolved inline, in-batch duplicates collapse to one evaluation, and
  only the distinct misses go to
  :func:`~repro.parallel.pool.parallel_map` (serial, or a process pool
  when ``jobs > 1``).

The fan-out ships **trace indices, not traces**: a worker ``initializer``
materializes the FA and the pending trace list once per worker (for the
process backend, once per child process; for serial, once in process),
so the per-chunk pickle payload is a few small ints instead of a copy
of the automaton per chunk.

On a wall-budget trip mid-fan-out, every chunk that *did* finish is
written into the cache before :class:`BudgetExceeded` propagates, so
the checkpoint it carries is trivially resumable: call again and only
the genuinely missing traces are re-run.

Supervision (see :mod:`repro.parallel.pool`): ``retry=`` re-attempts
transient per-trace failures, ``task_timeout=`` bounds one task's wall
time, and ``on_fault="quarantine"`` completes with the survivors,
returning a :class:`RelationMapResult` whose ``failures`` name the
poisoned trace positions with their exception chains — the clustering
layer routes those into the
:class:`~repro.robustness.quarantine.RejectedReport` machinery.

Observability: span ``relation.map`` (attrs ``traces``/``jobs``/
``backend``/``hits``/``misses``/``faults``), counters
``relation.cache.hits`` and ``relation.cache.misses``, plus the
``parallel.*`` span/counters of the underlying pool.
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from weakref import WeakKeyDictionary

from repro import obs
from repro.fa.automaton import FA, RelationResult
from repro.lang.traces import Trace, TraceKey
from repro.parallel.pool import (
    MapCheckpoint,
    effective_backend,
    parallel_map,
    resolve_jobs,
)
from repro.robustness.budget import Budget
from repro.robustness.errors import BudgetExceeded, InputError, TaskError
from repro.robustness.supervise import (
    BackendDowngrade,
    PartialMapResult,
    RetryPolicy,
)

#: Default per-FA cache capacity (relation rows are tiny — a bool and a
#: small frozenset — so this is a few hundred KB at worst).
DEFAULT_CACHE_SIZE = 4096


class RelationCache:
    """An LRU cache of :class:`RelationResult` rows for one FA.

    Keys are ``trace.key()`` (:class:`~repro.lang.traces.TraceKey`).
    Thread-safe, so the concurrent sessions of ``cable serve`` can share
    one instance.

    When constructed with ``fa=...`` the cache watches that automaton's
    :attr:`~repro.fa.automaton.FA.version` counter (held via a weak
    reference so the shared-cache registry can still be keyed weakly):
    if the FA's language-defining attributes are reassigned after rows
    were cached, every stale row is dropped on the next access instead
    of being served for a language the FA no longer accepts.
    """

    def __init__(
        self, maxsize: int = DEFAULT_CACHE_SIZE, fa: FA | None = None
    ) -> None:
        if maxsize < 1:
            raise InputError("maxsize must be positive", maxsize=maxsize)
        self.maxsize = maxsize
        self._data: OrderedDict[TraceKey, RelationResult] = OrderedDict()
        self._lock = threading.Lock()
        self._fa_ref = weakref.ref(fa) if fa is not None else None
        self._fa_version = fa.version if fa is not None else None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def _refresh_version(self) -> None:
        """Drop every row if the watched FA mutated since they were cached.

        Called under ``self._lock``.  A dead weak reference (the FA was
        collected while the cache is still referenced directly) leaves
        the rows alone — no one can mutate a collected FA.
        """
        if self._fa_ref is None:
            return
        fa = self._fa_ref()
        if fa is None or fa.version == self._fa_version:
            return
        self._data.clear()
        self._fa_version = fa.version
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: TraceKey) -> RelationResult | None:
        with self._lock:
            self._refresh_version()
            result = self._data.get(key)
            if result is None:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
            return result

    def put(self, key: TraceKey, result: RelationResult) -> None:
        with self._lock:
            self._refresh_version()
            self._data[key] = result
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }


@dataclass(frozen=True)
class RelationMapResult:
    """A relation fan-out that completed with survivors.

    Returned by :func:`relation_map` under ``on_fault="quarantine"``.
    ``results`` aligns with the input traces (``None`` where the
    evaluation was poisoned); ``failures`` lists every failed position
    with its :class:`~repro.robustness.errors.TaskError` — duplicate
    traces of one failed evaluation each get an entry, so callers can
    quarantine whole identical-event classes.
    """

    results: tuple[RelationResult | None, ...]
    failures: tuple[tuple[int, TaskError], ...] = ()
    retries: int = 0
    timeouts: int = 0
    downgrades: tuple[BackendDowngrade, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.failures)


_caches: "WeakKeyDictionary[FA, RelationCache]" = WeakKeyDictionary()
_caches_lock = threading.Lock()


def relation_cache(fa: FA) -> RelationCache:
    """The shared per-FA cache (created on first use, dies with the FA)."""
    with _caches_lock:
        cache = _caches.get(fa)
        if cache is None:
            cache = _caches[fa] = RelationCache(fa=fa)
        return cache


def clear_relation_caches() -> None:
    """Drop every per-FA cache (benchmarks want cold-path numbers)."""
    with _caches_lock:
        obs.event("relation.cache.cleared", caches=len(_caches))
        for cache in _caches.values():
            cache.clear()
        _caches.clear()


def cached_relation(fa: FA, trace: Trace) -> RelationResult:
    """One trace's relation row through the shared per-FA cache."""
    cache = relation_cache(fa)
    key = trace.key()
    result = cache.get(key)
    if result is None:
        result = fa.relation(trace)
        cache.put(key, result)
        obs.inc("relation.cache.misses")
    else:
        obs.inc("relation.cache.hits")
    return result


# --------------------------------------------------------------------- #
# worker-side state for the index-shipping fan-out
# --------------------------------------------------------------------- #

#: Per-process registry of materialized (FA, pending traces) pairs, keyed
#: by a fan-out token.  Process-backend workers populate their own copy
#: via the pool ``initializer``; the serial backend populates (and the
#: owning :func:`relation_map` call cleans up) the parent's entry.  The
#: token key keeps concurrent fan-outs — e.g. two sessions of the
#: multi-tenant debugging service sharing one process — from clobbering
#: each other.
_WORKER_CONTEXTS: dict[str, tuple[FA, list[Trace]]] = {}

_token_counter = itertools.count()


def _next_token() -> str:
    return f"{os.getpid()}:{next(_token_counter)}"


def _relation_worker_init(token: str, fa: FA, traces: list[Trace]) -> None:
    """Pool initializer: materialize the FA and trace list once per worker."""
    _WORKER_CONTEXTS[token] = (fa, traces)


def _relation_at(token: str, index: int) -> RelationResult:
    """Evaluate one pending trace by index against the worker-local FA."""
    fa, traces = _WORKER_CONTEXTS[token]
    return fa.relation(traces[index])


def relation_map(
    fa: FA,
    traces: Sequence[Trace],
    *,
    jobs: int | None = None,
    backend: str = "process",
    chunk_size: int | None = None,
    budget: Budget | None = None,
    cache: RelationCache | bool | None = True,
    clock: Callable[[], float] | None = None,
    retry: RetryPolicy | int | None = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
) -> "list[RelationResult] | RelationMapResult":
    """The relation rows for a whole corpus, in trace order.

    ``cache=True`` (default) uses the shared per-FA cache; pass a
    :class:`RelationCache` to use your own, or ``False``/``None`` to
    bypass caching entirely.  ``jobs``/``backend``/``chunk_size``/
    ``budget``/``clock``/``retry``/``task_timeout``/``on_fault`` are the
    :func:`~repro.parallel.pool.parallel_map` knobs; only distinct
    cache-missing traces are fanned out, and they are shipped to the
    pool as *indices* — each worker materializes the FA and the pending
    list once via the pool initializer, so chunks carry no copies of
    the automaton.  Under ``on_fault="quarantine"`` the return value is
    a :class:`RelationMapResult` (survivors plus per-position failures)
    instead of a plain list.
    """
    traces = list(traces)
    if cache is True:
        store: RelationCache | None = relation_cache(fa)
    elif cache is False or cache is None:
        store = None
    else:
        store = cache

    results: list[RelationResult | None] = [None] * len(traces)
    njobs = resolve_jobs(jobs)
    with obs.span("relation.map", traces=len(traces), jobs=njobs) as span:
        # Resolve hits and collapse in-batch duplicates; ``pending`` maps
        # each distinct missing key to every position that needs it.
        pending: dict[TraceKey, list[int]] = {}
        for i, trace in enumerate(traces):
            key = trace.key()
            cached = store.get(key) if store is not None else None
            if cached is not None:
                results[i] = cached
            else:
                pending.setdefault(key, []).append(i)
        hits = len(traces) - sum(map(len, pending.values()))
        keys = list(pending)
        todo = [traces[positions[0]] for positions in pending.values()]
        span.set(backend=effective_backend(backend, njobs, len(todo)))

        def bank(index: int, result: RelationResult) -> None:
            if store is not None:
                store.put(keys[index], result)

        token = _next_token()
        try:
            computed = parallel_map(
                partial(_relation_at, token),
                list(range(len(todo))),
                jobs=jobs,
                backend=backend,
                chunk_size=chunk_size,
                budget=budget,
                clock=clock,
                retry=retry,
                task_timeout=task_timeout,
                on_fault=on_fault,
                initializer=_relation_worker_init,
                initargs=(token, fa, todo),
            )
        except BudgetExceeded as exc:
            # Bank the chunks that finished so the retry only pays for
            # what is genuinely missing — the resumable checkpoint.
            if isinstance(exc.checkpoint, MapCheckpoint):
                for j, result in exc.checkpoint.completed.items():
                    bank(j, result)
            raise
        finally:
            # The serial rung initializes in-process; drop the entry.
            # (Process-worker copies die with their worker processes.)
            _WORKER_CONTEXTS.pop(token, None)
        if isinstance(computed, PartialMapResult):
            # Quarantine mode: fan survivors out to their duplicate
            # positions and charge each failed distinct key to *every*
            # position that needed it.
            failed: dict[int, TaskError] = {
                f.index: f.error for f in computed.failures
            }
            failures: list[tuple[int, TaskError]] = []
            for j, positions in enumerate(pending.values()):
                if j in failed:
                    failures.extend((i, failed[j]) for i in positions)
                    continue
                result = computed.completed[j]
                bank(j, result)
                for i in positions:
                    results[i] = result
            failures.sort(key=lambda pair: pair[0])
            span.set(
                hits=hits, misses=len(todo), faults=len(failures)
            )
            obs.inc("relation.cache.hits", hits)
            obs.inc("relation.cache.misses", len(todo))
            return RelationMapResult(
                results=tuple(results),
                failures=tuple(failures),
                retries=computed.retries,
                timeouts=computed.timeouts,
                downgrades=computed.downgrades,
            )
        for j, (positions, result) in enumerate(zip(pending.values(), computed)):
            bank(j, result)
            for i in positions:
                results[i] = result
        span.set(hits=hits, misses=len(todo))
        obs.inc("relation.cache.hits", hits)
        obs.inc("relation.cache.misses", len(todo))
    return results  # type: ignore[return-value]
