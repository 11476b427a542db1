"""``repro.parallel`` — the supervised worker-pool execution layer.

The relation R of Section 3.2 (every trace run through the reference FA)
dominates wall time in clustering and verification and is embarrassingly
parallel.  This package provides the two pieces the hot paths share:

* :func:`parallel_map` — a generic chunked map (serial, or a process
  pool when ``jobs > 1``; deterministic result ordering, budget-aware
  cancellation with resumable :class:`MapCheckpoint`) run under a
  supervisor: per-item retries with exponential backoff (``retry=``),
  per-task wall timeouts (``task_timeout=``), poison-item quarantine
  (``on_fault="quarantine"`` →
  :class:`~repro.robustness.supervise.PartialMapResult`), and a
  ``process`` → ``serial`` downgrade when a pool breaks;
* :func:`relation_map` / :class:`RelationCache` — the relation evaluated
  over a whole corpus, with a per-FA LRU cache in front of the pool.

``cluster_traces``, ``extend_clustering`` and ``verify.check_all`` all
accept ``jobs``/``retry``/``task_timeout``/``on_fault`` and route
through here; the ``cable`` CLI and ``run_spec``
surface them as ``--jobs N`` (``0`` = one worker per CPU),
``--retries N``, and ``--on-fault MODE``.  A
:mod:`repro.robustness.chaos` profile (``REPRO_CHAOS``) injects
deterministic faults into every path for end-to-end supervision tests.
See ``docs/performance.md`` and ``docs/robustness.md``.
"""

from repro.parallel.pool import (
    BACKENDS,
    CHUNKS_PER_WORKER,
    FAULT_MODES,
    MapCheckpoint,
    auto_chunk_size,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.relation import (
    DEFAULT_CACHE_SIZE,
    RelationCache,
    RelationMapResult,
    cached_relation,
    clear_relation_caches,
    relation_cache,
    relation_map,
)
from repro.robustness.supervise import (
    PartialMapResult,
    RetryPolicy,
    TaskFailure,
)

__all__ = [
    "BACKENDS",
    "CHUNKS_PER_WORKER",
    "DEFAULT_CACHE_SIZE",
    "FAULT_MODES",
    "MapCheckpoint",
    "PartialMapResult",
    "RelationCache",
    "RelationMapResult",
    "RetryPolicy",
    "TaskFailure",
    "auto_chunk_size",
    "cached_relation",
    "clear_relation_caches",
    "parallel_map",
    "relation_cache",
    "relation_map",
    "resolve_jobs",
]
