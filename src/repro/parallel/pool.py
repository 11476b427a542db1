"""The supervised worker-pool map under everything ``repro.parallel`` does.

:func:`parallel_map` applies a function to every item of a sequence and
returns the results **in item order**, whatever order the workers finish
in.  Two backends share one contract:

* ``"serial"`` — a plain loop in the calling thread (also what the
  process backend falls back to for one job or one item), so
  ``jobs=1`` costs no pool setup at all;
* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  for the CPU-bound pure-Python work that dominates this codebase (the
  function and items must pickle).  It is the default, but it only
  starts when ``jobs > 1``.

Items are submitted in contiguous **chunks** (auto-sized to a few chunks
per worker unless ``chunk_size`` is given) so per-task overhead
amortizes.  Every task runs inside a *supervised envelope*
(:mod:`repro.robustness.supervise`): failures come back as
:class:`~repro.robustness.errors.TaskError` carrying the item's index,
a repr excerpt, and the worker-side traceback — never a bare exception
with no clue which of 100k traces was responsible.  On top of the
envelope the supervisor provides:

* **retries** — pass ``retry=`` (an int or a
  :class:`~repro.robustness.supervise.RetryPolicy`) and transient
  failures are re-attempted with exponential backoff;
* **per-task timeouts** — pass ``task_timeout=`` and the supervisor's
  watchdog loop polls ``wait(..., timeout=)`` so a hung worker cannot
  stall the wall-budget check: the timed-out task fails with
  :class:`~repro.robustness.errors.TaskTimeout` within one poll of its
  deadline (process backend only — serial execution cannot be
  preempted);
* **poison quarantine** — pass ``on_fault="quarantine"`` and the map
  completes with the survivors, returning a
  :class:`~repro.robustness.supervise.PartialMapResult` whose
  ``failures`` carry each poisoned item's exception chain (the default
  ``on_fault="raise"`` keeps fail-fast semantics);
* **graceful degradation** — when a worker pool breaks
  (``BrokenProcessPool``, a killed worker, every worker hung), the
  unfinished items resubmit on the serial backend (the ``process`` →
  ``serial`` ladder) and the downgrade is recorded as an obs event and
  counter.

A wall-clock :class:`~repro.robustness.budget.Budget` is re-checked on
every watchdog poll: when it trips, pending work is cancelled and
:class:`~repro.robustness.errors.BudgetExceeded` is raised carrying a
resumable :class:`MapCheckpoint` of everything that did finish.  Pass
that checkpoint back in to skip the completed items (a checkpoint whose
``total`` does not match the item list is rejected with
:class:`~repro.robustness.errors.InputError`).

When a :mod:`repro.robustness.chaos` profile is active (via
``chaos.configure()`` or ``REPRO_CHAOS``), the mapped function is
automatically wrapped with the deterministic fault injector, so every
guarantee above is exercisable end to end on the real call paths.
"""

from __future__ import annotations

import heapq
import itertools
import os
import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.robustness import chaos
from repro.robustness.budget import Budget, BudgetMeter
from repro.robustness.errors import (
    BudgetExceeded,
    InputError,
    TaskError,
    TaskTimeout,
)
from repro.robustness.supervise import (
    BackendDowngrade,
    PartialMapResult,
    RetryPolicy,
    TaskFailure,
    as_task_error,
    attach_remote_cause,
    item_excerpt,
    next_backend,
    normalize_retry,
    reset_attempt,
    set_attempt,
)

#: The recognized ``backend=`` values.
BACKENDS = ("serial", "process")

#: The recognized ``on_fault=`` values.
FAULT_MODES = ("raise", "quarantine")

#: Auto-chunking targets this many chunks per worker, so the budget is
#: re-checked (and stragglers rebalance) a few times per worker.
CHUNKS_PER_WORKER = 4

#: The watchdog's poll interval: how long one ``wait()`` may block
#: before deadlines and the wall budget are re-checked.
POLL_SECONDS = 0.05


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs``-style value to a worker count.

    ``None`` and ``1`` mean serial; ``0`` means one worker per CPU;
    anything negative is an :class:`InputError`.
    """
    if jobs is None:
        return 1
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise InputError("jobs must be an integer", jobs=jobs)
    if jobs < 0:
        raise InputError("jobs must be >= 0 (0 = one per CPU)", jobs=jobs)
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def effective_backend(backend: str, njobs: int, num_items: int) -> str:
    """The backend a map actually runs on: one job or one item is serial."""
    return backend if njobs > 1 and num_items > 1 else "serial"


def auto_chunk_size(num_items: int, jobs: int) -> int:
    """Chunk size giving ~:data:`CHUNKS_PER_WORKER` chunks per worker."""
    if num_items <= 0:
        return 1
    return max(1, -(-num_items // (jobs * CHUNKS_PER_WORKER)))


@dataclass(frozen=True)
class MapCheckpoint:
    """The resumable partial result of a budget-cancelled map.

    ``completed`` maps item *indices* (positions in the original
    sequence) to their results; pass the checkpoint back to
    :func:`parallel_map` to finish only the remaining items.
    """

    total: int
    completed: dict[int, Any]

    @property
    def done(self) -> int:
        return len(self.completed)

    @property
    def remaining(self) -> int:
        return self.total - len(self.completed)


def _validate_checkpoint(
    checkpoint: MapCheckpoint | None, total: int
) -> dict[int, Any]:
    """The completed map of a compatible checkpoint (``{}`` for none).

    A checkpoint taken against a different item list would silently
    misalign results (or ``KeyError`` at assembly), so incompatibility
    is an :class:`InputError` up front.
    """
    if checkpoint is None:
        return {}
    if not isinstance(checkpoint, MapCheckpoint):
        raise InputError(
            "checkpoint must be a MapCheckpoint",
            checkpoint=type(checkpoint).__name__,
        )
    if checkpoint.total != total:
        raise InputError(
            "checkpoint is incompatible with the item list: totals differ",
            checkpoint_total=checkpoint.total,
            num_items=total,
        )
    bad = [i for i in checkpoint.completed if not 0 <= i < total]
    if bad:
        raise InputError(
            "checkpoint is incompatible with the item list: "
            "completed indices out of range",
            bad_indices=sorted(bad)[:10],
            num_items=total,
        )
    return dict(checkpoint.completed)


def _run_supervised_chunk(
    fn: Callable[[Any], Any], tasks: list[tuple[int, int, Any]]
) -> list[tuple[int, int, bool, Any]]:
    """Worker task: apply ``fn`` to one chunk (module-level, so it pickles).

    Each item is enveloped individually — one poison item cannot discard
    its chunk-mates' results — and failures come back as data
    (``(index, attempt, False, TaskError)``), never as a raise, so the
    supervisor learns exactly which item failed on which attempt.
    """
    out: list[tuple[int, int, bool, Any]] = []
    for index, attempt, item in tasks:
        token = set_attempt(attempt)
        try:
            out.append((index, attempt, True, fn(item)))
        except Exception as exc:
            out.append((index, attempt, False, as_task_error(exc, index, item)))
        finally:
            reset_attempt(token)
    return out


def _check_wall(
    meter: BudgetMeter | None, total: int, done: dict[int, Any]
) -> None:
    """Raise ``BudgetExceeded`` (with checkpoint) when the wall budget trips."""
    if meter is None:
        return
    limit = meter.budget.wall_seconds
    if limit is None:
        return
    elapsed = meter.elapsed
    if elapsed > limit:
        obs.event(
            "parallel.budget_exceeded",
            dimension="wall_seconds",
            limit=limit,
            value=elapsed,
            completed=len(done),
            total=total,
        )
        raise BudgetExceeded(
            "parallel map exceeded budget on wall_seconds",
            checkpoint=MapCheckpoint(total=total, completed=dict(done)),
            dimension="wall_seconds",
            limit=limit,
            value=elapsed,
        )


class _Supervisor:
    """One map's execution state: results, failures, retries, the ladder."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        *,
        njobs: int,
        policy: RetryPolicy | None,
        task_timeout: float | None,
        on_fault: str,
        meter: BudgetMeter | None,
        clock: Callable[[], float] | None,
        chunk_size: int | None,
        done: dict[int, Any],
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        self.fn = fn
        self.items = items
        self.initializer = initializer
        self.initargs = initargs
        self._initialized_local = False
        self.total = len(items)
        self.njobs = njobs
        self.policy = policy
        self.task_timeout = task_timeout
        self.on_fault = on_fault
        self.meter = meter
        self.clock = clock or time.monotonic
        self.chunk_size = chunk_size
        self.done = done
        self.failures: dict[int, TaskFailure] = {}
        self.retries = 0
        self.timeouts = 0
        self.chunks = 0
        self.downgrades: list[BackendDowngrade] = []
        #: Retries waiting out their backoff: ``(eligible_at, seq, index,
        #: attempt)`` — the seq breaks ties so heap order is total.
        self.retry_heap: list[tuple[float, int, int, int]] = []
        self._seq = itertools.count()

    # -- shared plumbing ------------------------------------------------ #

    def check_budget(self) -> None:
        _check_wall(self.meter, self.total, self.done)

    def _promote_retries(self, queue: deque[tuple[int, int]]) -> None:
        """Move backoff-expired retries onto the ready queue."""
        if not self.retry_heap:
            return
        now = self.clock()
        while self.retry_heap and self.retry_heap[0][0] <= now:
            _, _, index, attempt = heapq.heappop(self.retry_heap)
            queue.append((index, attempt))

    def _drain_retries(self, queue: deque[tuple[int, int]]) -> None:
        """Flush *all* pending retries onto the queue (backend changed —
        the backoff that scheduled them no longer applies)."""
        while self.retry_heap:
            _, _, index, attempt = heapq.heappop(self.retry_heap)
            queue.append((index, attempt))

    def _settle_failure(
        self,
        index: int,
        attempt: int,
        err: TaskError,
        queue: deque[tuple[int, int]],
    ) -> None:
        """Retry, quarantine, or raise one failed attempt."""
        if self.policy is not None and self.policy.should_retry(err, attempt):
            self.retries += 1
            obs.inc("parallel.retries")
            eligible = self.clock() + self.policy.delay(attempt)
            heapq.heappush(
                self.retry_heap, (eligible, next(self._seq), index, attempt + 1)
            )
            return
        if self.on_fault == "raise":
            raise attach_remote_cause(err)
        self.failures[index] = TaskFailure(
            index=index,
            item=item_excerpt(self.items[index]),
            error=attach_remote_cause(err),
            attempts=attempt + 1,
        )
        obs.inc("parallel.quarantined")

    def record_downgrade(
        self, current: str, to: str, reason: str, resubmitted: int
    ) -> None:
        self.downgrades.append(
            BackendDowngrade(
                from_backend=current,
                to_backend=to,
                reason=reason,
                resubmitted=resubmitted,
            )
        )
        obs.inc("parallel.downgrades")
        obs.event(
            "parallel.downgrade",
            from_backend=current,
            to_backend=to,
            reason=reason,
            resubmitted=resubmitted,
        )

    # -- backends ------------------------------------------------------- #

    def run(self, backend: str, todo: list[int]) -> None:
        """Execute every index of ``todo``, walking the ladder as needed."""
        queue: deque[tuple[int, int]] = deque((i, 0) for i in todo)
        current = backend
        while queue or self.retry_heap:
            if current == "serial":
                self._drain_retries(queue)
                self._run_serial(queue)
                return
            reason = self._run_pool(current, queue)
            if reason is None:
                return
            self._drain_retries(queue)
            nxt = next_backend(current) or "serial"
            self.record_downgrade(current, nxt, reason, len(queue))
            current = nxt

    def _ensure_local_init(self) -> None:
        """Run the worker initializer once in this process.

        The serial rung must see the same per-worker state a process
        worker would, so a downgrade keeps the mapped function's
        preconditions intact.
        """
        if self.initializer is not None and not self._initialized_local:
            self.initializer(*self.initargs)
            self._initialized_local = True

    def _run_serial(self, queue: deque[tuple[int, int]]) -> None:
        self._ensure_local_init()
        while queue:
            index, attempt = queue.popleft()
            self.check_budget()
            while True:
                token = set_attempt(attempt)
                try:
                    self.done[index] = self.fn(self.items[index])
                    break
                except Exception as exc:
                    err = as_task_error(exc, index, self.items[index])
                    if self.policy is not None and self.policy.should_retry(
                        err, attempt
                    ):
                        self.retries += 1
                        obs.inc("parallel.retries")
                        self.policy.sleep(self.policy.delay(attempt))
                        attempt += 1
                        continue
                    if self.on_fault == "raise":
                        raise err  # __cause__ already chained in-process
                    self.failures[index] = TaskFailure(
                        index=index,
                        item=item_excerpt(self.items[index]),
                        error=err,
                        attempts=attempt + 1,
                    )
                    obs.inc("parallel.quarantined")
                    break
                finally:
                    reset_attempt(token)

    def _run_pool(
        self, backend: str, queue: deque[tuple[int, int]]
    ) -> str | None:
        """One process-pool run; ``None`` when fully drained, else the
        reason the pool must be abandoned (unfinished work stays on
        ``queue``/``retry_heap`` for the serial rung)."""
        size = self.chunk_size or auto_chunk_size(len(queue), self.njobs)
        num_chunks = -(-len(queue) // size)
        max_workers = min(self.njobs, max(1, num_chunks))
        inflight: dict[Future, tuple[list[tuple[int, int]], float | None]] = {}
        abandoned = 0
        broken: str | None = None

        def requeue_inflight() -> None:
            for fut, (tasks, _) in list(inflight.items()):
                if fut.done() and not fut.cancelled():
                    try:
                        outcomes = fut.result()
                    except Exception:
                        queue.extend(tasks)
                    else:
                        for index, attempt, ok, payload in outcomes:
                            if ok:
                                self.done[index] = payload
                            else:
                                self._settle_failure(
                                    index, attempt, payload, queue
                                )
                else:
                    fut.cancel()
                    queue.extend(tasks)
            inflight.clear()

        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )
        try:
            while queue or self.retry_heap or inflight:
                self._promote_retries(queue)
                # Keep a bounded window of chunks in flight so a
                # submission is (approximately) a start — which is what
                # makes the per-task deadline meaningful — and so a
                # breaking pool strands as little work as possible.
                while queue and len(inflight) < max_workers * 2:
                    tasks = [
                        queue.popleft()
                        for _ in range(min(size, len(queue)))
                    ]
                    payload = [
                        (i, a, self.items[i]) for i, a in tasks
                    ]
                    try:
                        fut = pool.submit(
                            _run_supervised_chunk, self.fn, payload
                        )
                    except BrokenExecutor as exc:
                        queue.extendleft(reversed(tasks))
                        broken = f"pool rejected work: {type(exc).__name__}"
                        break
                    self.chunks += 1
                    deadline = (
                        self.clock() + self.task_timeout * len(tasks)
                        if self.task_timeout is not None
                        else None
                    )
                    inflight[fut] = (tasks, deadline)
                if broken is not None:
                    requeue_inflight()
                    return broken
                if not inflight:
                    if queue or self.retry_heap:
                        # Everything ready is waiting out a backoff; nap
                        # briefly (real time — the backoff eligibility is
                        # re-checked on the engine clock next iteration).
                        time.sleep(min(POLL_SECONDS, 0.01))
                        self.check_budget()
                        continue
                    break
                finished, _ = wait(
                    set(inflight),
                    timeout=POLL_SECONDS,
                    return_when=FIRST_COMPLETED,
                )
                for fut in finished:
                    tasks, _ = inflight.pop(fut)
                    try:
                        outcomes = fut.result()
                    except BrokenExecutor as exc:
                        # A worker died mid-chunk: not the items' fault —
                        # requeue them (attempt numbers preserved) and
                        # abandon the backend.
                        queue.extend(tasks)
                        broken = f"worker pool broke: {type(exc).__name__}"
                        continue
                    except Exception as exc:
                        # Chunk-level trouble is infrastructure, not the
                        # items: the envelope catches per-item failures,
                        # so anything raised here (an unpicklable
                        # function, a corrupted result channel) would
                        # fail identically for every chunk — requeue and
                        # fall back to serial, which needs no pickling.
                        queue.extend(tasks)
                        broken = (
                            f"chunk transport failed: {type(exc).__name__}: "
                            f"{exc}"
                        )
                        continue
                    for index, attempt, ok, payload in outcomes:
                        if ok:
                            self.done[index] = payload
                        else:
                            self._settle_failure(index, attempt, payload, queue)
                if broken is not None:
                    requeue_inflight()
                    return broken
                if self.task_timeout is not None and inflight:
                    now = self.clock()
                    for fut, (tasks, deadline) in list(inflight.items()):
                        if deadline is None or now <= deadline:
                            continue
                        inflight.pop(fut)
                        if not fut.cancel():
                            # The task is genuinely running (hung or
                            # slow); its worker is lost to this map.
                            abandoned += 1
                        for index, attempt in tasks:
                            self.timeouts += 1
                            obs.inc("supervise.task_timeout")
                            obs.event(
                                "supervise.task_timeout",
                                item_index=index,
                                timeout_seconds=self.task_timeout,
                                backend=backend,
                            )
                            err = TaskTimeout(
                                "task exceeded its wall timeout",
                                timeout_seconds=self.task_timeout,
                                item_index=index,
                                item=item_excerpt(self.items[index]),
                                backend=backend,
                            )
                            self._settle_failure(index, attempt, err, queue)
                    if abandoned >= max_workers and (queue or self.retry_heap):
                        requeue_inflight()
                        return "every worker stalled past the task timeout"
                self.check_budget()
            return None
        finally:
            # On success nothing is pending and this returns at once; on
            # budget cancellation or a fail-fast raise it drops the
            # queued chunks without waiting for stragglers.  A pool
            # abandoned as *broken* is instead joined (its workers are
            # idle or dead, so the join is immediate) and joined
            # *without* ``cancel_futures``: ``requeue_inflight`` already
            # cancelled our futures one by one, and ``cancel_futures``
            # would race the executor's queue-feeder thread — when a
            # feeder-side pickling error coincides with the manager
            # rebinding its pending-work map, a finished work item is
            # stranded as forever-pending and both this join and
            # interpreter shutdown deadlock.  The one case left unjoined
            # is a pool with genuinely hung workers (``abandoned`` > 0),
            # which cannot be joined without inheriting the hang.
            if broken is not None and abandoned == 0:
                pool.shutdown(wait=True, cancel_futures=False)
            else:
                pool.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int | None = None,
    backend: str = "process",
    chunk_size: int | None = None,
    budget: Budget | None = None,
    checkpoint: MapCheckpoint | None = None,
    clock: Callable[[], float] | None = None,
    retry: RetryPolicy | int | None = None,
    task_timeout: float | None = None,
    on_fault: str = "raise",
    span_name: str = "parallel.map",
    initializer: Callable[..., None] | None = None,
    initargs: tuple = (),
) -> list[Any] | PartialMapResult:
    """Apply ``fn`` to every item, with deterministic result ordering.

    See the module docstring for backends, chunking, budget, and
    supervision semantics.  ``retry`` is an int (number of retries) or a
    :class:`~repro.robustness.supervise.RetryPolicy`; ``task_timeout``
    bounds one task's wall time on the process backend; ``on_fault`` is
    ``"raise"`` (default — the first unrecoverable failure propagates as
    a :class:`~repro.robustness.errors.TaskError`) or ``"quarantine"``
    (the map completes with the survivors and returns a
    :class:`~repro.robustness.supervise.PartialMapResult`).  ``clock``
    is injectable (as for :meth:`~repro.robustness.budget.Budget.meter`)
    so tests can trip the wall budget deterministically.

    ``initializer``/``initargs`` run once per worker before any task
    (the :class:`~concurrent.futures.Executor` contract), and once in
    the calling process for the serial rung, so shared per-worker state
    — e.g. a reference FA and its trace corpus, materialized once
    instead of pickled into every chunk — survives a ``process`` →
    ``serial`` downgrade.  Both must pickle for the process backend.
    """
    if backend not in BACKENDS:
        raise InputError(
            "unknown parallel backend", backend=backend, known=BACKENDS
        )
    if on_fault not in FAULT_MODES:
        raise InputError(
            "unknown on_fault mode", on_fault=on_fault, known=FAULT_MODES
        )
    if task_timeout is not None and task_timeout <= 0:
        raise InputError(
            "task_timeout must be positive", task_timeout=task_timeout
        )
    items = list(items)
    total = len(items)
    njobs = resolve_jobs(jobs)
    policy = normalize_retry(retry)
    done = _validate_checkpoint(checkpoint, total)
    todo = [i for i in range(total) if i not in done]
    meter = budget.meter(clock=clock) if budget is not None else None
    effective = effective_backend(backend, njobs, len(todo))
    # An active chaos profile (in-process or REPRO_CHAOS) wraps the
    # mapped function with the deterministic fault injector, on every
    # backend, so the supervision path is exercisable end to end.
    fn = chaos.wrap(fn)

    with obs.span(
        span_name, items=total, jobs=njobs, backend=effective
    ) as span:
        supervisor = _Supervisor(
            fn,
            items,
            njobs=njobs,
            policy=policy,
            task_timeout=task_timeout,
            on_fault=on_fault,
            meter=meter,
            clock=clock,
            chunk_size=chunk_size,
            done=done,
            initializer=initializer,
            initargs=initargs,
        )
        supervisor.run(effective, todo)
        span.set(
            chunks=supervisor.chunks,
            completed=len(done),
            retries=supervisor.retries,
            timeouts=supervisor.timeouts,
            downgrades=len(supervisor.downgrades),
            quarantined=len(supervisor.failures),
        )
        obs.inc("parallel.items", len(todo))
        obs.inc("parallel.chunks", supervisor.chunks)
    if on_fault == "quarantine":
        return PartialMapResult(
            total=total,
            completed=dict(done),
            failures=tuple(
                supervisor.failures[i] for i in sorted(supervisor.failures)
            ),
            downgrades=tuple(supervisor.downgrades),
            retries=supervisor.retries,
            timeouts=supervisor.timeouts,
        )
    return [done[i] for i in range(total)]
