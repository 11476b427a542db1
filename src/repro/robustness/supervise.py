"""The supervision vocabulary for fault-tolerant execution.

The runtime-verification strand of the related work (iCFTL state-based
violation diagnosis; signal-based trace checking) frames spec debugging
as an always-on monitoring service — a deployment where transient
faults are routine and graceful degradation, not crash-on-first-error,
is the contract.  This module defines the *policy* half of that
contract; the execution engine in :mod:`repro.parallel.pool` applies it:

* :class:`RetryPolicy` — how many attempts one item gets, the
  exponential backoff between them (jitter, sleep, and clock all
  injectable so tests are deterministic), and which exceptions are
  worth retrying at all (:func:`default_retryable`, built on the
  :class:`~repro.robustness.errors.ReproError` taxonomy);
* :class:`TaskFailure` / :class:`PartialMapResult` — the shape of a map
  that *completed with survivors*: per-item failures carry the full
  exception chain for the quarantine machinery, and the result records
  every retry, timeout, and backend downgrade the supervisor performed;
* :func:`as_task_error` — the worker-side envelope that attaches item
  index and repr excerpt to a failure and carries the formatted remote
  traceback across the pickle boundary;
* :func:`next_backend` — the graceful-degradation ladder
  (``process`` → ``serial``) walked when a pool breaks.

Nothing here imports the pool, so the vocabulary is reusable by any
future executor (the session server, a streaming ingester) without
dragging in :mod:`concurrent.futures`.
"""

from __future__ import annotations

import contextvars
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.robustness.errors import (
    BudgetExceeded,
    InputError,
    SessionCorrupt,
    TaskError,
    TaskTimeout,
)

#: The graceful-degradation ladder, most- to least-parallel.  When a
#: backend's pool breaks (worker death, ``BrokenProcessPool``, repeated
#: timeouts), unfinished work resubmits one rung down.
DEGRADATION_LADDER = ("process", "serial")

#: The attempt number of the task currently executing in this worker
#: (0 on the first try).  Set by the pool's task envelope around every
#: call so deterministic fault injectors — :mod:`repro.robustness.chaos`
#: — can make a failure *transient* (fire on early attempts only).
_CURRENT_ATTEMPT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_task_attempt", default=0
)

#: How many characters of an item's ``repr`` travel in error context.
ITEM_REPR_LIMIT = 120


def current_attempt() -> int:
    """The retry attempt of the task now running (0 = first try)."""
    return _CURRENT_ATTEMPT.get()


def set_attempt(attempt: int) -> contextvars.Token:
    """Enter a task's attempt scope (the pool envelope calls this)."""
    return _CURRENT_ATTEMPT.set(attempt)


def reset_attempt(token: contextvars.Token) -> None:
    """Leave a task's attempt scope."""
    _CURRENT_ATTEMPT.reset(token)


def next_backend(backend: str) -> str | None:
    """The rung below ``backend`` on the ladder (``None`` below serial)."""
    try:
        i = DEGRADATION_LADDER.index(backend)
    except ValueError:
        return None
    if i + 1 < len(DEGRADATION_LADDER):
        return DEGRADATION_LADDER[i + 1]
    return None


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` looks like it could pass on a retry.

    An explicit ``transient`` attribute (the chaos injector and
    :class:`TaskError` both set one) wins; otherwise OS-level flakiness
    (I/O errors, timeouts, dropped connections) is presumed transient
    and everything else — a deterministic bug would fail identically
    every attempt — is not.
    """
    marked = getattr(exc, "transient", None)
    if marked is not None:
        return bool(marked)
    return isinstance(exc, (OSError, TimeoutError, ConnectionError))


def default_retryable(exc: BaseException) -> bool:
    """The default retry classification, built on the error taxonomy.

    * :class:`TaskTimeout` — never: retrying a hung task burns the
      budget again, and the serial fallback could not preempt it;
    * :class:`InputError` / :class:`BudgetExceeded` /
      :class:`SessionCorrupt` — never: malformed input and exhausted
      budgets do not fix themselves;
    * anything marked ``transient`` (chaos injections, wrapped worker
      errors whose cause was transient) — yes;
    * bare OS-level flakiness — yes; all other exceptions — no.
    """
    if isinstance(exc, TaskTimeout):
        return False
    if isinstance(exc, (InputError, BudgetExceeded, SessionCorrupt)):
        return False
    return is_transient(exc)


def _no_jitter() -> float:
    return 0.5  # the midpoint of the jitter band: a pure backoff curve


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervised map treats one item's failures.

    ``max_attempts`` is the *total* number of tries (1 = no retries).
    The delay before attempt ``n+1`` is
    ``min(max_delay, base_delay * factor**n)`` scaled by a jitter factor
    in ``[0.5, 1.5)`` drawn from ``jitter`` (a 0–1 RNG; the default is
    the deterministic midpoint, so tests need no seeding).  ``sleep``
    and ``clock`` are injectable for deterministic tests; ``retryable``
    classifies which exceptions are worth another attempt
    (:func:`default_retryable` unless overridden).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    jitter: Callable[[], float] = field(default=_no_jitter)
    sleep: Callable[[float], None] = field(default=time.sleep)
    clock: Callable[[], float] = field(default=time.monotonic)
    retryable: Callable[[BaseException], bool] = field(
        default=default_retryable
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InputError(
                "max_attempts must be >= 1", max_attempts=self.max_attempts
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise InputError(
                "retry delays must be non-negative",
                base_delay=self.base_delay,
                max_delay=self.max_delay,
            )
        if self.factor < 1.0:
            raise InputError(
                "backoff factor must be >= 1", factor=self.factor
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retrying after failed attempt ``attempt``
        (0-based)."""
        base = min(self.max_delay, self.base_delay * self.factor**attempt)
        return base * (0.5 + self.jitter())

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether failed attempt ``attempt`` (0-based) earns another try."""
        return attempt + 1 < self.max_attempts and self.retryable(exc)


def normalize_retry(retry: "RetryPolicy | int | None") -> RetryPolicy | None:
    """Accept the ``retry=`` knob's shorthand forms.

    ``None``/``0`` mean no retries; an int ``n`` means *n retries* (so
    ``n + 1`` total attempts, matching the CLI's ``--retries N``); a
    :class:`RetryPolicy` passes through.
    """
    if retry is None:
        return None
    if isinstance(retry, RetryPolicy):
        return retry
    if isinstance(retry, bool) or not isinstance(retry, int):
        raise InputError(
            "retry must be an int (retries) or a RetryPolicy", retry=retry
        )
    if retry < 0:
        raise InputError("retries must be >= 0", retry=retry)
    if retry == 0:
        return None
    return RetryPolicy(max_attempts=retry + 1)


class RemoteTraceback(Exception):
    """Carrier for a worker-side traceback re-raised in the parent.

    Installed as the ``__cause__`` of a :class:`TaskError` whose real
    cause could not cross the process boundary, so ``raise`` output
    still shows where the worker actually died (the same trick
    :mod:`concurrent.futures` plays).
    """

    def __init__(self, tb: str) -> None:
        super().__init__(f"\n\"\"\"\n{tb}\"\"\"")


def item_excerpt(item: Any) -> str:
    """A bounded ``repr`` of a work item for error context."""
    text = repr(item)
    if len(text) > ITEM_REPR_LIMIT:
        text = text[: ITEM_REPR_LIMIT - 3] + "..."
    return text


def as_task_error(exc: BaseException, index: int, item: Any) -> TaskError:
    """Wrap a worker exception with item context, chaining the original.

    Called *in the worker*, so ``traceback.format_exc`` still sees the
    failure's frames.  The live exception rides along as ``__cause__``
    on the serial backend; across a process boundary the pickle
    layer drops it and the parent resurrects the chain from
    ``remote_traceback`` (see :func:`attach_remote_cause`).
    """
    if isinstance(exc, TaskError):
        return exc  # already enveloped (e.g. a nested supervised map)
    err = TaskError(
        f"worker task failed: {type(exc).__name__}: {exc}",
        transient=is_transient(exc),
        remote_traceback=traceback.format_exc(),
        item_index=index,
        item=item_excerpt(item),
    )
    err.__cause__ = exc
    return err


def attach_remote_cause(err: TaskError) -> TaskError:
    """Restore a cause chain lost to pickling, from the carried traceback."""
    if err.__cause__ is None and err.remote_traceback:
        err.__cause__ = RemoteTraceback(err.remote_traceback)
    return err


@dataclass(frozen=True)
class TaskFailure:
    """One item the supervisor gave up on (retries exhausted or poison)."""

    index: int
    item: str
    error: TaskError
    attempts: int

    def render(self) -> str:
        return (
            f"item {self.index} failed after {self.attempts} attempt(s): "
            f"{self.error}"
        )


@dataclass(frozen=True)
class BackendDowngrade:
    """One rung walked down the degradation ladder, with the trigger."""

    from_backend: str
    to_backend: str
    reason: str
    resubmitted: int


@dataclass(frozen=True)
class PartialMapResult:
    """A supervised map that completed with survivors.

    Returned by :func:`repro.parallel.pool.parallel_map` under
    ``on_fault="quarantine"`` instead of raising on the first poison
    item.  ``completed`` maps item indices to results; ``results`` is
    the survivors in item order (failed positions omitted); ``failures``
    carries each poisoned item's exception chain for the
    :class:`~repro.robustness.quarantine.RejectedReport` machinery.
    """

    total: int
    completed: dict[int, Any]
    failures: tuple[TaskFailure, ...] = ()
    downgrades: tuple[BackendDowngrade, ...] = ()
    retries: int = 0
    timeouts: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def results(self) -> list[Any]:
        """Survivor results in item order."""
        return [self.completed[i] for i in sorted(self.completed)]

    @property
    def failed_indices(self) -> tuple[int, ...]:
        return tuple(sorted(f.index for f in self.failures))

    def result_or_none(self, index: int) -> Any:
        return self.completed.get(index)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable summary (for logs and CI artifacts)."""
        return {
            "total": self.total,
            "completed": len(self.completed),
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failures": [
                {
                    "index": f.index,
                    "item": f.item,
                    "attempts": f.attempts,
                    "error": f.error.to_dict(),
                }
                for f in self.failures
            ],
            "downgrades": [
                {
                    "from": d.from_backend,
                    "to": d.to_backend,
                    "reason": d.reason,
                    "resubmitted": d.resubmitted,
                }
                for d in self.downgrades
            ],
        }
