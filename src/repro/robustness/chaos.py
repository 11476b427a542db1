"""Deterministic chaos injection for the execution layer.

The supervision guarantees of :mod:`repro.parallel.pool` — retries,
timeouts, quarantine, backend degradation — are only trustworthy if
they are *testable end to end*.  This module injects the faults: wrap
any callable in a seeded :class:`ChaosProfile` and it will raise
transient exceptions, run slow, or kill its worker process on a
deterministic subset of items.

Determinism is the point.  Every decision is a pure function of
``(profile.seed, fault kind, item repr, attempt number)`` via CRC-32 —
no RNG state, so the same profile produces the same faults in every
process, on every backend, on every re-run.  A "transient" failure
fires only on attempts below ``fail_attempts``, so a supervisor that
retries is *guaranteed* to get the real result, and a run under chaos
must therefore end bit-identical to a fault-free run — which is exactly
what the equivalence tests assert.

Activation::

    chaos.configure(failure_rate=0.1, seed=7)      # in-process
    REPRO_CHAOS=failure_rate=0.1,seed=7 cable ...  # environment

:func:`repro.parallel.pool.parallel_map` consults :func:`active` and
wraps its mapped function automatically, so an environment profile
exercises every execution path of the real CLI without code changes.
Worker kills (``kill_rate``) only ever fire in a *child* process — the
wrapper compares PIDs — so the serial rung of the degradation ladder
re-runs the same items safely.  ``corrupt_rate``
flips a bit in files written by
:mod:`repro.robustness.atomicio` (via its post-write hook), exercising
the checksum/backup recovery path.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.robustness import atomicio
from repro.robustness.errors import InputError, ReproError
from repro.robustness.faults import flip_bit
from repro.robustness.supervise import current_attempt

#: Environment variable holding a profile, e.g.
#: ``REPRO_CHAOS=failure_rate=0.1,kill_rate=0.002,seed=7``.
ENV_VAR = "REPRO_CHAOS"

#: Exit code of a chaos-killed worker (distinctive in pool post-mortems).
KILL_EXIT_CODE = 143


class ChaosInjected(ReproError):
    """A fault injected by the chaos layer (marked transient).

    The ``transient`` attribute is the supervisor's retry signal
    (:func:`repro.robustness.supervise.default_retryable`).
    """

    transient = True


@dataclass(frozen=True)
class ChaosProfile:
    """A seeded fault-injection profile.

    Rates are per-item probabilities in ``[0, 1]``; ``fail_attempts``
    is how many leading attempts a chosen item fails before succeeding
    (what makes the failures *transient*); ``slow_seconds`` is the added
    latency of a slow task; ``corrupt_rate`` applies per atomic file
    write.  All decisions derive from ``seed`` deterministically.
    """

    seed: int = 0
    failure_rate: float = 0.0
    fail_attempts: int = 1
    slow_rate: float = 0.0
    slow_seconds: float = 0.01
    kill_rate: float = 0.0
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("failure_rate", "slow_rate", "kill_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise InputError(
                    "chaos rates must lie in [0, 1]", **{name: rate}
                )
        if self.fail_attempts < 1:
            raise InputError(
                "fail_attempts must be >= 1", fail_attempts=self.fail_attempts
            )
        if self.slow_seconds < 0:
            raise InputError(
                "slow_seconds must be non-negative",
                slow_seconds=self.slow_seconds,
            )

    @property
    def enabled(self) -> bool:
        return any(
            rate > 0.0
            for rate in (
                self.failure_rate,
                self.slow_rate,
                self.kill_rate,
                self.corrupt_rate,
            )
        )

    def draw(self, kind: str, key: str) -> float:
        """A deterministic uniform draw in ``[0, 1)`` for one decision."""
        digest = zlib.crc32(f"{self.seed}:{kind}:{key}".encode())
        return digest / 2**32

    def decides(self, kind: str, key: str, rate: float) -> bool:
        return rate > 0.0 and self.draw(kind, key) < rate


_INT_FIELDS = {"seed", "fail_attempts"}
_FLOAT_FIELDS = {
    "failure_rate", "slow_rate", "slow_seconds", "kill_rate", "corrupt_rate",
}


def parse_profile(text: str) -> ChaosProfile | None:
    """Parse a ``key=value,key=value`` profile string (``""``/``off`` =
    no chaos)."""
    text = text.strip()
    if not text or text.lower() == "off":
        return None
    kwargs: dict[str, Any] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep:
            raise InputError(
                "chaos profile entries must look like key=value", entry=part
            )
        if key not in _INT_FIELDS and key not in _FLOAT_FIELDS:
            # Outside the try: InputError is itself a ValueError, and the
            # except below would relabel it "bad value".
            raise InputError(
                "unknown chaos profile key",
                key=key,
                known=sorted(_INT_FIELDS | _FLOAT_FIELDS),
            )
        try:
            if key in _INT_FIELDS:
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except ValueError:
            raise InputError(
                "bad chaos profile value", key=key, value=value
            ) from None
    return ChaosProfile(**kwargs)


def from_env(environ: "os._Environ[str] | dict[str, str] | None" = None) -> (
    ChaosProfile | None
):
    """The profile named by ``REPRO_CHAOS``, if any."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR)
    if raw is None:
        return None
    return parse_profile(raw)


# In-process configuration overrides the environment; ``_configured``
# distinguishes "never configured" (fall through to the env) from
# "explicitly disabled" (configure(None)).
_profile: ChaosProfile | None = None
_configured = False
_write_counts: dict[str, int] = {}
_write_counts_lock = threading.Lock()


def _corrupt_hook(path: Any) -> None:
    """Post-write hook: maybe flip a bit of the file just written.

    Keyed by ``(path, per-path write ordinal)`` so repeated saves of the
    same session file are independent decisions, deterministically.
    The ordinal counter is lock-guarded — concurrent savers of one path
    are exactly the scenario the corruption tests race.
    """
    profile = active()
    if profile is None or profile.corrupt_rate <= 0.0:
        return
    name = str(path)
    with _write_counts_lock:
        ordinal = _write_counts.get(name, 0)
        _write_counts[name] = ordinal + 1
    if profile.decides("corrupt", f"{name}:{ordinal}", profile.corrupt_rate):
        try:
            flip_bit(path)
        except (FileNotFoundError, ValueError):
            # A rival writer rotated the file away — or a rival hook is
            # mid-rewrite, so it read back empty — between our rename
            # and this hook; the chaos layer must not add its own crash.
            pass


def configure(
    profile: ChaosProfile | None = None, **kwargs: Any
) -> ChaosProfile | None:
    """Install ``profile`` (or one built from keyword rates) in-process.

    ``configure(None)`` disables chaos even if ``REPRO_CHAOS`` is set;
    :func:`reset` restores environment-driven behaviour.  Returns the
    active profile.
    """
    global _profile, _configured
    if profile is not None and kwargs:
        raise InputError("pass a profile or keyword rates, not both")
    if kwargs:
        profile = ChaosProfile(**kwargs)
    _profile = profile
    _configured = True
    _write_counts.clear()
    atomicio.POST_WRITE_HOOK = (
        _corrupt_hook if profile is not None and profile.corrupt_rate > 0
        else None
    )
    return profile


def reset() -> None:
    """Forget any in-process configuration (the environment rules again)."""
    global _profile, _configured
    _profile = None
    _configured = False
    _write_counts.clear()
    atomicio.POST_WRITE_HOOK = None


def active() -> ChaosProfile | None:
    """The profile in force: in-process configuration, else ``REPRO_CHAOS``."""
    if _configured:
        return _profile
    return from_env()


class ChaosWrapped:
    """A callable wrapped with a fault profile (picklable, so it fans
    out to process workers carrying its configuration with it).

    Decision order per item: **kill** (child processes only, first
    attempt only — the degraded rungs re-run the item safely), then
    **slow**, then **transient failure** (attempts below
    ``fail_attempts`` only, so retries always converge).
    """

    def __init__(
        self, fn: Callable[[Any], Any], profile: ChaosProfile,
        parent_pid: int | None = None,
    ) -> None:
        self.fn = fn
        self.profile = profile
        self.parent_pid = os.getpid() if parent_pid is None else parent_pid

    def __call__(self, item: Any) -> Any:
        profile = self.profile
        key = repr(item)
        attempt = current_attempt()
        if (
            profile.decides("kill", key, profile.kill_rate)
            and attempt == 0
            and os.getpid() != self.parent_pid
        ):
            # Only a *worker process* dies — never the caller or the
            # serial rung (same PID as the parent).
            os._exit(KILL_EXIT_CODE)
        if profile.decides("slow", key, profile.slow_rate):
            time.sleep(profile.slow_seconds)
        if (
            attempt < profile.fail_attempts
            and profile.decides("fail", key, profile.failure_rate)
        ):
            raise ChaosInjected(
                "chaos: injected transient failure",
                attempt=attempt,
                fail_attempts=profile.fail_attempts,
            )
        return self.fn(item)


def wrap(
    fn: Callable[[Any], Any], profile: ChaosProfile | None = None
) -> Callable[[Any], Any]:
    """``fn`` under the given (or active) profile; unwrapped if no chaos."""
    profile = active() if profile is None else profile
    if profile is None or not profile.enabled:
        return fn
    return ChaosWrapped(fn, profile)
