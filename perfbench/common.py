"""Shared helpers: statistics, set-up probes, memory readings, results.

Everything here is workload-agnostic; the workload modules
(``wl_catalog``, ``wl_bulk``, ``wl_serve``) call into it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space inside the checkout for server stores and span dumps.
OUT_DIR = ROOT / ".perfbench_out"

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Ops that must lie beyond the tail percentile.
TAIL_BEYOND = 10

#: The calibration loop's median, in ms, on the reference host (2 vCPU
#: Intel Xeon VM, Python 3.11).  Timing metrics are scaled to it.
CAL_REFERENCE_MS = 22.0

#: Slots (ops, cycles) on each side of an op's own whose calibration
#: samples set its factor; see :func:`local_factors`.
LOCAL_REACH = 2


def calibration_loop() -> int:
    """Fixed interpreter-bound work owned by the benchmark: integer
    arithmetic, then hashing, allocation and sorting.  An arithmetic loop
    alone tracks the server's slowdowns but misses the catalog's, which
    are heavier on dicts and allocation; the two halves together track
    both."""
    total = 0
    for i in range(150_000):
        total += i * i
    table: dict[tuple[int, str], int] = {}
    for i in range(20_000):
        key = (i % 251, str(i % 127))
        table[key] = table.get(key, 0) + i
    return total + len(sorted(table.values()))


class HostSpeed:
    """How fast the host ran during one run.

    The host's speed drifts by 20-40 % over minutes, and the program's
    ops drift with it.  :func:`calibration_loop`, sampled between ops
    throughout the run, drifts the same way; scaling each op's time by
    ``CAL_REFERENCE_MS`` over the loop's median near that op
    (:func:`local_factors`) removes most of the drift.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, loops: int = 1) -> None:
        for _ in range(loops):
            start = time.perf_counter()
            calibration_loop()
            self.samples.append(time.perf_counter() - start)

    def factor(self, samples=None) -> float:
        """Multiplier that takes this run's times to the reference host;
        over ``samples`` (a slice of :attr:`samples`) when given."""
        return CAL_REFERENCE_MS / (median(self.samples if samples is None else samples) * 1e3)


def local_factors(host: HostSpeed, slots, per_slot: int = 1,
                  reach: int = LOCAL_REACH) -> list[float]:
    """One host factor per op.

    Op ``k`` ran in slot ``slots[k]``: the op, cycle or pass after which
    ``host`` took ``per_slot`` samples.  Its factor is taken over the
    samples of the slots within ``reach`` of its own, so an op is scaled
    by the host's speed while it ran, not by the run's median speed.
    """
    def window(slot: int) -> list[float]:
        return host.samples[max(0, slot - reach) * per_slot:(slot + reach + 1) * per_slot]

    return [host.factor(window(slot)) for slot in slots]


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    ``beyond`` samples above it: the ``beyond + 1``-th largest sample.

    With fewer than ``2 * beyond`` samples that percentile would sit below
    the median, so the slowest sample (percentile 100) stands in; callers
    print the sample count next to it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * beyond:
        return float(ordered[-1]), 100.0
    rank = n - beyond - 1
    return float(ordered[rank]), 100.0 * (rank + 1) / n


def timing_metrics(op_seconds, completed: int, op_factors) -> dict[str, float]:
    """The closed-loop timing metrics over one run's ops, each op scaled
    to the reference host speed by its entry of ``op_factors``; the raw
    figures go to the log.

    ``ops_per_s`` is completed ops over the time the ops took, so it is
    not quantized by how many ops fit in the window.
    """
    raw = [s * 1e3 for s in op_seconds]
    scaled = [ms * f for ms, f in zip(raw, op_factors, strict=True)]
    value, pct = tail(scaled)
    log(f"ops={len(raw)} completed={completed} tail=p{pct:.1f} over {len(raw)} "
        f"samples; raw op ms min {min(raw):.2f} p50 {median(raw):.2f} "
        f"tail {tail(raw)[0]:.2f} max {max(raw):.2f}; raw ops/s "
        f"{completed / sum(op_seconds):.4f}; host factors "
        f"{min(op_factors):.4f}-{max(op_factors):.4f}")
    return {
        "ops_per_s": completed / (sum(scaled) / 1e3),
        "op_ms_p50": median(scaled),
        "op_ms_tail": value,
    }


def log(message: str) -> None:
    """Progress notes go to stderr; stdout ends with the result line."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def src_env() -> dict[str, str]:
    """Environment for child interpreters that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def time_setups(workload: str, seed: int, host: HostSpeed,
                probes: int = SETUP_PROBES) -> list[float]:
    """Seconds from spawning a fresh interpreter until it reports that the
    workload is set up (imports, inputs, and for the server a healthy
    ``/health``), once per probe; ``host`` is sampled after each."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--setup-probe",
    ]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=src_env()
        )
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, {line!r})")
        times.append(elapsed)
        host.sample(2)
    return times


def status_kb(pid: int | str, field: str) -> int:
    """One ``/proc/<pid>/status`` memory field (``VmHWM``, ``VmRSS``) in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
