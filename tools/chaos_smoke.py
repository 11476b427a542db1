"""Chaos smoke driver for CI.

Clusters a 500-trace corpus at ``--jobs 2`` under a deterministic chaos
profile (transient failures plus worker kills, from ``REPRO_CHAOS`` or a
built-in default), asserts the result is identical to a fault-free
serial run, and writes a JSON report of what the supervisor did —
retries, downgrades, quarantines, and any fault entries — for upload as
a CI artifact.

Exit code 0 = survived chaos with identical results; 1 = divergence or
an unexpected quarantine.

Usage::

    PYTHONPATH=src python tools/chaos_smoke.py [--out report.json]
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.core.trace_clustering import cluster_traces
from repro.fa.templates import unordered_fa
from repro.lang.events import Event
from repro.lang.traces import Trace
from repro.parallel.relation import clear_relation_caches
from repro.robustness import chaos
from repro.robustness.chaos import ChaosProfile

DEFAULT_PROFILE = ChaosProfile(
    seed=1, failure_rate=0.15, fail_attempts=1, kill_rate=0.004
)


def corpus(n: int = 500) -> list[Trace]:
    symbols = ("open", "read", "write", "close")
    out = []
    for i in range(n):
        body = tuple(symbols[j % 4] for j in range(1 + i % 5))
        out.append(
            Trace(
                tuple(Event(s, ("X", str(i))) for s in body),
                trace_id=f"c{i}",
            )
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="chaos_smoke_report.json", help="report path"
    )
    parser.add_argument("--traces", type=int, default=500)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)

    profile = chaos.from_env() or DEFAULT_PROFILE
    spec_fa = unordered_fa(
        ["open(X,Y)", "read(X,Y)", "write(X,Y)", "close(X,Y)"]
    )
    traces = corpus(args.traces)

    clear_relation_caches()
    baseline = cluster_traces(traces, spec_fa, jobs=1)

    clear_relation_caches()
    rec = obs.configure(record=True)
    chaos.configure(profile)
    try:
        chaotic = cluster_traces(
            traces,
            spec_fa,
            jobs=args.jobs,
            retry=3,
            on_fault="quarantine",
        )
        counters = rec.registry.counters
        stats = {
            name: counters[name].value
            for name in (
                "parallel.retries",
                "parallel.quarantined",
                "parallel.downgrades",
                "supervise.task_timeout",
            )
            if name in counters
        }
    finally:
        chaos.reset()
        obs.shutdown()

    identical = (
        chaotic.representatives == baseline.representatives
        and chaotic.class_counts == baseline.class_counts
        and chaotic.rejected == baseline.rejected
        and len(chaotic.lattice) == len(baseline.lattice)
    )
    report = {
        "profile": {
            "seed": profile.seed,
            "failure_rate": profile.failure_rate,
            "fail_attempts": profile.fail_attempts,
            "slow_rate": profile.slow_rate,
            "kill_rate": profile.kill_rate,
            "corrupt_rate": profile.corrupt_rate,
        },
        "traces": len(traces),
        "jobs": args.jobs,
        "identical_to_serial": identical,
        "supervision": stats,
        "fault_report": (
            chaotic.fault_report.to_dict()
            if chaotic.fault_report is not None
            else None
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(f"chaos smoke: {json.dumps(report['supervision'])}")
    print(f"identical to fault-free serial: {identical}")
    print(f"report written to {args.out}")
    if not identical or chaotic.fault_report is not None:
        print("chaos smoke FAILED: results diverged or traces were lost")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
