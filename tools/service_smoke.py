"""CI smoke test for ``cable serve``: boot, drive two tenants, scrape.

Boots a real server (subprocess, ephemeral port), drives two concurrent
sessions through cluster → label → diff via
:class:`repro.service.client.ServiceClient`, then a third session
through addtraces → addtraces → suspend → state (the resumed session
must have the classes and concepts the last addtraces reported), scrapes
``/metrics``, and writes a JSON transcript of every step (uploaded as a
CI artifact).  Exits non-zero on any failed step or missing lifecycle
metric.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--out transcript.json]
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs.promtext import parse_prometheus  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402

TRACES_A = [
    "open(X); read(X); close(X)",
    "open(Y); write(Y); close(Y)",
    "open(Z); close(Z)",
]
TRACES_B = [
    "lock(A); use(A); unlock(A)",
    "lock(B); unlock(B)",
    "lock(C); use(C); use(C); unlock(C)",
]

#: Two addtraces batches of traces that join existing classes; a server
#: that numbered new ids from the class count gave both batches the same
#: ids, and the suspended session could not be loaded again.
ADDED = [
    ["open(F); read(F); close(F)"],
    ["open(G); write(G); close(G)", "open(F); read(F); close(F)"],
]

REQUIRED_METRICS = (
    "repro_service_sessions_spawned",
    "repro_service_requests",
    "repro_service_request_seconds_count",
    "repro_service_store_resident",
)


def boot_server(store: str) -> tuple[subprocess.Popen, str]:
    """Start ``cable serve --port 0`` and parse the JSON banner."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cable.cli",
            "serve",
            "--port",
            "0",
            "--store",
            store,
            "--maintenance-interval",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert process.stdout is not None
    line = process.stdout.readline()
    banner = json.loads(line)
    return process, banner["serving"]


def drive_tenant(
    client: ServiceClient, name: str, traces: list[str], log: list[dict]
) -> None:
    """One tenant's workflow: create → lattice → label → state."""

    def step(kind: str, **payload: object) -> None:
        log.append({"tenant": name, "step": kind, **payload})

    info = client.create(traces, session=name)
    step("create", classes=info["classes"], concepts=info["concepts"])
    lattice = client.verb(name, "lattice")
    top = max(lattice["concepts"], key=lambda c: c["extent"])["concept"]
    step("lattice", concepts=len(lattice["concepts"]), top=top)
    labeled = client.verb(name, "label", concept=top, label="good", which="all")
    step("label", labeled=labeled["labeled"], done=labeled["done"])
    state = client.verb(name, "state")
    step("state", operations=state["operations"], classes=state["classes"])


def drive_resume(client: ServiceClient, name: str, log: list[dict]) -> bool:
    """addtraces → addtraces → suspend → state; True when the resumed
    session has the classes and concepts of the last addtraces."""
    info = client.create(TRACES_A, session=name)
    log.append({"step": "create", "classes": info["classes"]})
    for batch in ADDED:
        added = client.verb(name, "addtraces", traces=batch)
        log.append({"step": "addtraces", **added})
    suspended = client.verb(name, "suspend")["suspended"]
    log.append({"step": "suspend", "suspended": suspended})
    state = client.verb(name, "state")
    log.append(
        {"step": "state", "classes": state["classes"], "concepts": state["concepts"]}
    )
    return (
        suspended
        and client.info(name)["state"] == "active"
        and state["classes"] == added["classes"]
        and state["concepts"] == added["concepts"]
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default="service_smoke_transcript.json",
        help="path for the JSON transcript artifact",
    )
    args = parser.parse_args(argv)

    transcript: dict = {"steps": [], "ok": False}
    store = tempfile.mkdtemp(prefix="cable-smoke-")
    process, url = boot_server(store)
    transcript["server"] = url
    try:
        client = ServiceClient(url, timeout=60.0)
        for _ in range(50):
            try:
                client.health()
                break
            except OSError:
                time.sleep(0.1)
        transcript["health"] = client.health()

        # Two tenants, concurrently.
        log_a: list[dict] = []
        log_b: list[dict] = []
        errors: list[str] = []

        def run(name: str, traces: list[str], log: list[dict]) -> None:
            try:
                drive_tenant(client, name, traces, log)
            except Exception as exc:  # noqa: BLE001 - smoke harness boundary
                errors.append(f"{name}: {exc}")

        threads = [
            threading.Thread(target=run, args=("tenant-a", TRACES_A, log_a)),
            threading.Thread(target=run, args=("tenant-b", TRACES_B, log_b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        transcript["steps"] = log_a + log_b
        transcript["errors"] = errors

        # A session grown by addtraces survives suspend and resume.
        resume_log: list[dict] = []
        try:
            resumed = drive_resume(client, "tenant-c", resume_log)
        except Exception as exc:  # noqa: BLE001 - smoke harness boundary
            errors.append(f"tenant-c: {exc}")
            resumed = False
        transcript["resume"] = {"ok": resumed, "steps": resume_log}

        # Spec-level diff through the same server.
        diff = client.diff(left="XtFree", right="XGetSelOwner")
        transcript["diff"] = {"relation": diff["diff"]["relation"]}

        # Metrics scrape: the lifecycle counters and latency histograms
        # must be live.
        metrics_text = client.metrics()
        metrics = parse_prometheus(metrics_text)
        missing = [m for m in REQUIRED_METRICS if m not in metrics]
        transcript["metrics"] = {
            m: metrics[m] for m in REQUIRED_METRICS if m in metrics
        }
        transcript["metrics_missing"] = missing

        sessions = client.sessions()
        transcript["sessions"] = [s["session"] for s in sessions]

        ok = (
            not errors
            and not missing
            and len(log_a) == 4
            and len(log_b) == 4
            and resumed
            and metrics["repro_service_sessions_spawned"] >= 3.0
            and metrics["repro_service_sessions_resumed"] >= 1.0
        )
        transcript["ok"] = ok
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
        shutil.rmtree(store, ignore_errors=True)
        Path(args.out).write_text(json.dumps(transcript, indent=2) + "\n")

    print(json.dumps(transcript, indent=2))
    return 0 if transcript["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
