"""Soak: thousands of requests through one live Cable server retain no
per-request records.

The server backs ``/metrics`` with a metrics-only registry, so a span or
an event costs nothing once it ends.  The test drives a mix of verbs
(including suspend and the resume behind the next verb) through a real
:class:`~repro.service.server.CableServer` and counts, after each round,
every :class:`~repro.obs.spans.SpanRecord` alive in the process plus
whatever a configured sink holds.  The count must not grow, while the
request counter on ``/metrics`` does.

Run it alone with::

    PYTHONPATH=src python -m pytest -q tests/test_service_soak.py
"""

import gc

from repro import obs
from repro.obs.promtext import parse_prometheus
from repro.obs.spans import SpanRecord
from repro.service import CableServer, ServiceClient, SessionManager

TRACES = [
    "open(X); read(X); close(X)",
    "open(Y); write(Y); close(Y)",
    "open(Z); close(Z)",
    "open(X); read(X); read(X); close(X)",
]

ROUNDS = 4
REQUESTS_PER_ROUND = 750


def _retained_records() -> int:
    """Finished spans and events anything in the process still holds."""
    gc.collect()
    sink = obs.get_sink()
    held = len(getattr(sink, "spans", ())) + len(getattr(sink, "events", ()))
    return held + sum(isinstance(o, SpanRecord) for o in gc.get_objects())


def _round(client: ServiceClient, num_concepts: int) -> None:
    for i in range(REQUESTS_PER_ROUND):
        if i % 250 == 100:
            client.verb("soak", "suspend")
        elif i % 10 == 0:
            client.verb("soak", "lattice")
        elif i % 10 == 5:
            client.verb("soak", "state")
        else:
            client.verb("soak", "inspect", concept=i % num_concepts)


def test_retained_records_stay_flat(tmp_path):
    obs.shutdown()
    manager = SessionManager(tmp_path / "store", lock_timeout=5.0)
    try:
        with CableServer(manager, port=0, maintenance_interval=0.05) as server:
            assert obs.get_registry() is not None
            client = ServiceClient(server.url)
            num_concepts = client.create(TRACES, session="soak")["concepts"]
            counts = []
            for _ in range(ROUNDS):
                _round(client, num_concepts)
                counts.append(_retained_records())
            metrics = parse_prometheus(client.metrics())
    finally:
        obs.shutdown()
    assert metrics["repro_service_requests"] >= ROUNDS * REQUESTS_PER_ROUND
    assert metrics["repro_service_sessions_resumed"] >= ROUNDS * 3
    assert max(counts) == min(counts), counts
