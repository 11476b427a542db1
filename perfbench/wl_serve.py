"""``serve-session``: one person at Cable, over HTTP, in a closed loop.

One op is one HTTP request to a ``cable serve`` subprocess; the single
tenant waits for each reply before sending the next.  Each cycle opens a
new session on seeded RegionsBig scenarios (reference FA sent as text),
then runs ``lattice``, several ``inspect`` and ``transitions`` calls, an
oracle ``label`` sweep, two ``addtraces`` batches, ``suspend``, one verb
that resumes the session (``state``), and ``kill``.  A run times whole
cycles, so every run has the same mix of requests.

Known defect, kept visible on purpose: ``addtraces`` numbers new trace
ids from the class count, so the second batch reuses ids of the first.
The session then cannot be resumed after ``suspend`` (HTTP 409,
``SessionCorrupt: duplicate trace id``).  Each such 409 is a failed
resume, reported as ``serve.resume.failed_ratio`` and logged; it is not
counted in the result line's ``failed``, which counts only unexpected
failures, because a time-bounded run would make that count depend on
how many cycles fit in the window.  The next cycle starts on a fresh
session.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench import common
from perfbench.layers import TAG_HEADER

SPEC = "RegionsBig"
#: Classes held out of the initial session and added back by addtraces.
HELD_OUT = 40
#: Members taken per held-out class into a batch.
MEMBERS_PER_CLASS = 2
INSPECTS = 6
TRANSITIONS = 3
#: ``peak_rss_mb`` is the server's VmHWM after this many timed cycles.
PEAK_CYCLES = 20


@dataclass
class Request:
    verb: str
    method: str
    path: str  # ``{sid}`` is the session id
    body: bytes | None
    expect: dict = field(default_factory=dict)


@dataclass
class Inputs:
    cycle: list[Request]
    check_cycle: list[Request]


def _post(verb: str, payload: dict | None = None, expect: dict | None = None) -> Request:
    return Request(verb, "POST", f"/sessions/{{sid}}/{verb}",
                   json.dumps(payload or {}).encode(), expect or {})


def setup(seed: int) -> Inputs:
    """Generate the scenarios, the FA text, the batches and the expected
    answers; everything derives from ``seed``."""
    from repro.core.trace_clustering import cluster_traces, extend_clustering
    from repro.fa.serialization import fa_from_text, fa_to_text
    from repro.lang.traces import TraceSet, dedup_traces, parse_trace
    from repro.mining.strauss import Strauss
    from repro.workloads.specs_catalog import spec_by_name
    from repro.workloads.tracegen import generate_program_traces

    spec = spec_by_name(SPEC)
    programs = generate_program_traces(spec, seed=f"perfbench-{seed}")
    miner = Strauss(seeds=spec.seeds, hops=0, k=spec.mine_k, s=spec.mine_s)
    scenarios = miner.front_end(programs)
    fa_text = fa_to_text(spec.reference_fa(scenarios))

    classes = dedup_traces(scenarios)
    rng = random.Random(f"serve-session/{seed}")
    held = rng.sample(range(classes.num_classes), HELD_OUT)
    held_keys = {classes.representatives[c].key() for c in held}
    initial = [str(t) for t in scenarios if t.key() not in held_keys]
    batches = [
        [str(t) for c in part for t in classes.members[c][:MEMBERS_PER_CLASS]]
        for part in (held[: HELD_OUT // 2], held[HELD_OUT // 2:])
    ]

    # What the server should answer, computed the way it computes it.
    parsed = [parse_trace(t, trace_id=f"t{i}").standardize_names() for i, t in enumerate(initial)]
    fa = fa_from_text(fa_text)
    clustering = cluster_traces(list(TraceSet(parsed)), fa)
    lattice = clustering.lattice
    labels = {o: spec.oracle_label(rep) for o, rep in enumerate(clustering.representatives)}
    acts = label_sweep(lattice, labels)
    after = []
    grown = clustering
    for batch in batches:
        base = grown.num_objects
        grown = extend_clustering(grown, [
            parse_trace(t, trace_id=f"added{base + i}").standardize_names()
            for i, t in enumerate(batch)
        ])
        after.append({"classes": grown.num_objects, "concepts": len(grown.lattice)})

    size = {"classes": clustering.num_objects, "concepts": len(lattice)}
    create = Request("create", "POST", "/sessions",
                     json.dumps({"traces": initial, "fa": fa_text}).encode(), size)
    extents = [len(lattice.extent(c)) for c in lattice]
    step = max(1, len(lattice) // INSPECTS)
    cycle = [create, _post("lattice", expect={"extents": extents})]
    cycle += [_post("inspect", {"concept": c}) for c in range(0, step * INSPECTS, step)]
    cycle += [_post("transitions", {"concept": c}) for c in range(0, step * TRANSITIONS, step)]
    cycle += [_post("label", {"concept": c, "label": label}) for c, label in acts]
    cycle += [_post("addtraces", {"traces": b}, after[i]) for i, b in enumerate(batches)]
    cycle += [
        _post("suspend", expect={"suspended": True}),
        Request("resume", "POST", "/sessions/{sid}/state", b"{}", after[-1]),
        Request("kill", "DELETE", "/sessions/{sid}", None),
    ]
    # The same lifecycle without addtraces: resume must reproduce the
    # suspended session exactly.
    check_cycle = [
        create,
        _post("suspend", expect={"suspended": True}),
        Request("resume", "POST", "/sessions/{sid}/state", b"{}", size),
        Request("kill", "DELETE", "/sessions/{sid}", None),
    ]
    return Inputs(cycle, check_cycle)


def label_sweep(lattice, labels: dict[int, str]) -> list[tuple[int, str]]:
    """The oracle's ``label`` calls: concepts from the smallest extent up;
    a concept whose unlabeled classes all deserve one label gets it."""
    acts, done = [], set()
    for concept in sorted(lattice, key=lambda c: (len(lattice.extent(c)), c)):
        todo = lattice.extent(concept) - done
        verdicts = {labels[o] for o in todo}
        if len(verdicts) == 1:
            acts.append((concept, verdicts.pop()))
            done |= todo
    if len(done) != len(labels):
        raise RuntimeError("the oracle sweep cannot label every class")
    return acts


class Server:
    """A ``cable serve`` subprocess on an ephemeral port."""

    def __init__(self, name: str, spans_file=None) -> None:
        self.store = common.OUT_DIR / f"store-{name}"
        shutil.rmtree(self.store, ignore_errors=True)
        serve = ["serve", "--port", "0", "--store", str(self.store)]
        if spans_file is None:
            argv = [sys.executable, "-m", "repro.cable.cli", *serve]
        else:
            argv = [sys.executable, str(common.ROOT / "perfbench" / "serve_launcher.py"),
                    str(spans_file), *serve]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                     cwd=common.ROOT, env=common.src_env())
        try:
            banner = json.loads(self.proc.stdout.readline())
            self.port = int(banner["serving"].rsplit(":", 1)[1])
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _, _ = self.request("GET", "/health", None, None)
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("cable serve did not become healthy")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: bytes | None, tag: str | None):
        """``(status, raw body, seconds)`` of one round trip on a fresh
        connection, as ``repro.service.client`` makes it."""
        headers = {"Content-Type": "application/json"} if body is not None else {}
        if tag is not None:
            headers[TAG_HEADER] = tag
        start = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        return response.status, raw, time.perf_counter() - start

    def kb(self, field: str) -> int:
        return common.status_kb(self.proc.pid, field)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


def probe(seed: int, ready) -> None:
    setup(seed)
    common.OUT_DIR.mkdir(exist_ok=True)
    server = Server(f"probe-{seed}")
    try:
        ready()
    finally:
        server.stop()


def run_cycle(server: Server, requests: list[Request], prefix: str,
              records: list[dict], problems: list[str]) -> None:
    """One session's requests; appends one record per request."""
    sid = None
    labeled = 0
    for i, req in enumerate(requests):
        path = req.path.format(sid=sid)
        status, raw, seconds = server.request(req.method, path, req.body, f"{prefix}.{i}")
        body = json.loads(raw)
        record = {"tag": f"{prefix}.{i}", "verb": req.verb, "seconds": seconds,
                  "ok": status < 400, "defect": False}
        records.append(record)
        if status >= 400:
            error = body.get("error", {})
            if req.verb == "resume" and error.get("error") == "SessionCorrupt" \
                    and "duplicate trace id" in json.dumps(error):
                record["defect"] = True  # the known addtraces defect
                continue
            problems.append(f"{req.verb} -> {status}: {error.get('message')}")
            if req.verb == "create":
                return
            continue
        if req.verb == "create":
            sid = body["session"]
        elif req.verb == "label":
            labeled += body["labeled"]
        elif req.verb == "lattice":
            body = {"extents": [c["extent"] for c in body["concepts"]]}
        for key, want in req.expect.items():
            if body.get(key) != want:
                problems.append(f"{req.verb}: {key} {str(body.get(key))[:60]} != {str(want)[:60]}")
    classes = requests[0].expect["classes"]
    if any(r.verb == "label" for r in requests) and labeled != classes:
        problems.append(f"label sweep labeled {labeled} of {classes} classes")


def timed_cycles(server: Server, inputs: Inputs, seconds: float, name: str,
                 problems: list[str], host=None) -> tuple[list[dict], int]:
    """Whole cycles until ``seconds`` have elapsed, and at least
    ``PEAK_CYCLES`` of them; ``host`` is sampled after each cycle.

    Returns the request records and the server's VmHWM (KiB) after
    ``PEAK_CYCLES`` cycles.  The server retains memory with every
    request, so its peak at the end of the window would depend on how
    many requests the host managed to serve.
    """
    records: list[dict] = []
    window_start = time.perf_counter()
    cycle = 0
    peak_kb = 0
    while cycle < PEAK_CYCLES or time.perf_counter() - window_start < seconds:
        first = len(records)
        run_cycle(server, inputs.cycle, f"{name}{cycle}", records, problems)
        for record in records[first:]:
            record["cycle"] = cycle
        cycle += 1
        if cycle == PEAK_CYCLES:
            peak_kb = server.kb("VmHWM")
        if host:
            host.sample()
    return records, peak_kb


def warm(server: Server, inputs: Inputs, problems: list[str]) -> None:
    """One untimed cycle, then the resume check on a session that never
    saw addtraces."""
    run_cycle(server, inputs.cycle, "warm", [], problems)
    run_cycle(server, inputs.check_cycle, "check", [], problems)


def failures(records: list[dict]) -> int:
    """Error replies other than the known defect's 409s."""
    return sum(1 for r in records if not r["ok"] and not r["defect"])


def resume_failed_ratio(records: list[dict]) -> float:
    """Share of resumes lost to the known addtraces defect; logged too."""
    resumes = [r for r in records if r["verb"] == "resume"]
    lost = sum(1 for r in resumes if r["defect"])
    common.log(f"known addtraces defect: {lost} of {len(resumes)} resumes "
               f"answered 409 duplicate trace id")
    return lost / len(resumes)


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = setup(seed)
    common.OUT_DIR.mkdir(exist_ok=True)
    problems: list[str] = []
    host = common.HostSpeed()
    server = Server(f"run-{seed}")
    try:
        warm(server, inputs, problems)
        rss_start = server.kb("VmRSS")
        plain, peak_kb = timed_cycles(server, inputs, seconds / 2 if trace else seconds,
                                      "t", problems, host)
        rss_end = server.kb("VmRSS")
    finally:
        server.stop()
    latencies = [r["seconds"] for r in plain]

    if not trace:
        resume_failed_ratio(plain)
        factors = common.local_factors(host, [r["cycle"] for r in plain])
        timing = common.timing_metrics(latencies, len(plain) - failures(plain), factors)
        timing["peak_rss_mb"] = peak_kb / 1024
        return {"problems": problems, "attempted": len(plain),
                "failed": failures(plain), "timing": timing}

    from perfbench.tracer import load_spans

    spans_file = common.OUT_DIR / f"spans-{seed}.jsonl"
    server = Server(f"traced-{seed}", spans_file)
    try:
        warm(server, inputs, problems)
        traced, _ = timed_cycles(server, inputs, seconds / 2, "x", problems)
    finally:
        server.stop()
    spans = load_spans(spans_file)
    spans_file.unlink()
    out = request_layers(traced, spans, problems)
    out["obs.tracing_overhead"] = (
        common.median([r["seconds"] for r in traced]) / common.median(latencies)
    )
    out["serve.server_rss_growth_kb_per_kreq"] = (rss_end - rss_start) / (len(plain) / 1e3)
    out["serve.resume.failed_ratio"] = resume_failed_ratio(plain + traced)
    records = plain + traced
    return {"problems": problems, "attempted": len(records),
            "failed": failures(records), "layers": out}


def request_layers(records: list[dict], spans, problems: list[str]) -> dict:
    """Per-layer metrics over the traced requests, each linked to the
    server spans it caused by its tag."""
    from perfbench import layers
    from perfbench.tracer import link_requests

    linked = link_requests(records, spans)
    inside = []
    unattributed = 0.0
    for record in records:
        mine = linked[record["tag"]]
        http = [s for s in mine if s.name == "service.http"]
        api = [s for s in mine if s.name == "service.api"]
        if len(http) != 1 or not api:
            problems.append(f"request {record['tag']} has no server spans")
            continue
        top_api = min(api, key=lambda s: s.start)
        record["server_ms"] = top_api.duration * 1e3
        record["overhead_ms"] = record["seconds"] * 1e3 - record["server_ms"]
        unattributed += record["seconds"] - http[0].duration
        inside.extend(mine)
    done = [r for r in records if "server_ms" in r]
    out = layers.layer_metrics(inside, len(records),
                               sum(r["seconds"] for r in records), unattributed)
    out.update(layers.verb_metrics(done))
    out["service.http_overhead.ms_p50"] = common.median(r["overhead_ms"] for r in done)
    return out
