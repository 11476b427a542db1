"""``bulk-cluster``: cluster a fresh corpus against a fresh reference FA.

One op is ``cluster_traces(corpus, fa)`` at library defaults (serial),
with ``fa`` a freshly built ``unordered_fa`` so relation R runs cold.
Set-up builds a fixed cycle of corpora; a run times whole cycles, so
every run times the same mix of ops.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass

from perfbench import common

ALPHABET = tuple(f"b{i:02d}" for i in range(24))
PATTERNS = tuple(f"{symbol}(X)" for symbol in ALPHABET)
SUBSET_SIZE = 6
CORPORA = 4
DISTINCT = 320
DUPLICATES = 80
#: Lengths of the distinct traces: the same multiset, 20..60 events, in
#: every corpus and every seed, so every op sweeps the same event count.
LENGTHS = tuple(20 + i % 41 for i in range(DISTINCT))


@dataclass
class Corpus:
    """One corpus, its planted subsets and its expected concept count."""

    traces: list
    planted: dict[str, int]
    concepts: int


def make_corpus(rng: random.Random) -> Corpus:
    """``DISTINCT`` traces, each using every symbol of its own 6-symbol
    subset, plus ``DUPLICATES`` exact copies so dedup has work to do."""
    from repro.lang.events import Event
    from repro.lang.traces import Trace

    lengths = list(LENGTHS)
    rng.shuffle(lengths)
    sequences: list[tuple[int, ...]] = []
    seen = set()
    for length in lengths:
        while True:
            subset = rng.sample(range(len(ALPHABET)), SUBSET_SIZE)
            body = subset + [rng.choice(subset) for _ in range(length - SUBSET_SIZE)]
            rng.shuffle(body)
            if tuple(body) not in seen:
                break
        seen.add(tuple(body))
        sequences.append(tuple(body))
    sequences += [rng.choice(sequences) for _ in range(DUPLICATES)]
    rng.shuffle(sequences)
    traces, planted = [], {}
    for i, body in enumerate(sequences):
        trace_id = f"t{i}"
        traces.append(Trace(tuple(Event(ALPHABET[s], ("X",)) for s in body), trace_id))
        planted[trace_id] = sum(1 << s for s in set(body))
    return Corpus(traces, planted, closure_size(set(planted.values())))


def closure_size(rows: set[int]) -> int:
    """Concepts of a context with these distinct rows: every intersection
    of a nonempty family of rows, plus the full attribute set."""
    closed: set[int] = set()
    for row in rows:
        closed |= {row & other for other in closed}
        closed.add(row)
    closed.add((1 << len(ALPHABET)) - 1)
    return len(closed)


def setup(seed: int) -> list[Corpus]:
    # The op's imports belong to set-up time, not to the first op.
    import repro.core.trace_clustering  # noqa: F401

    rng = random.Random(f"bulk-cluster/{seed}")
    return [make_corpus(rng) for _ in range(CORPORA)]


def probe(seed: int, ready) -> None:
    setup(seed)
    ready()


def fresh_fa():
    from repro.fa.templates import unordered_fa

    return unordered_fa(PATTERNS)


def one_op(corpus: Corpus, fa):
    # Looked up per call, so the traced run's wrappers apply.
    from repro.core.trace_clustering import cluster_traces

    return cluster_traces(corpus.traces, fa)


def check(corpus: Corpus, clustering) -> list[str]:
    problems = []
    rows = clustering.lattice.context.rows
    for o, rep in enumerate(clustering.representatives):
        if sum(1 << a for a in rows[o]) != corpus.planted[rep.trace_id]:
            problems.append(f"{rep.trace_id}: relation row is not its planted subset")
            break
    if clustering.num_objects != DISTINCT or clustering.rejected:
        problems.append(f"{clustering.num_objects} classes, {len(clustering.rejected)} rejected")
    if len(clustering.lattice) != corpus.concepts:
        problems.append(f"{len(clustering.lattice)} concepts, closure {corpus.concepts}")
    return problems


def timed_cycles(corpora, seconds: float, problems: list[str], call=None, host=None):
    """Whole cycles over the corpora until ``seconds`` have elapsed;
    ``host`` is sampled after each op."""
    call = call or one_op
    times = []
    window_start = time.perf_counter()
    while not times or time.perf_counter() - window_start < seconds:
        for corpus in corpora:
            fa = fresh_fa()
            start = time.perf_counter()
            clustering = call(corpus, fa)
            times.append(time.perf_counter() - start)
            problems.extend(check(corpus, clustering))
            if host:
                host.sample()
    return times


def process_speedup(corpus: Corpus, repeats: int = 3) -> float:
    """Serial ``relation_map`` time over the time with ``jobs=nproc`` on
    the process backend, same distinct traces, caches off."""
    from repro.lang.traces import dedup_traces
    from repro.parallel.relation import relation_map

    traces = list(dedup_traces(corpus.traces).representatives)
    fa = fresh_fa()
    expected = relation_map(fa, traces, cache=False)
    seconds = {}
    for jobs, backend in ((None, "serial"), (os.cpu_count() or 1, "process")):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            rows = relation_map(fa, traces, jobs=jobs, backend=backend, cache=False)
            samples.append(time.perf_counter() - start)
            if rows != expected:
                raise RuntimeError(f"{backend} relation_map disagrees with serial")
        seconds[backend] = common.median(samples)
    return seconds["serial"] / seconds["process"]


def run(seed: int, seconds: float, trace: bool) -> dict:
    corpora = setup(seed)
    problems: list[str] = []
    timed_cycles(corpora[:1], 0, problems)  # warm-up op

    if not trace:
        host = common.HostSpeed()
        times = timed_cycles(corpora, seconds, problems, host=host)
        factors = common.local_factors(host, range(len(times)))
        timing = common.timing_metrics(times, len(times), factors)
        timing["peak_rss_mb"] = common.status_kb("self", "VmHWM") / 1024
        return {"problems": problems, "attempted": len(times), "failed": 0,
                "timing": timing}

    from perfbench import layers
    from perfbench.tracer import Tracer

    speedup = process_speedup(corpora[0])
    plain = timed_cycles(corpora, seconds / 2, problems)
    tracer = Tracer()
    layers.install(tracer)
    traced = timed_cycles(corpora, seconds / 2, problems,
                          call=lambda corpus, fa: tracer.run("op", one_op, corpus, fa))
    out = layers.from_op_roots(tracer.spans)
    out["obs.tracing_overhead"] = common.median(traced) / common.median(plain)
    out["parallel.process_speedup"] = speedup
    return {"problems": problems, "attempted": len(plain) + len(traced),
            "failed": 0, "layers": out}
