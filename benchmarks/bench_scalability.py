"""Ablation A4: scalability of concept analysis.

Section 5.2's empirical observations: "the size of the lattices ...
varied roughly linearly with the number of FA transitions" and "the
times seem to vary slightly worse than linearly".  This benchmark grows
the context along both axes — more objects (scenario classes) at fixed
attributes, and more attributes (richer reference FA) at fixed objects —
and reports sizes and build times for Godin's algorithm.  The committed
tables hold what every run reproduces (sizes, modes); times go to the
terminal summary and the ``BENCH_*.json`` documents.

A4c measures the relation phase itself: serial vs the
:mod:`repro.parallel` worker pool vs a hot cache on a 600-trace corpus,
writing the speedup table to ``benchmarks/results/BENCH_scalability.json``
(``python tools/calibrate.py --bench`` reports the serial-vs-parallel
delta from it).
"""

import os
import time


from benchmarks.conftest import report, show, write_bench
from repro.core.context import FormalContext
from repro.core.godin import build_lattice_godin
from repro.util.rng import make_rng
from repro.util.tables import format_table


def _random_context(num_objects: int, num_attrs: int, row_size: int, seed: str):
    """Contexts shaped like the paper's: small rows (k < 10) over many
    objects, with heavy row duplication (identical-event classes)."""
    rng = make_rng(seed)
    distinct = max(4, num_objects // 3)
    pool = [
        frozenset(rng.sample(range(num_attrs), min(row_size, num_attrs)))
        for _ in range(distinct)
    ]
    rows = [rng.choice(pool) for _ in range(num_objects)]
    return FormalContext(
        [f"o{i}" for i in range(num_objects)],
        [f"a{i}" for i in range(num_attrs)],
        rows,
    )


def _measure(context) -> tuple[int, float]:
    start = time.perf_counter()
    lattice = build_lattice_godin(context)
    return len(lattice), time.perf_counter() - start


def test_scalability_in_objects(benchmark):
    def build_rows():
        rows = []
        for n in (50, 100, 200, 400, 800):
            context = _random_context(n, 24, 6, f"objs-{n}")
            concepts, seconds = _measure(context)
            rows.append([n, 24, concepts, seconds * 1000])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ["objects", "attributes", "concepts"],
        [row[:3] for row in rows],
        title="Ablation A4a: lattice growth in the number of objects",
    )
    report("ablation_a4a_scalability_objects", text)
    show(
        "ablation_a4a_build_ms",
        format_table(
            ["objects", "ms"],
            [[row[0], row[3]] for row in rows],
            title="Ablation A4a: build times (this run, not committed)",
        ),
    )
    write_bench("scalability_in_objects", {"build_ms": {row[0]: row[3] for row in rows}})
    # Time grows but stays far below the paper's 22 s worst case.
    assert all(row[3] < 22_000 for row in rows)


def test_scalability_in_attributes(benchmark):
    """Section 5.2's observation, on the evaluation's own contexts:
    "although concept lattices are potentially exponentially large ...
    the size of the lattices generated for our specifications varied
    roughly linearly with the number of FA transitions"."""
    from repro.workloads.pipeline import cached_run
    from repro.workloads.specs_catalog import SPEC_CATALOG

    def build_rows():
        rows = []
        for spec in SPEC_CATALOG:
            run = cached_run(spec.name)
            context = run.clustering.lattice.context
            rows.append(
                [
                    spec.name,
                    context.num_attributes,
                    run.num_concepts,
                    run.num_concepts / max(context.num_attributes, 1),
                ]
            )
        rows.sort(key=lambda r: r[1])
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ["spec", "transitions (|A|)", "concepts", "concepts per transition"],
        rows,
        title=(
            "Ablation A4b: lattice size vs FA transitions across the "
            "evaluation's 17 contexts"
        ),
    )
    ratios = [row[3] for row in rows]
    text += (
        f"\n\nconcepts per transition across specs: "
        f"min {min(ratios):.1f}, max {max(ratios):.1f} — bounded, i.e. "
        "far from the 2^min(|O|,|A|) worst case"
    )
    report("ablation_a4b_scalability_attributes", text)
    # Bounded ratio = roughly linear; the exponential worst case would
    # put concepts orders of magnitude above |A|.
    for _, attrs, concepts, _ in rows:
        assert concepts <= 12 * attrs


def test_bench_godin_800_objects(benchmark):
    context = _random_context(800, 24, 6, "bench")
    benchmark(build_lattice_godin, context)


def _relation_corpus(num_traces: int, length: int, seed: str):
    """A reference FA and a corpus of long traces over its alphabet, so
    each relation evaluation does real layered-graph work."""
    from repro.fa.templates import unordered_fa
    from repro.lang.events import Event
    from repro.lang.traces import Trace

    symbols = [f"ev{i}" for i in range(12)]
    fa = unordered_fa([f"{s}(X)" for s in symbols])
    rng = make_rng(seed)
    traces = [
        Trace(
            tuple(
                Event(rng.choice(symbols), ("X",)) for _ in range(length)
            ),
            trace_id=f"t{i}",
        )
        for i in range(num_traces)
    ]
    return fa, traces


def test_scalability_relation_parallel(benchmark):
    """Ablation A4c: the relation phase, serial vs parallel vs cached.

    Runs the same corpus (600 traces by default; the CI ``bench-kernels``
    smoke job shrinks it with ``REPRO_BENCH_TRACES``) through
    ``relation_map`` serially (``jobs=1``, no cache), over the process
    pool at ``jobs`` 2 and 4, and once more against a hot cache; asserts
    all modes return bit-identical rows and writes the speedup table to
    ``BENCH_scalability.json``.
    """
    from repro.parallel import RelationCache, relation_map

    corpus = int(os.environ.get("REPRO_BENCH_TRACES", "600"))
    fa, traces = _relation_corpus(corpus, 40, "a4c")

    def timed(**kwargs):
        start = time.perf_counter()
        rows = relation_map(fa, traces, **kwargs)
        return rows, time.perf_counter() - start

    def run_modes():
        serial, serial_s = timed(jobs=1, cache=False)
        modes = [("serial", 1, serial_s)]
        for jobs in (2, 4):
            rows, seconds = timed(jobs=jobs, backend="process", cache=False)
            assert rows == serial  # parallel must be bit-identical
            modes.append((f"process x{jobs}", jobs, seconds))
        cache = RelationCache()
        relation_map(fa, traces, cache=cache)  # warm it
        rows, seconds = timed(jobs=1, cache=cache)
        assert rows == serial
        modes.append(("cache-hot", 1, seconds))
        return serial_s, modes

    serial_s, modes = benchmark.pedantic(run_modes, rounds=1, iterations=1)
    rows = [
        [mode, jobs, seconds * 1000, serial_s / seconds if seconds else 0.0]
        for mode, jobs, seconds in modes
    ]
    title = (
        f"Ablation A4c: relation phase over {len(traces)} traces — serial "
        "vs worker pool vs hot cache"
    )
    text = format_table(["mode", "jobs"], [row[:2] for row in rows], title=title)
    text += "\n\nevery mode returns the serial rows bit for bit"
    report("ablation_a4c_relation_parallel", text)
    cpus = os.cpu_count() or 1
    show(
        "ablation_a4c_times",
        format_table(["mode", "jobs", "ms", "speedup"], rows, title=title)
        + f"\n\n(measured on {cpus} CPU(s); not committed)",
    )

    doc = {
        "name": "scalability",
        "corpus": len(traces),
        "cpus": cpus,
        "seconds": serial_s,
        "parallel": [
            {
                "mode": mode,
                "jobs": jobs,
                "seconds": seconds,
                "speedup": serial_s / seconds if seconds else 0.0,
            }
            for mode, jobs, seconds in modes
        ],
    }
    write_bench("scalability", doc)

    # The hot cache must beat recomputing, on any machine.
    assert doc["parallel"][-1]["speedup"] > 1.0
    # The >=2x-at-jobs=4 criterion only means something with >=4 cores.
    if cpus >= 4:
        by_jobs = {row["jobs"]: row for row in doc["parallel"][:-1]}
        assert by_jobs[4]["speedup"] >= 2.0
