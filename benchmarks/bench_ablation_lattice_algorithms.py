"""Ablation A1: lattice-construction algorithms.

The paper uses Godin's incremental Algorithm 1 (Section 3.1.1, with the
O(2^{2k}·|O|) bound).  This ablation compares it against NextClosure and
the batch intersection closure on the evaluation's real contexts: same
lattices, different costs — the incremental algorithm's advantage grows
with context size because it never re-derives existing concepts.

The committed table holds the sizes, which every run reproduces; the
build times go to the terminal summary and
``BENCH_ablation_lattice_algorithms.json``.
"""

import time

import pytest

from benchmarks.conftest import report, show, write_bench
from repro.core.batch import build_lattice_batch
from repro.core.godin import build_lattice_godin
from repro.core.nextclosure import build_lattice_nextclosure
from repro.util.tables import format_table
from repro.workloads.pipeline import cached_run

SPECS = ["Quarks", "RegionsAlloc", "XSetFont", "XtFree", "RegionsBig"]

ALGORITHMS = (
    ("godin", build_lattice_godin),
    ("nextclosure", build_lattice_nextclosure),
    ("batch", build_lattice_batch),
)


def _time(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_ablation_lattice_algorithms(benchmark):
    def build_rows():
        rows = []
        for name in SPECS:
            context = cached_run(name).clustering.lattice.context
            lattices = {}
            timings = {}
            for algo_name, algo in ALGORITHMS:
                timings[algo_name] = _time(algo, context)
                lattices[algo_name] = algo(context)
            sizes = {len(lat) for lat in lattices.values()}
            assert len(sizes) == 1, f"{name}: algorithms disagree"
            rows.append(
                [
                    name,
                    context.num_objects,
                    context.num_attributes,
                    sizes.pop(),
                    timings["godin"] * 1000,
                    timings["nextclosure"] * 1000,
                    timings["batch"] * 1000,
                ]
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    text = format_table(
        ["spec", "|O|", "|A|", "concepts"],
        [row[:4] for row in rows],
        title="Ablation A1: lattice construction algorithms (identical lattices)",
    )
    report("ablation_a1_lattice_algorithms", text)
    show(
        "ablation_a1_build_ms",
        format_table(
            ["spec", "godin ms", "nextclosure ms", "batch ms"],
            [[row[0], *row[4:]] for row in rows],
            title="Ablation A1: build times (this run, not committed)",
        ),
    )
    write_bench(
        "ablation_lattice_algorithms",
        {
            "build_ms": {
                row[0]: dict(zip(("godin", "nextclosure", "batch"), row[4:]))
                for row in rows
            }
        },
    )


@pytest.mark.parametrize("algo_name,algo", ALGORITHMS, ids=[a for a, _ in ALGORITHMS])
def test_bench_algorithm_on_largest(benchmark, algo_name, algo):
    context = cached_run("RegionsBig").clustering.lattice.context
    benchmark(algo, context)
