"""``catalog``: regenerate Tables 1-3 over the 17 catalogue specs.

One op is one full pass: for every spec in ``SPEC_CATALOG``,
``run_spec(spec, seed)`` and then ``evaluate_strategies`` with the
Table 3 bench settings.  Every pass uses the same per-spec seeds, so
every op does the same work.
"""

from __future__ import annotations

import time

from perfbench import common

#: The Table 3 benchmark's strategy settings.
TABLE3 = dict(
    random_trials=128,
    shuffle_trials=8,
    optimal_max_states=50_000,
    optimal_max_objects=40,
)


def setup(seed: int):
    """The per-spec seeds every pass uses (``run_spec`` generates the
    traces itself: trace generation is one of the measured layers)."""
    from repro.strategies.runner import evaluate_strategies  # noqa: F401
    from repro.workloads.pipeline import run_spec  # noqa: F401
    from repro.workloads.specs_catalog import SPEC_CATALOG

    return [(spec, f"perfbench-{seed}") for spec in SPEC_CATALOG]


def probe(seed: int, ready) -> None:
    setup(seed)
    ready()


def one_pass(inputs, host=None):
    """One pass; returns its results and the seconds the specs took.

    ``host`` is sampled after each spec, so the host's speed is sampled
    all through the pass; the samples are not part of the pass time.
    """
    # Looked up per call, so the traced run's wrappers apply.
    from repro.strategies.runner import evaluate_strategies
    from repro.workloads.pipeline import run_spec

    results = []
    seconds = 0.0
    for spec, spec_seed in inputs:
        start = time.perf_counter()
        run = run_spec(spec, seed=spec_seed)
        table = evaluate_strategies(
            run.clustering, run.reference_labeling, name=spec.name, **TABLE3
        )
        seconds += time.perf_counter() - start
        results.append((run, table))
        if host:
            host.sample()
    return results, seconds


def reference_concepts(results) -> dict[str, int]:
    """Concept counts NextClosure finds on each spec's context."""
    from repro.core.nextclosure import closed_intent_bits

    return {
        run.spec.name: sum(1 for _ in closed_intent_bits(run.clustering.lattice.context))
        for run, _ in results
    }


def check(results, expected: dict[str, int]) -> list[str]:
    """Problems with one pass's outputs (empty when correct)."""
    problems = []
    for run, table in results:
        name = run.spec.name
        if run.num_concepts != expected[name]:
            problems.append(f"{name}: {run.num_concepts} concepts, NextClosure {expected[name]}")
        if table.expert is None or table.expert > table.baseline:
            problems.append(f"{name}: Expert {table.expert} > Baseline {table.baseline}")
        for behavior in run.spec.behaviors:
            if behavior.good and not run.debugged_fa.accepts(behavior.trace()):
                problems.append(f"{name}: debugged FA rejects good {behavior.symbols}")
    return problems


def timed_passes(inputs, expected, seconds: float, problems: list[str],
                 call=None, host=None):
    """Run passes until ``seconds`` have elapsed; returns pass seconds."""
    call = call or (lambda: one_pass(inputs, host))
    times = []
    window_start = time.perf_counter()
    while not times or time.perf_counter() - window_start < seconds:
        results, pass_seconds = call()
        times.append(pass_seconds)
        problems.extend(check(results, expected))
        del results
    return times


def run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = setup(seed)
    warmup, _ = one_pass(inputs)
    expected = reference_concepts(warmup)
    problems = check(warmup, expected)
    del warmup

    if not trace:
        host = common.HostSpeed()
        times = timed_passes(inputs, expected, seconds, problems, host=host)
        peak_kb = common.status_kb("self", "VmHWM")
        # A pass takes seconds and the host's speed moves from one pass
        # to the next, so each pass is scaled by its own 17 samples.
        factors = common.local_factors(host, range(len(times)), len(inputs), reach=0)
        timing = common.timing_metrics(times, len(times), factors)
        timing["peak_rss_mb"] = peak_kb / 1024
        return {"problems": problems, "attempted": len(times), "failed": 0,
                "timing": timing}

    from perfbench import layers
    from perfbench.tracer import Tracer

    plain = timed_passes(inputs, expected, seconds / 2, problems)
    tracer = Tracer()
    layers.install(tracer)
    traced = timed_passes(inputs, expected, seconds / 2, problems,
                          call=lambda: tracer.run("op", one_pass, inputs))
    out = layers.from_op_roots(tracer.spans)
    out["obs.tracing_overhead"] = common.median(traced) / common.median(plain)
    return {"problems": problems, "attempted": len(plain) + len(traced),
            "failed": 0, "layers": out}
