"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

``--trace 0`` times the ops with no tracing and prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced run.  The
metric names and units come from ``BENCHMARK.json``.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"catalog": "wl_catalog", "bulk-cluster": "wl_bulk", "serve-session": "wl_serve"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, layers

    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    if args.setup_probe:
        module.probe(args.seed, lambda: print("ready", flush=True))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        wanted = spec["per_layer"]
        result = module.run(args.seed, args.seconds, trace=True)
        values = result["layers"]
        gap = layers.accounting_gap_ms(values)
        if abs(gap) > 1e-6 * values["op.wall.ms"]:
            result["problems"].append(f"layer self times miss op.wall.ms by {gap} ms")
    else:
        wanted = spec["end_to_end"]
        host = common.HostSpeed()
        setups = common.time_setups(args.workload, args.seed, host)
        common.log(f"raw setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}; "
                   f"host factor {host.factor():.4f}")
        result = module.run(args.seed, args.seconds, trace=False)
        values = dict(result["timing"], setup_s=common.median(setups) * host.factor())
    names = {m["name"] for m in wanted}
    if set(values) - names:
        raise KeyError(f"not in BENCHMARK.json: {sorted(set(values) - names)}")
    if not args.trace and names - set(values):
        raise KeyError(f"not measured: {sorted(names - set(values))}")
    for problem in result["problems"]:
        common.log(f"incorrect: {problem}")
    # A per-layer metric a workload never exercises reads 0.
    metrics = {
        m["name"]: common.metric(values.get(m["name"], 0.0), m["unit"]) for m in wanted
    }
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
