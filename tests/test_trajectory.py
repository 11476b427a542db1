"""The committed performance trajectory is well formed.

``benchmarks/results/trajectory.jsonl`` holds one JSON row per workload
per performance change: the measured commit, its parent, the host, the
seeds and the medians of the end-to-end metrics named in
``BENCHMARK.json`` (``null`` where a change did not report one).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "results" / "trajectory.jsonl"
SHA = re.compile(r"[0-9a-f]{40}")


def rows() -> list[dict]:
    return [json.loads(line) for line in TRAJECTORY.read_text().splitlines()]


def test_rows_name_benchmark_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for row in rows():
        assert row["workload"] in workloads
        assert set(row["medians"]) == set(row["parent_medians"]) == metrics
        assert row["medians"]["ops_per_s"] is not None
        for value in (*row["medians"].values(), *row["parent_medians"].values()):
            assert value is None or value > 0


def test_rows_carry_commit_host_and_seeds():
    for row in rows():
        assert SHA.fullmatch(row["sha"]) and SHA.fullmatch(row["parent_sha"])
        assert row["sha"] != row["parent_sha"]
        assert {"cpus", "cpu_model", "python"} <= set(row["host"])
        assert row["seeds"] and all(isinstance(s, int) for s in row["seeds"])
        assert row["pairs"] >= 1 and row["seconds"] > 0


def test_one_row_per_commit_and_workload():
    keys = [(row["sha"], row["workload"]) for row in rows()]
    assert len(keys) == len(set(keys))
