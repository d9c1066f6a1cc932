"""The committed benchmark evidence: every BENCH_*.json at the repository root
loads, and its claim names a workload and an end-to-end metric that
BENCHMARK.json declares, with quartiles for both sides and the change's
median on the metric's better side.  The files are only read."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_claim_matches_the_declared_benchmark(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    claim = json.loads(path.read_text())["claim"]
    assert claim["workload"] in workloads
    assert claim["metric"] in metrics
    for side in ("parent", "change"):
        q = claim[side]
        assert q["q1"] <= q["median"] <= q["q3"], side
    parent, change = claim["parent"]["median"], claim["change"]["median"]
    if metrics[claim["metric"]]["better"] == "lower":
        assert change < parent
    else:
        assert change > parent
