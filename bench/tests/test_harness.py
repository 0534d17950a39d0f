"""Self-check of the benchmark harness, outside the tier-1 suite.

    python3 -m pytest bench/tests -q

Each workload runs one smoke pass (resolve-deep on a tiny window), untraced
and traced; every metric BENCHMARK.json names must be emitted with its unit.
A deliberately wrong expected value must show up as failed operations.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = {"resolve-deep": {"window": 3}}


def smoke(name, trace):
    result, _lines = run.run(name, 0, 0, trace, setup_probes=1,
                             **SMOKE.get(name, {}))
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_checks_pass(name, trace):
    result = smoke(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["correct"]


def test_traced_run_locates_resolution_levels():
    metrics = smoke("resolve-deep", 1)["metrics"]
    assert metrics["resolution.levels_built"]["value"] == 4
    assert [metrics[f"resolution.betti.{i}"]["value"] for i in range(5)] == \
        [1, 4, 13, 40, 121]
    assert metrics["resolution.level_s.4"]["value"] > 0


@pytest.mark.parametrize("name, attr, wrong", [
    ("resolve-deep", "residue_betti", lambda i: 3 ** i),
    ("functors", "N_BETTI", 3),
])
def test_wrong_expected_value_counts_as_failure(monkeypatch, name, attr, wrong):
    monkeypatch.setattr(workloads, attr, wrong)
    result = smoke(name, 0)
    assert result["failed"] > 0 and not result["correct"]
