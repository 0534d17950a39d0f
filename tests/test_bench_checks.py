"""One seed-0 pass of the benchmark's resolve-deep and functors workloads.

``bench/workloads.py`` is imported as it stands, and each output must pass
the workload's own check, so a change that breaks a benchmark output fails
here as well as in the benchmark run.  Both passes take well under a second.
"""

import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads().WORKLOADS


class _Pass:
    """The ``op`` protocol of the benchmark's passes; errors propagate."""

    def __init__(self):
        self.results = {}

    def op(self, label, fn, *args):
        self.results[label] = value = fn(*args)
        return value


@pytest.mark.parametrize("name", ["resolve-deep", "functors"])
def test_workload_pass_passes_its_checks(name):
    workload = WORKLOADS[name](0, REPO)
    p = _Pass()
    workload.run_pass(p)
    checks = workload.checks(p.results)
    assert set(checks) == set(p.results)
    assert [label for label, check in checks.items() if not check()] == []
