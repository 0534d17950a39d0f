"""Passes of the benchmark's resolve-deep and functors workloads.

``bench/workloads.py`` is imported as it stands, and each output must pass
the workload's own check, on seed 0 and on seed 3, whose graded automorphism
scales the Gasharov-Peeva inputs, so a change that breaks a benchmark output
fails here as well as in the benchmark run.  Each pass takes well under a
second.  The strand frame's work in one seed-0 pass of resolve-deep and of
functors is pinned as a count of ``Blocks.mul_nf`` calls.
"""

import importlib.util
from pathlib import Path

import pytest

from hwprobe import modules

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


# seed 0 keeps the bare workload name as its id
@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=f"{name}-seed{seed}" if seed else name)
    for seed in (0, 3) for name in ("resolve-deep", "functors")])
def test_workload_pass_passes_its_checks(name, seed):
    workload = WORKLOADS[name](seed, REPO)
    p = _Pass()
    workload.run_pass(p)
    checks = workload.checks(p.results)
    assert set(checks) == set(p.results)
    assert [label for label, check in checks.items() if not check()] == []


def count_mul_nf(monkeypatch, name):
    """``Blocks.mul_nf`` calls in one seed-0 pass of the named workload."""
    calls = []
    real = modules.Blocks.mul_nf

    def counting(blocks, v, m):
        calls.append(m)
        return real(blocks, v, m)

    monkeypatch.setattr(modules.Blocks, "mul_nf", counting)
    WORKLOADS[name](0, REPO).run_pass(_Pass())
    return len(calls)


def test_resolve_deep_strand_work_is_pinned(monkeypatch):
    # every product x^m * v of the strand frame is one mul_nf call: 890
    # kernel rows, in degrees up to the target's top degree, and 538 products
    # of the strand test's span, which stop once it fills Z_D
    assert count_mul_nf(monkeypatch, "resolve-deep") == 1428


def test_functors_strand_work_is_pinned(monkeypatch):
    # Tor, Ext and Tate lengths are ranks read from spans that stop once a
    # degree fills, one rank per differential; the Ext modules' boundaries
    # skip rows in full degrees, and their generators and relations come
    # from the strand step
    assert count_mul_nf(monkeypatch, "functors") == 1147
