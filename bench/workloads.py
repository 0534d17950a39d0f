"""The benchmark's workloads: seeded inputs, one pass of operations, checks.

Every pass builds fresh rings and modules, because resolutions and Groebner
bases are memoized on those objects; reusing them would time cache hits.
A workload's ``run_pass(p)`` calls each operation through ``p.op(label, fn,
*args)``, a guard in ``run.py``; ``checks(results)`` maps each label to a
check of its output, evaluated after the pass's timer stops.  An exception or
a failed check counts against the run's failure fraction.

The checks rest on facts that do not come from this code's own outputs:

* ``catalog``: the ``expected`` fields of each catalog entry (the selftest's
  rules), the committed golden reports, and byte-identical reports across
  passes;
* ``resolve-deep`` and ``functors``: the Gasharov-Peeva ring R, whose residue
  field has Betti numbers (3^(i+1) - 1)/2, and its period-four module N, whose
  Betti numbers are all 2 (Gasharov & Peeva, 1990).
"""

import random
import re

# Calls go through module attributes, looked up at call time, so that the
# wrappers the traced run installs in those modules see them.
from hwprobe import homalg, jobs, modules, quotient, resolution, selftest, tate
from hwprobe.catalog import catalog, catalog_names
from hwprobe.grammar import parse_polynomial

GP_FIELD = 5
GP_VARIABLES = ["x1", "x2", "x3", "x4"]
GP_IDEAL = ["x1^2", "x2^2", "x3^2", "x3*x4", "x4^2",
            "x1*x4 + x2*x4", "2*x1*x3 + x2*x3"]
# N = coker [[x1, 2*x3 + x4], [0, x2]]: 2 = alpha in F_5 has order four.
GP_N_MATRIX = [["x1", "2*x3 + x4"], ["0", "x2"]]

GOLDEN_NAMES = ("a1-threefold-theta", "cusp-hw")


def residue_betti(i):
    """beta_i of the residue field over the Gasharov-Peeva ring."""
    return (3 ** (i + 1) - 1) // 2


# Every Betti number of the period-four module N is 2.
N_BETTI = 2


def graded_automorphism(seed):
    """Nonzero scalars c_i for the substitution x_i -> c_i * x_i.

    Seed 0 is the identity.  Variable permutations are left out: they change
    the cost of a resolve-deep pass by more than threefold (see README.md),
    which no run-to-run bound could absorb.
    """
    if seed == 0:
        return (1,) * len(GP_VARIABLES)
    rng = random.Random(seed)
    return tuple(rng.randrange(1, GP_FIELD) for _ in GP_VARIABLES)


def substitute(text, scalars):
    """The polynomial text with each x_i replaced by (c_i*x_i)."""
    if all(c == 1 for c in scalars):
        return text
    return re.sub(r"\bx([1-4])\b",
                  lambda m: f"({scalars[int(m.group(1)) - 1]}*x{m.group(1)})",
                  text)


class GPInputs:
    """The seeded Gasharov-Peeva ring and module, as polynomial text."""

    def __init__(self, seed):
        self.scalars = graded_automorphism(seed)
        self.ideal = [substitute(g, self.scalars) for g in GP_IDEAL]
        self.n_matrix = [[substitute(e, self.scalars) for e in row]
                         for row in GP_N_MATRIX]

    def ring(self):
        return quotient.define_ring(GP_VARIABLES, [1] * len(GP_VARIABLES), GP_FIELD,
                           self.ideal)

    def module_n(self, ring):
        rows = [[parse_polynomial(ring.ambient, e) for e in row]
                for row in self.n_matrix]
        cols = [{(j, m): c for j, row in enumerate(rows)
                 for m, c in row[col].items()}
                for col in range(len(rows[0]))]
        return modules.PresentedModule(ring, (0, 0), cols)


class Catalog:
    """All six catalog jobs in sorted name order, run and emitted."""

    name = "catalog"

    def __init__(self, seed, root):
        self.seed = seed
        self.names = catalog_names()
        self.golden = {}
        if seed == 0:
            for name in GOLDEN_NAMES:
                path = root / "tests" / "golden" / f"{name}.json"
                self.golden[name] = path.read_bytes() if path.is_file() else None
        self.first_bytes = {}

    def run_pass(self, p):
        for name in self.names:
            p.op(name, self._job, name)

    def _job(self, name):
        spec = catalog(name)
        report = jobs.run_job(spec, self.seed)
        return spec, report, jobs.emit(report, "structured")

    def checks(self, results):
        return {name: (lambda name=name: self._check(name, *results[name]))
                for name in self.names}

    def _check(self, name, spec, report, data):
        ok = all(t["status"] == "ok" for t in report.tasks) and not report.anomaly
        ok = ok and selftest._check_expected(spec, report, spec.get("expected", {}))
        ok = ok and data == self.first_bytes.setdefault(name, data)
        if name in self.golden:
            ok = ok and data == self.golden[name]
        return ok


class ResolveDeep:
    """beta_0..beta_window of the residue field over the seeded GP ring."""

    name = "resolve-deep"

    def __init__(self, seed, root, window=5):
        self.inputs = GPInputs(seed)
        self.window = window

    def run_pass(self, p):
        ring = p.op("ring", self.inputs.ring)
        k = p.op("k", modules.residue_field_module, ring)
        p.op("betti", resolution.betti_numbers, k, self.window)

    def checks(self, results):
        upto = min(4, self.window - 1)

        def betti_ok():
            expected = [residue_betti(i) for i in range(self.window + 1)]
            # d_i o d_{i+1} = 0 on the levels read; runs after timing.
            res = resolution.resolution_of(results["k"], 1)
            return results["betti"] == expected and res.verify(upto=upto)

        return {"ring": lambda: results["ring"] is not None,
                "k": lambda: results["k"].ngens == 1,
                "betti": betti_ok}


class Functors:
    """Tor, Ext and Tate (co)homology of the period-four module N."""

    name = "functors"
    TOR_RANGE = range(1, 13)
    EXT_RANGE = range(1, 9)
    TATE_RANGE = range(-6, 7)
    PERIOD = 4

    def __init__(self, seed, root):
        self.inputs = GPInputs(seed)

    def run_pass(self, p):
        ring = p.op("ring", self.inputs.ring)
        k = p.op("k", modules.residue_field_module, ring)
        n = p.op("N", self.inputs.module_n, ring)
        for i in self.TOR_RANGE:
            p.op(f"tor_N_k.{i}", homalg.tor_length, n, k, i)
            p.op(f"tor_N_N.{i}", homalg.tor_length, n, n, i)
        for i in self.EXT_RANGE:
            p.op(f"ext_N_N.{i}", _ext_length, n, n, i)
            p.op(f"ext_N_k.{i}", _ext_length, n, k, i)
        cr = p.op("complete_resolution", tate.complete_resolution, n,
                  self.PERIOD, 6)
        for i in self.TATE_RANGE:
            p.op(f"tate_tor.{i}", tate.tate_tor_length, cr, n, i)
            p.op(f"tate_ext.{i}", tate.tate_ext_length, cr, n, i)

    def checks(self, r):
        q = self.PERIOD
        out = {"ring": lambda: r["ring"] is not None,
               "k": lambda: r["k"].ngens == 1,
               "N": lambda: r["N"].ngens == 2,
               "complete_resolution": lambda: r["complete_resolution"].q == q}

        def periodic(kind, i):
            v = r[f"{kind}.{i}"]
            return isinstance(v, int) and (i <= q or v == r[f"{kind}.{i - q}"])

        def tate(kind, plain, i):
            v = r[f"{kind}.{i}"]
            if 1 <= i <= 6:
                return v == r[f"{plain}.{i}"]
            return isinstance(v, int) and v >= 0

        def minimal(label, i):
            beta = resolution.resolution_of(r["N"], i + 1).betti(i)
            return r[label] == beta == N_BETTI

        for i in self.TOR_RANGE:
            out[f"tor_N_k.{i}"] = lambda i=i: minimal(f"tor_N_k.{i}", i)
            out[f"tor_N_N.{i}"] = lambda i=i: periodic("tor_N_N", i)
        for i in self.EXT_RANGE:
            out[f"ext_N_k.{i}"] = lambda i=i: minimal(f"ext_N_k.{i}", i)
            out[f"ext_N_N.{i}"] = lambda i=i: periodic("ext_N_N", i)
        for i in self.TATE_RANGE:
            out[f"tate_tor.{i}"] = lambda i=i: tate("tate_tor", "tor_N_N", i)
            out[f"tate_ext.{i}"] = lambda i=i: tate("tate_ext", "ext_N_N", i)
        return out


def _ext_length(m, n, i):
    return homalg.ext(m, n, i).length()


WORKLOADS = {w.name: w for w in (Catalog, ResolveDeep, Functors)}
