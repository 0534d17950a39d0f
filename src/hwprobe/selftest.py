"""Built-in invariant suite: quick spot checks plus catalog reproductions.

Each check prints one pass/fail line.  This duplicates a slice of the test
suite so installations without pytest can still validate themselves.
"""

import random

from .catalog import catalog, catalog_names
from .grammar import parse_polynomial
from .groebner import groebner_basis, syzygy_generators
from .homalg import (
    biduality_map,
    dual,
    ext,
    grade,
    tensor,
    tor_length,
    torsion_length,
    torsion_submodule,
    transpose,
)
from .jobs import run_job
from .modules import (
    PresentedModule,
    free_module,
    ideal_module,
    quotient_module,
    residue_field_module,
)
from .quotient import define_ring
from .resolution import resolution_of
from .tate import complete_resolution, tate_tor_length
from .theta import random_short_exact_sequence, theta, theta_additivity_check

# The ring of Gasharov and Peeva (1990): variables, weights, field, ideal.
GASHAROV_PEEVA = (["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5,
                  ["x1^2", "x2^2", "x3^2", "x3*x4", "x4^2",
                   "x1*x4 + x2*x4", "2*x1*x3 + x2*x3"])


class _Suite:
    def __init__(self):
        self.failures = 0

    def check(self, name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            self.failures += 1

    def run(self, name, fn):
        try:
            self.check(name, bool(fn()))
        except Exception as e:  # honest reporting beats a crash here
            print(f"FAIL  {name}  ({type(e).__name__}: {e})")
            self.failures += 1


def run_selftest(quick=False, seed=0):
    s = _Suite()
    rng = random.Random(seed)

    cusp = define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"], domain=True)
    amb = cusp.ambient
    m = ideal_module(cusp, [parse_polynomial(amb, "x"), parse_polynomial(amb, "y")])

    def field_axioms():
        p = amb.field
        for _ in range(50):
            a = rng.randrange(1, p.p)
            if p.mul(a, p.inv(a)) != 1:
                return False
            b, c = rng.randrange(p.p), rng.randrange(p.p)
            if p.mul(a, p.add(b, c)) != p.add(p.mul(a, b), p.mul(a, c)):
                return False
        return True
    s.run("field axioms on random samples", field_axioms)

    def order_multiplicative():
        key = amb.mono_key
        for _ in range(100):
            u = tuple(rng.randrange(4) for _ in range(2))
            v = tuple(rng.randrange(4) for _ in range(2))
            w = tuple(rng.randrange(4) for _ in range(2))
            if key(u) < key(v):
                uw = amb.mono_mul(u, w)
                vw = amb.mono_mul(v, w)
                if not key(uw) < key(vw):
                    return False
        return True
    s.run("monomial order is multiplicative", order_multiplicative)

    def gb_stable():
        gens = [{(0, mm): c for mm, c in parse_polynomial(amb, s_).items()}
                for s_ in ("x^2 - y^3", "x*y")]
        gb1 = groebner_basis(amb, gens, (0,))
        gb2 = groebner_basis(amb, list(gb1.elements), (0,))
        return gb1.elements == gb2.elements
    s.run("reduced Groebner bases are recomputation-stable", gb_stable)

    def table_nf_vs_division():
        # nf sums per-monomial table rows; dividing the whole polynomial by
        # the ring's basis must give the same remainder
        draw = random.Random(seed)
        monos = [t for d in range(16) for t in amb.monomials_of_degree(d)]
        for _ in range(40):
            f = {draw.choice(monos): draw.randrange(1, amb.p) for _ in range(6)}
            whole = cusp._ideal_basis.normal_form({(0, t): c for t, c in f.items()})
            if cusp.nf(f) != {t: c for (_, t), c in whole.items()}:
                return False
        return True
    s.run("normal forms from the monomial table agree with division",
          table_nf_vs_division)

    def syz_check():
        from .freemod import matvec
        gens = list(m.rels)
        syz = syzygy_generators(amb, gens, m.twists)
        for v in syz:
            if matvec(amb, gens, v):
                return False
        return True
    s.run("syzygies annihilate their generators", syz_check)

    def resolution_square_zero():
        res = resolution_of(m, 5)
        return res.verify(4) and res.is_minimal()
    s.run("resolution differentials compose to zero and are minimal", resolution_square_zero)

    def gp_residue_betti():
        # the Artinian strand path against Gasharov and Peeva: k over their
        # ring has Betti numbers (3^(i+1) - 1)/2, since P_k = 1/(1 - 4t + 3t^2)
        gp = define_ring(*GASHAROV_PEEVA)
        res = resolution_of(residue_field_module(gp), 6)
        expected = [(3 ** (i + 1) - 1) // 2 for i in range(7)]
        return res.betti_numbers(6) == expected and res.verify(upto=3)
    s.run("Betti numbers of k over the Gasharov-Peeva ring", gp_residue_betti)

    def gp_module_tor_lengths():
        # the Artinian rank path against Gasharov and Peeva: their module
        # N = coker [[x1, 2*x3 + x4], [0, x2]] has every Betti number 2, so
        # len Tor_i(N, k) = 2, and so len Tor_i(k, N) = 2 by the balance of
        # Tor, read from the resolution of k; N has period four, so
        # Tor_i(N, N) repeats
        gp = define_ring(*GASHAROV_PEEVA)
        ga = gp.ambient
        n = PresentedModule(gp, (0, 0), [
            {(j, mm): c for j, text in enumerate(col)
             for mm, c in parse_polynomial(ga, text).items()}
            for col in (("x1", "0"), ("2*x3 + x4", "x2"))])
        k = residue_field_module(gp)
        tor_n = [tor_length(n, n, i) for i in range(1, 9)]
        return all(tor_length(n, k, i) == 2 for i in range(1, 9)) and \
            all(tor_length(k, n, i) == 2 for i in range(1, 5)) and \
            tor_n[:4] == tor_n[4:]
    s.run("Tor of the Gasharov-Peeva module: lengths 2 against k, period 4",
          gp_module_tor_lengths)

    def ext_tor_betti():
        # both sides of the complex against k read the Betti numbers:
        # len Ext^i(m, k) = len Tor_i(m, k) = beta_i, here 2, 2, 2
        k = residue_field_module(cusp)
        res = resolution_of(m, 4)
        return all(ext(m, k, i).length() == tor_length(m, k, i)
                   == res.betti(i) for i in (1, 2, 3))
    s.run("Ext and Tor against k both give the Betti numbers", ext_tor_betti)

    def torsion_agreement():
        # the saturation module, the x-power path and the biduality kernel
        # share no computation
        prod = tensor(m, dual(m))
        t_sat, _ = torsion_submodule(prod, "saturation")
        return t_sat.length() == torsion_length(prod) == \
            biduality_map(prod).kernel_length() != 0
    s.run("torsion via saturation, powers of x and biduality agree "
          "(and detect torsion)", torsion_agreement)

    def tate_vs_tor():
        cr = complete_resolution(m, 2, window=3)
        md = dual(m)
        return all(tate_tor_length(cr, md, i) == tor_length(m, md, i)
                   for i in (1, 2, 3))
    s.run("Tate homology agrees with Tor above the Gorenstein dimension",
          tate_vs_tor)

    def grade_codim():
        k = quotient_module(cusp, [parse_polynomial(amb, "x"),
                                   parse_polynomial(amb, "y")])
        return grade(k) == cusp.dim - k.krull_dim() == 1
    s.run("grade equals codimension on a Cohen-Macaulay sample", grade_codim)

    def freeness_detector():
        return tor_length(m, transpose(m), 1) > 0 and \
            tor_length(free_module(cusp, (0,)),
                       transpose(free_module(cusp, (0,))), 1) == 0
    s.run("Tor_1(M, Tr M) detects freeness", freeness_detector)

    def theta_additive():
        three = define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                            ["x*w - y*z"], domain=True)
        a3 = three.ambient
        mm = quotient_module(three, [parse_polynomial(a3, "x"),
                                     parse_polynomial(a3, "y")])
        big = quotient_module(three, [parse_polynomial(a3, "x"),
                                      parse_polynomial(a3, "z")])
        if theta(big, mm).value != -1:
            return False
        f, g = random_short_exact_sequence(mm, rng)
        return theta_additivity_check(big, f, g)["additive"]
    s.run("theta reproduces -1 and is additive on a random sequence",
          theta_additive)

    if not quick:
        for name in catalog_names():
            spec = catalog(name)
            expected = spec.get("expected", {})
            report = run_job(spec, seed=seed)
            ok = all(t["status"] == "ok" for t in report.tasks) \
                and not report.anomaly
            ok = ok and _check_expected(spec, report, expected)
            s.check(f"catalog {name} reproduces its documented outputs", ok)

    print(f"{'OK' if s.failures == 0 else 'FAILED'}: "
          f"{s.failures} failing check(s)")
    return s.failures


def _check_expected(spec, report, expected):
    by_op = {}
    for t in report.tasks:
        by_op.setdefault(t["op"], []).append(t)
    ok = True
    if "tor_lengths_1_to_6" in expected:
        got = by_op["tor_lengths"][0]["result"]["lengths"]
        ok &= [got[str(i)] for i in range(1, 7)] == expected["tor_lengths_1_to_6"]
    if "theta" in expected:
        ok &= by_op["theta"][0]["result"]["value"] == expected["theta"]
    if "betti_0_to_8" in expected:
        ok &= by_op["betti"][0]["result"]["betti"][:9] == expected["betti_0_to_8"]
    if "periodicity" in expected:
        ok &= by_op["periodicity"][0]["result"]["period"] == \
            expected["periodicity"]["period"]
    if "iso_verdicts" in expected:
        got = [t["result"]["verdict"] for t in by_op["is_isomorphic"]]
        ok &= got == expected["iso_verdicts"]
    if "hw_verdict" in expected:
        ok &= by_op["hw_check"][0]["result"]["verdict"] == expected["hw_verdict"]
    if "torsion_length_at_least" in expected:
        ok &= by_op["hw_check"][0]["result"]["torsion_length"] >= \
            expected["torsion_length_at_least"]
    if "even_dim_verdict" in expected:
        ok &= by_op["even_dim_torsion_check"][0]["result"]["verdict"] == \
            expected["even_dim_verdict"]
    return ok
