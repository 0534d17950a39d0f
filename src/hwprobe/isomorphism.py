"""Graded isomorphism testing with certificates.

Graded Nakayama reduces the search to linear algebra: a degree-zero map
phi: M -> N between modules with equal Hilbert series is an isomorphism iff
its matrix of unit-monomial coefficients on minimal generators ("bar matrix")
is invertible.  The twist is pinned by the Hilbert series, the space of
degree-zero maps is a finite-dimensional nullspace, and invertibility is
decided by exhausting the projective space of bar matrices when that is
affordable, otherwise by seeded random sampling (UNDECIDED when the budget
runs out without a witness).
"""

import random
from itertools import product
from operator import neg
from types import SimpleNamespace

from .freemod import row_insert, sum_rows
from .hilbert import std_monomials_of_degree
from .modules import GradedMap, PresentedModule
from .ring import isub

ISO = "ISO"
NOT_ISO = "NOT_ISO"
UNDECIDED = "UNDECIDED"

_EXHAUST_LIMIT = 200_000  # largest bar space searched exhaustively


class IsoResult(SimpleNamespace):
    def __init__(self, verdict, twist=0, certificate=None, invariant=None,
                 detail=None):
        super().__init__(verdict=verdict, twist=twist, certificate=certificate,
                         invariant=invariant,
                         detail={} if detail is None else detail)

    def __bool__(self):
        return self.verdict == ISO


def _nullspace(rows, ncols, p):
    """Basis of the nullspace of a sparse F_p matrix given as dict rows.

    Rows are echelonized with their smallest column as the pivot.
    """
    pivots = {}
    for row in rows:
        row_insert(dict(row), pivots, neg, p)
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    piv_cols = sorted(pivots, reverse=True)
    for fc in free_cols:
        vec = {fc: 1}
        for c in piv_cols:
            s = 0
            for cc, vv in pivots[c].items():
                if cc != c and cc in vec:
                    s = (s + vv * vec[cc]) % p
            if s:
                vec[c] = (-s) % p
        basis.append(vec)
    return basis


def degree_zero_homs(m: PresentedModule, n: PresentedModule):
    """A basis of Hom(M, N)_0 as a list of generator-image column tuples.

    Each basis element is a tuple of columns (one per M-generator) in N's
    generator coordinates, homogeneous of degree zero.
    """
    ring = m.ring
    amb = ring.ambient
    p = amb.p
    init_n = n.rel_gb().initial_module()
    unknowns = []  # (j, (k, mono))
    for j, a in enumerate(m.twists):
        for k, b in enumerate(n.twists):
            e = a - b
            if e < 0:
                continue
            for mono in std_monomials_of_degree(amb, init_n.get(k, ()), e):
                unknowns.append((j, (k, mono)))
    rows = []
    for rel in m.rels:
        row_acc = {}  # N coordinate term -> {unknown index: coefficient}
        for u_idx, (j, (k, mono)) in enumerate(unknowns):
            # the unknown sends generator j to x^mono e_k: the image of rel
            # is x^mono * rel_j * e_k, summed from N's table
            rel_jk = {(k, t): c for (jj, t), c in rel.items() if jj == j}
            img = sum_rows(p, n.term_nf, rel_jk, mono)
            for t, c in img.items():
                row_acc.setdefault(t, {})[u_idx] = c
        rows.extend(row_acc.values())
    basis = _nullspace(rows, len(unknowns), p)
    out = []
    for vec in basis:
        cols = [dict() for _ in range(m.ngens)]
        for u_idx, c in vec.items():
            j, (k, mono) = unknowns[u_idx]
            cols[j][(k, mono)] = c
        out.append(tuple(cols))
    return out


def _bar_matrix(m, n, cols):
    """Unit-monomial coefficients on generators; entry (k, j) when degrees agree."""
    zero = m.ring.ambient.zero_mono
    g = m.ngens
    bar = [[0] * g for _ in range(n.ngens)]
    for j in range(g):
        for (k, mono), c in cols[j].items():
            if mono == zero:
                bar[k][j] = c
    return bar


def is_isomorphic(m: PresentedModule, n: PresentedModule, allow_twist=False,
                  sample_budget=500, seed=0) -> IsoResult:
    """Three-valued graded isomorphism test.

    ISO comes with an invertible generator-level certificate; NOT_ISO with a
    distinguishing invariant or an exhausted search; UNDECIDED only when the
    bar-matrix space is too large to exhaust and sampling found no witness.
    """
    if m.ring != n.ring:
        raise ValueError("isomorphism test over different rings")
    p = m.ring.ambient.p
    if m.is_zero() and n.is_zero():
        return IsoResult(ISO, 0, GradedMap(m, n, []), detail={"note": "both zero"})
    if m.is_zero() != n.is_zero():
        return IsoResult(NOT_ISO, invariant="hilbert function")
    s = (min(n.twists) - min(m.twists)) if allow_twist else 0
    ms = m.twist(-s) if s else m
    num_m = ms.hilbert_numerator()
    num_n = n.hilbert_numerator()
    if num_m != num_n:
        return IsoResult(NOT_ISO, twist=s, invariant="hilbert function",
                         detail={"twist_tried": s})
    if sorted(ms.twists) != sorted(n.twists):
        return IsoResult(NOT_ISO, twist=s, invariant="generator degrees",
                         detail={"source": sorted(ms.twists),
                                 "target": sorted(n.twists)})
    homs = degree_zero_homs(ms, n)
    bars = []
    for cols in homs:
        bar = _bar_matrix(ms, n, cols)
        if any(any(row) for row in bar):
            bars.append((bar, cols))
    # independent bar matrices only
    g = ms.ngens
    pivots = {}
    indep = []
    for bar, cols in bars:
        row = {i * g + j: bar[i][j] for i in range(n.ngens)
               for j in range(g) if bar[i][j]}
        if row_insert(row, pivots, neg, p) is not None:
            indep.append((bar, cols))
    dim_w = len(indep)
    if dim_w == 0:
        return IsoResult(NOT_ISO, twist=s,
                         invariant="no degree-zero map hits the generators",
                         detail={"hom0_dim": len(homs)})

    def combo_cols(coeffs):
        cols = [dict() for _ in range(g)]
        for c, (_bar, hcols) in zip(coeffs, indep):
            if not c:
                continue
            for j in range(g):
                isub(cols[j], hcols[j], -c, p)
        return cols

    def invertible(coeffs):
        # the combined bar matrix is invertible iff all g of its rows insert
        pivots = {}
        for i in range(g):
            row = [sum(c * b[i][j] for c, (b, _cols) in zip(coeffs, indep)) % p
                   for j in range(g)]
            if row_insert({j: x for j, x in enumerate(row) if x},
                          pivots, neg, p) is None:
                return False
        return True

    def certify(coeffs):
        cert = GradedMap(ms, n, combo_cols(coeffs))
        if not cert.check():
            raise AssertionError("isomorphism certificate failed verification")
        return IsoResult(ISO, twist=s, certificate=cert,
                         detail={"hom0_dim": len(homs), "bar_dim": dim_w})

    count = (p ** dim_w - 1) // (p - 1)
    if count <= _EXHAUST_LIMIT:
        for lead in range(dim_w):
            base = (0,) * lead + (1,)
            for tail in product(range(p), repeat=dim_w - lead - 1):
                coeffs = base + tail
                if invertible(coeffs):
                    return certify(coeffs)
        return IsoResult(NOT_ISO, twist=s, invariant="exhausted bar space",
                         detail={"bar_dim": dim_w, "tested": count})
    rng = random.Random(seed)
    for _ in range(sample_budget):
        coeffs = tuple(rng.randrange(p) for _ in range(dim_w))
        if any(coeffs) and invertible(coeffs):
            return certify(coeffs)
    return IsoResult(UNDECIDED, twist=s,
                     detail={"bar_dim": dim_w, "sampled": sample_budget})
