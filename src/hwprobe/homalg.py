"""Derived functors and the rest of the homological toolkit.

Tor is the homology of (resolution of M) (x) N, Ext the cohomology of
Hom(resolution, N); both land in subquotients of free modules over R that
the syzygy engine presents.  Depth comes from Koszul homology on all ambient
variables, grade from the first nonvanishing Ext against the ring, torsion
from saturation (dimension one) or from the kernel of the biduality map.

Every (co)homology here, Tate (co)homology and the acyclicity check of a
complete resolution included, goes through one path.  A complex of free
modules is any object with ``ring``, ``twists_at(i)`` (the generator degrees
of C_i) and ``differential(i)`` (the columns of C_i -> C_{i-1}):
``Resolution``, ``CompleteResolution`` and ``KoszulComplex``.  Two builders
turn a complex C, a module N and an index i into cycle data
``(twists, Z, B)`` for H_i(C (x) N) (``tensor_cycle_data``) or
H^i(Hom(C, N)) (``hom_cycle_data``), or None when C_i or N is zero; the
finishers ``h_module``, ``h_length`` and ``h_is_zero`` turn that into a
module, a length or a vanishing test.
"""

from itertools import combinations

from .freemod import vec_component, vec_degree, vec_from_polys
from .groebner import express_in_terms, kernel_into_quotient, saturate
from .modules import (
    GradedMap,
    HypothesisError,
    PresentedModule,
    free_module,
    homology_length,
    subquotient,
    subquotient_is_zero,
    tensor,
)
from .resolution import resolution_of

# ---------------------------------------------------------------------------
# block matrices for (-) (x) N and Hom(-, N) on free complexes


def _tensor_block_cols(d_cols, g_n):
    """Columns of d (x) 1_N; source component (c, k) flattens to c*g_n + k."""
    out = []
    for col in d_cols:
        for k in range(g_n):
            out.append({(j * g_n + k, m): coef for (j, m), coef in col.items()})
    return out


def _free_tensor_rels(n_comps, n_module):
    g_n = n_module.ngens
    out = []
    for c in range(n_comps):
        for rel in n_module.rels:
            out.append({(c * g_n + k, m): coef for (k, m), coef in rel.items()})
    return out


def _tensor_twists(f_twists, n_module):
    return tuple(t + b for t in f_twists for b in n_module.twists)


def _hom_block_cols(d_cols, n_src_comps, g_n):
    """Columns of Hom(d, N): precomposition with d, acting on blocks."""
    out = []
    for c in range(n_src_comps):
        for k in range(g_n):
            col = {}
            for cp, dcol in enumerate(d_cols):
                for (j, m), coef in dcol.items():
                    if j == c:
                        col[(cp * g_n + k, m)] = coef
            out.append(col)
    return out


def _hom_twists(f_twists, n_module):
    return tuple(b - t for t in f_twists for b in n_module.twists)


# ---------------------------------------------------------------------------
# (co)homology of a free complex against a module


def tensor_cycle_data(cx, n, i):
    """Cycle data of H_i(C (x) N) inside C_i (x) N, or None if C_i or N is 0.

    Z is the kernel of d_i (x) 1 modulo the relations of C_{i-1} (x) N; B is
    the image of d_{i+1} (x) 1 plus the relations of C_i (x) N.
    """
    if cx.ring != n.ring:
        raise HypothesisError("homology over different rings")
    f_i = cx.twists_at(i)
    if not f_i or n.is_zero():
        return None
    f_prev = cx.twists_at(i - 1)
    g_n = n.ngens
    z = kernel_into_quotient(
        n.ring, _tensor_block_cols(cx.differential(i), g_n),
        _free_tensor_rels(len(f_prev), n), _tensor_twists(f_prev, n))
    b = (_tensor_block_cols(cx.differential(i + 1), g_n)
         + _free_tensor_rels(len(f_i), n))
    return _tensor_twists(f_i, n), z, b


def hom_cycle_data(cx, n, i):
    """Cycle data of H^i(Hom(C, N)) in Hom(C_i, N), or None if C_i or N is 0.

    Z is the kernel of Hom(d_{i+1}, N) modulo the relations of
    Hom(C_{i+1}, N); B is the image of Hom(d_i, N) plus the relations of
    Hom(C_i, N).
    """
    if cx.ring != n.ring:
        raise HypothesisError("cohomology over different rings")
    f_i = cx.twists_at(i)
    if not f_i or n.is_zero():
        return None
    f_next = cx.twists_at(i + 1)
    g_n = n.ngens
    z = kernel_into_quotient(
        n.ring, _hom_block_cols(cx.differential(i + 1), len(f_i), g_n),
        _free_tensor_rels(len(f_next), n), _hom_twists(f_next, n))
    b = (_hom_block_cols(cx.differential(i), len(cx.twists_at(i - 1)), g_n)
         + _free_tensor_rels(len(f_i), n))
    return _hom_twists(f_i, n), z, b


def h_module(ring, data):
    """The (co)homology module Z/B of a builder's cycle data."""
    if data is None:
        return PresentedModule(ring, (), ())
    mod, _ = subquotient(ring, *data)
    return mod


def h_length(ring, data):
    """Length of Z/B from a builder's cycle data; None when infinite."""
    return 0 if data is None else homology_length(ring, *data)


def h_is_zero(ring, data):
    """Whether Z/B from a builder's cycle data vanishes."""
    return data is None or subquotient_is_zero(ring, *data)


# ---------------------------------------------------------------------------
# Tor


def tor(m, n, i):
    """Tor_i(M, N) as a presented module; Tor_0 is the tensor product."""
    if i < 0:
        raise ValueError("Tor is indexed by nonnegative integers")
    if i == 0:
        return tensor(m, n)
    return h_module(m.ring, tensor_cycle_data(resolution_of(m, i + 1), n, i))


def tor_length(m, n, i):
    """Length of Tor_i(M, N); None when it has positive dimension."""
    if i == 0:
        return tensor(m, n).length()
    return h_length(m.ring, tensor_cycle_data(resolution_of(m, i + 1), n, i))


def tor_is_zero(m, n, i):
    if i == 0:
        return tensor(m, n).is_zero()
    return h_is_zero(m.ring, tensor_cycle_data(resolution_of(m, i + 1), n, i))


# ---------------------------------------------------------------------------
# Hom and Ext


class HomData:
    """Hom(M, N) with its generators realized as maps M -> N."""

    def __init__(self, module, gen_maps, free_twists, kept, b_gens):
        self.module = module
        self.gen_maps = gen_maps
        self.free_twists = free_twists
        self.kept = kept
        self.b_gens = b_gens


def hom_data(m, n) -> HomData:
    """Hom(M, N) as H^0 of Hom(F, N) for the presentation F_1 -> F_0 of M."""
    ring = m.ring
    if m.ring != n.ring:
        raise HypothesisError("Hom over different rings")
    data = hom_cycle_data(resolution_of(m, 1), n, 0)
    if data is None:
        return HomData(PresentedModule(ring, (), ()), [], (), [], [])
    free_twists, z, b = data
    g_n = n.ngens
    mod, kept = subquotient(ring, free_twists, z, b)
    amb = ring.ambient
    maps = []
    for v in kept:
        shift = vec_degree(amb, v, free_twists)
        cols = []
        for j in range(m.ngens):
            col = {}
            for (c, mm), coef in v.items():
                if c // g_n == j:
                    col[(c % g_n, mm)] = coef
            cols.append(col)
        maps.append(GradedMap(m, n, cols, shift=shift))
    return HomData(mod, maps, free_twists, kept, b)


def hom(m, n):
    """Hom_R(M, N) as a presented module."""
    return hom_data(m, n).module


def dual(m):
    """M* = Hom(M, R)."""
    return hom(m, free_module(m.ring, (0,)))


def ext(m, n, i):
    """Ext^i(M, N) as a presented module; Ext^0 is Hom."""
    if i < 0:
        raise ValueError("Ext is indexed by nonnegative integers")
    return h_module(m.ring, hom_cycle_data(resolution_of(m, i + 1), n, i))


def ext_is_zero(m, n, i):
    return h_is_zero(m.ring, hom_cycle_data(resolution_of(m, i + 1), n, i))


# ---------------------------------------------------------------------------
# transpose


def transpose(m):
    """Auslander transpose: cokernel of the dual of the minimal presentation."""
    twists = tuple(-e for e in m.rel_degrees())
    cols = [vec_from_polys(vec_component(rel, j) for rel in m.rels)
            for j in range(m.ngens)]
    return PresentedModule(m.ring, twists, cols)


# ---------------------------------------------------------------------------
# Koszul depth


class KoszulComplex:
    """The Koszul complex on all ambient variables, a complex of free modules.

    K_j (j >= 0) has one generator per j-subset of the variables, of the
    subset's weighted degree, so K_j is empty for j > n.
    """

    def __init__(self, ring):
        self.ring = ring

    def twists_at(self, j):
        w = self.ring.ambient.weights
        return tuple(sum(w[i] for i in s)
                     for s in combinations(range(self.ring.ambient.nvars), j))

    def differential(self, j):
        """Columns of K_j -> K_{j-1}."""
        amb = self.ring.ambient
        n = amb.nvars
        p = amb.p
        prev = list(combinations(range(n), j - 1))
        idx = {s: i for i, s in enumerate(prev)}
        cols = []
        for s in combinations(range(n), j):
            col = {}
            for pos, v in enumerate(s):
                rest = s[:pos] + s[pos + 1:]
                mono = [0] * n
                mono[v] = 1
                col[(idx[rest], tuple(mono))] = 1 if pos % 2 == 0 else p - 1
            cols.append(col)
        return cols


def depth(m):
    """Depth over the irrelevant maximal ideal via Koszul homology.

    depth M = n - max{i : H_i(K(x_1..x_n) (x) M) != 0} for the Koszul complex
    on all ambient variables; this agrees with depth over R.
    """
    if m.is_zero():
        raise HypothesisError("depth of the zero module is undefined")
    n = m.ring.ambient.nvars
    koszul = KoszulComplex(m.ring)
    for i in range(n, 0, -1):
        if not h_is_zero(m.ring, tensor_cycle_data(koszul, m, i)):
            return n - i
    return n


def grade(m):
    """Least i with Ext^i(M, R) nonzero."""
    if m.is_zero():
        raise HypothesisError("grade of the zero module is undefined")
    r_free = free_module(m.ring, (0,))
    bound = max(m.ring.dim, m.ring.ambient.nvars)
    for i in range(bound + 1):
        if not ext_is_zero(m, r_free, i):
            return i
    raise ArithmeticError("no nonvanishing Ext against R found; "
                          "grade exceeds the ambient bound")


# ---------------------------------------------------------------------------
# torsion and biduality


def biduality_map(m) -> GradedMap:
    """The natural map M -> M**."""
    ring = m.ring
    r1 = free_module(ring, (0,))
    hd1 = hom_data(m, r1)
    hd2 = hom_data(hd1.module, r1)
    if m.ngens == 0:
        return GradedMap(m, hd2.module, [])
    cols = []
    for j in range(m.ngens):
        ev = vec_from_polys(vec_component(phi.cols[j], 0)
                            for phi in hd1.gen_maps)
        if not ev:
            cols.append({})
            continue
        coords = express_in_terms(ring, ev, hd2.kept, hd2.b_gens,
                                  hd2.free_twists)
        if coords is None:
            raise ArithmeticError("biduality image failed to land in Hom(M*, R)")
        cols.append(vec_from_polys(coords))
    return GradedMap(m, hd2.module, cols)


def torsion_submodule(m, method="auto"):
    """The torsion submodule with its embedding into M.

    Over a one-dimensional ring this is 0 :_M m^infinity computed by
    saturation; in general (over an asserted domain) it is the kernel of the
    biduality map.  Returns ``(T, iota)``.
    """
    ring = m.ring
    if not ring.domain:
        raise HypothesisError("torsion needs the ring asserted to be a domain")
    if m.is_zero():
        z = PresentedModule(ring, (), ())
        return z, GradedMap(z, m, [])
    if method == "auto":
        method = "saturation" if ring.dim == 1 else "biduality"
    if method == "saturation":
        if ring.dim != 1:
            raise HypothesisError("saturation torsion is the dimension-one path")
        sat_cols, _ = saturate(ring, list(m.rels), m.twists, ring.variables())
        t, kept = subquotient(ring, m.twists, sat_cols, list(m.rels))
        return t, GradedMap(t, m, kept)
    if method == "biduality":
        eta = biduality_map(m)
        return eta.kernel()
    raise ValueError(f"unknown torsion method {method!r}")
