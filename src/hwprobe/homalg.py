"""Derived functors and the rest of the homological toolkit.

Tor is the homology of (resolution of M) (x) N, Ext the cohomology of
Hom(resolution, N); both land in subquotients of free modules over R that
the syzygy engine presents.  Depth comes from Koszul homology on all ambient
variables, grade from the first nonvanishing Ext against the ring, torsion
from saturation by one variable (dimension one) or from the kernel of the
biduality map.  Its length in dimension one also comes from Hilbert
numerators alone, by ``torsion_length``'s powers of that variable.

Every (co)homology here, Tate (co)homology and the acyclicity check of a
complete resolution included, goes through one path.  A complex of free
modules is any object with ``ring``, ``twists_at(i)`` (the generator degrees
of C_i) and ``differential(i)`` (the columns of C_i -> C_{i-1}):
``Resolution``, ``CompleteResolution``, ``KoszulComplex`` and
``DualComplex``.  Only homology H_i(C (x) N) is computed: ``tensor_maps``
gives the maps into and out of position i as block matrices over N.
Hom(F, N) = F* (x) N for F free, so H^i(Hom(C, N)) is H_{-i} of the dual
complex ``DualComplex(C)``, with negated twists and the differentials
transposed by ``freemod.transpose_cols``; Ext, Hom, biduality, Tate
cohomology and the dual half of total acyclicity all read it there.

Lengths and vanishing here, like exactness in ``modules`` and ``theta``,
come from sizes alone: B (the incoming image plus the middle's relations)
lies in the cycles Z, since d o d = 0, so Mid/Z is the image of the
outgoing map in the target Tgt, and ``length_at`` reads

    len H_i = len(Mid/B) + len(Tgt/im out) - len(Tgt).

Over an Artinian ring the terms are dimensions less F_p-ranks in the frame
of ``modules.Blocks``, whose ``mul_nf`` sums rows of N's table
``PresentedModule.term_nf``; otherwise they are Hilbert numerators, and
only their sum goes to ``series_total_if_finite``.  A rank is the dimension
of the submodule the block columns span, grown degree by degree by the
strand test's loop, ``groebner.minimal_by_degree``; a degree stops once it
fills the target, and once max(w) degrees in a row are full at or above the
target's top twist, the rest comes from the target's sizes.
The lengths at i and at i + 1 read the same differential, so each rank,
and in positive dimension each numerator, is computed once per
differential, by ``_diff_rank`` and ``_diff_numerator``, memoized on N with
the complex in its key: memos point from a module to a complex, never back,
so no cycle keeps a ring alive.

Only ``module_at`` builds cycles, choosing the method from ``ring.dim``.

* Over an Artinian ring the module at i is built degree by degree by
  ``Blocks.minimal_kernel``, the routine of the resolution's strand step:
  its generators are the cycles independent of the boundaries and of the
  lower cycles times the variables, its relations the minimal kernel of the
  free module on them into the middle modulo the boundaries.  This
  presentation is minimal by construction; no Groebner basis is built.
* Over dim > 0, ``_cycle_data`` turns the maps into cycle data
  ``(twists, Z, B)``, or None when C_i or N is zero, which ``subquotient``
  finishes with Groebner bases.

Hom is Ext^0 and takes the same route; ``biduality_map`` reads the
generators of M* and M** that ``module_at`` returns with each module.
"""

from itertools import combinations

from . import hilbert as hb
from .freemod import pack_mono, pack_vec, transpose_cols
from .groebner import express_in_terms, kernel_into_quotient, saturate
from .hilbert import std_monomials
from .modules import (
    Blocks,
    GradedMap,
    HypothesisError,
    PresentedModule,
    _free_tensor_rels,
    _tensor_block_cols,
    _tensor_twists,
    free_module,
    ring_blocks,
    subquotient,
    submodule_numerator,
    tensor,
)
from .resolution import resolution_of
from .ring import memoized

# The largest power x^k of the variable that ``torsion_length`` tries.
_X_POWER_LIMIT = 64

# ---------------------------------------------------------------------------
# (co)homology of a free complex against a module


class DualComplex:
    """The dual C* = Hom(C, R) of a complex C of free modules.

    (C*)_j = (C_{-j})* with negated twists, and d_j: (C*)_j -> (C*)_{j-1}
    is the transpose of d_{1-j}: C_{1-j} -> C_{-j}.  Hom(F, N) = F* (x) N
    for F free, so H^i(Hom(C, N)) is H_{-i}(C* (x) N).  Equality and hash
    come from the identity of C, so the duals built for one C share the
    memo entries keyed by the complex.
    """

    def __init__(self, cx):
        self.cx = cx
        self.ring = cx.ring

    def __eq__(self, other):
        return isinstance(other, DualComplex) and other.cx is self.cx

    def __hash__(self):
        return id(self.cx)

    def twists_at(self, j):
        return tuple(-t for t in self.cx.twists_at(-j))

    def differential(self, j):
        return transpose_cols(self.cx.differential(1 - j),
                              len(self.cx.twists_at(-j)))


def tensor_maps(cx, n, i):
    """C (x) N around position i, or None if C_i or N is zero.

    Returns ``(F_i, F_{i-1}, d_i (x) 1, d_{i+1} (x) 1)``: the generator
    degrees of C_i and of the target of the outgoing map, and the block
    columns of the outgoing and the incoming map.
    """
    if cx.ring != n.ring:
        raise HypothesisError("homology over different rings")
    f_i = cx.twists_at(i)
    if not f_i or n.is_zero():
        return None
    g_n = n.ngens
    return (f_i, cx.twists_at(i - 1),
            _tensor_block_cols(cx.differential(i), g_n),
            _tensor_block_cols(cx.differential(i + 1), g_n))


def _cycle_data(n, maps):
    """``(twists, Z, B)``: Z is the kernel of the outgoing map modulo the
    relations of its target, B the image of the incoming map plus the
    relations of the middle module."""
    if maps is None:
        return None
    f_i, f_out, outgoing, incoming = maps
    z = kernel_into_quotient(n.ring, outgoing, _free_tensor_rels(len(f_out), n),
                             _tensor_twists(f_out, n))
    return _tensor_twists(f_i, n), z, incoming + _free_tensor_rels(len(f_i), n)


def module_at(cx, n, i):
    """H_i(C (x) N) with its generators; H^i(Hom(C, N)) is
    ``module_at(DualComplex(C), N, -i)``.

    Returns ``(module, vectors)``: vector j lies in the middle module
    C_i (x) N, in the block layout of ``tensor_maps``, and represents
    generator j.  Over an Artinian ring, F_p linear algebra degree by
    degree; otherwise cycle data finished with Groebner bases.
    """
    maps = tensor_maps(cx, n, i)
    if cx.ring.dim == 0:
        return _strand_module(n, maps)
    data = _cycle_data(n, maps)
    if data is None:
        return PresentedModule(cx.ring, (), ()), []
    return subquotient(cx.ring, *data)


def length_at(cx, n, i):
    """Length of H_i(C (x) N); None when infinite, so it vanishes iff
    ``length_at(...) == 0``.

    len(Mid/B) + len(Tgt/im out) - len(Tgt), where Mid and Tgt are one copy
    of N per generator of C_i and of C_{i-1}.  Over an Artinian ring that is
    dim(C_i (x) N) - R(i) - R(i + 1), R(j) the rank of d_j (x) 1_N from
    ``_diff_rank``; otherwise the two quotients are the numerators of
    d_{i + 1} and d_i from ``_diff_numerator``.
    """
    if cx.ring != n.ring:
        raise HypothesisError("homology over different rings")
    f_i = cx.twists_at(i)
    if not f_i or n.is_zero():
        return 0
    ring = n.ring
    if ring.dim == 0:
        return (_module_blocks(n).dim(len(f_i) * n.ngens)
                - _diff_rank(n, cx, i) - _diff_rank(n, cx, i + 1))
    numer = hb.tpoly_add(_diff_numerator(n, cx, i + 1),
                         _diff_numerator(n, cx, i))
    copy = n.hilbert_numerator()
    for a in cx.twists_at(i - 1):
        numer = hb.tpoly_sub(numer, hb.tpoly_shift(copy, a))
    return hb.series_total_if_finite(ring.ambient, numer)


@memoized
def _diff_rank(n, cx, j):
    """F_p-rank of d_j (x) 1_N over an Artinian ring: the length at i and at
    i + 1 share it."""
    return _module_blocks(n).rank(
        _tensor_block_cols(cx.differential(j), n.ngens),
        _tensor_twists(cx.twists_at(j - 1), n))


@memoized
def _diff_numerator(n, cx, j):
    """Hilbert numerator of Tgt/(im(d_j (x) 1_N) + relations), Tgt the
    copies of N on C_{j-1}: the length at i and at i + 1 share it, memoized
    like ``_diff_rank``."""
    target = cx.twists_at(j - 1)
    return submodule_numerator(
        n.ring, _tensor_twists(target, n),
        _tensor_block_cols(cx.differential(j), n.ngens)
        + _free_tensor_rels(len(target), n))


def _strand_module(n, maps):
    """Z/B over an Artinian ring, minimally presented degree by degree.

    B is the image of the incoming map.  The generators are the vectors of
    the kernel Z of the outgoing map that are independent of
    B + sum_x x * Z in their degree; the relations are the minimal kernel of
    the free module on them into (middle)/B.  Both stay packed until they
    leave the frame.
    """
    ring = n.ring
    if maps is None:
        return PresentedModule(ring, (), ()), []
    f_i, f_out, outgoing, incoming = maps
    middle = _tensor_twists(f_i, n)
    blocks = _module_blocks(n)
    free = ring_blocks(ring)
    b = blocks.image(incoming, middle)
    gens, gen_twists = blocks.minimal_kernel(
        middle, [pack_vec(c) for c in outgoing], blocks,
        _tensor_twists(f_out, n), source_mod=b)
    rels, _ = free.minimal_kernel(gen_twists, gens, blocks, middle,
                                  target_mod=b)
    return (PresentedModule(ring, gen_twists, free.unpack(rels),
                            normalize=False), blocks.unpack(gens))


def _module_blocks(n):
    """Sums of copies of N: per component k, the standard monomials of its
    initial module; the rows of N's table ``n.term_nf``, packed."""
    return Blocks(n.ring, n, _module_std(n))


@memoized
def _module_std(n):
    init = n.rel_gb().initial_module()
    return [[tuple(map(pack_mono, ms))
             for ms in std_monomials(n.ring.ambient, init.get(k, ()))]
            for k in range(n.ngens)]


# ---------------------------------------------------------------------------
# Tor


def _check_index(name, i):
    if i < 0:
        raise ValueError(f"{name} is indexed by nonnegative integers")


def tor(m, n, i):
    """Tor_i(M, N) as a presented module; Tor_0 is the tensor product."""
    _check_index("Tor", i)
    if i == 0:
        return tensor(m, n)
    return module_at(resolution_of(m, i + 1), n, i)[0]


def tor_length(m, n, i):
    """Length of Tor_i(M, N); None when it has positive dimension."""
    _check_index("Tor", i)
    if i == 0:
        return tensor(m, n).length()
    return length_at(resolution_of(m, i + 1), n, i)


def tor_is_zero(m, n, i):
    return tor_length(m, n, i) == 0


# ---------------------------------------------------------------------------
# Hom and Ext


def ext(m, n, i):
    """Ext^i(M, N) as a presented module; Ext^0 is Hom."""
    _check_index("Ext", i)
    return module_at(DualComplex(resolution_of(m, i + 1)), n, -i)[0]


def hom(m, n):
    """Hom_R(M, N) = Ext^0(M, N) as a presented module."""
    return ext(m, n, 0)


@memoized
def dual(m):
    """M* = Hom(M, R), memoized on M."""
    return hom(m, free_module(m.ring, (0,)))


def ext_is_zero(m, n, i):
    _check_index("Ext", i)
    return length_at(DualComplex(resolution_of(m, i + 1)), n, -i) == 0


# ---------------------------------------------------------------------------
# transpose


def transpose(m):
    """Auslander transpose: cokernel of the dual of the minimal presentation."""
    twists = tuple(-e for e in m.rel_degrees())
    return PresentedModule(m.ring, twists, transpose_cols(m.rels, m.ngens))


# ---------------------------------------------------------------------------
# Koszul depth


class KoszulComplex:
    """The Koszul complex on all ambient variables, a complex of free modules.

    K_j (j >= 0) has one generator per j-subset of the variables, of the
    subset's weighted degree, so K_j is empty for j > n and for j < 0.
    """

    def __init__(self, ring):
        self.ring = ring

    def twists_at(self, j):
        if j < 0:
            return ()
        w = self.ring.ambient.weights
        return tuple(sum(w[i] for i in s)
                     for s in combinations(range(self.ring.ambient.nvars), j))

    def differential(self, j):
        """Columns of K_j -> K_{j-1}; d_0 is the zero map K_0 -> 0."""
        if j <= 0:
            return [{} for _ in self.twists_at(j)]
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
        if length_at(koszul, m, i) != 0:
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
    """The natural map M -> M**.

    A generator phi of M* = Hom(M, R) is a vector with component j the
    image of generator j of M.  Generator j of M goes to evaluation at it,
    the vector (phi(e_j))_phi in Hom(F, R) for F free on the generators of
    M*, written in terms of the generators of M**; R has no relations, so
    nothing is taken modulo.
    """
    ring = m.ring
    r1 = free_module(ring, (0,))
    md, phis = module_at(DualComplex(resolution_of(m, 1)), r1, 0)
    mdd, evs = module_at(DualComplex(resolution_of(md, 1)), r1, 0)
    cols = express_in_terms(ring, transpose_cols(phis, m.ngens), evs, [],
                            tuple(-t for t in md.twists))
    if None in cols:
        raise ArithmeticError("biduality image failed to land in Hom(M*, R)")
    return GradedMap(m, mdd, cols)


def torsion_submodule(m, method="auto"):
    """The torsion submodule with its embedding into M.

    Over a one-dimensional domain this is 0 :_M x^infinity for one variable
    x that is nonzero in R, computed by saturation: x is regular on the
    torsion-free M/T, and T has finite length, so a power of x kills it.
    In general (over an asserted domain) it is the kernel of the biduality
    map.  Returns ``(T, iota)``.
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
        x = ring.ambient.var(_regular_variable(ring))
        sat_cols, _ = saturate(ring, list(m.rels), m.twists, [x], m.rel_gb())
        t, kept = subquotient(ring, m.twists, sat_cols, list(m.rels),
                              m.rel_gb())
        return t, GradedMap(t, m, kept)
    if method == "biduality":
        eta = biduality_map(m)
        return eta.kernel()
    raise ValueError(f"unknown torsion method {method!r}")


def _regular_variable(ring):
    """Index of the first variable nonzero in R: over a domain it is regular,
    and both dimension-one torsion paths take it as x."""
    return next(i for i, v in enumerate(ring.variables()) if ring.nf(v))


def torsion_length(m):
    """Length of the torsion submodule T of M over a one-dimensional
    asserted domain, from Hilbert numerators alone: no kernel, colon or lift.

    For x the variable of the saturation path, of degree w, the sequence
    0 -> (0 :_M x^k)(-kw) -> M(-kw) -> M -> M/x^kM -> 0 gives

        t^(kw) HS(0 :_M x^k) = HS(M/x^kM) - (1 - t^(kw)) HS(M),

    and M/x^kM = F/(rels + x^k F) takes one untracked Groebner run.  The
    submodules 0 :_M x^k grow with k from 0 :_M 1 = 0 and stay put once two
    consecutive lengths agree; then they are T, since x is regular on M/T
    and T, of finite length, is killed by a power of x.  Raises
    ArithmeticError on an infinite length, or with no agreement by
    k = ``_X_POWER_LIMIT``.
    """
    ring = m.ring
    if not ring.domain:
        raise HypothesisError("torsion needs the ring asserted to be a domain")
    if ring.dim != 1:
        raise HypothesisError("the x-power torsion length is the "
                              "dimension-one path")
    amb = ring.ambient
    i = _regular_variable(ring)
    hs = m.hilbert_numerator()
    last = 0
    for k in range(1, _X_POWER_LIMIT + 1):
        xk = tuple(k if v == i else 0 for v in range(amb.nvars))
        quot = submodule_numerator(ring, m.twists, list(m.rels) + [
            {(j, xk): 1} for j in range(m.ngens)])
        length = hb.series_total_if_finite(amb, hb.tpoly_add(
            hb.tpoly_sub(quot, hs), hb.tpoly_shift(hs, k * amb.weights[i])))
        if length is None:
            raise ArithmeticError(f"0 :_M x^{k} has infinite length")
        if length == last:
            return length
        last = length
    raise ArithmeticError("0 :_M x^k did not stabilize by "
                          f"k = {_X_POWER_LIMIT}")
