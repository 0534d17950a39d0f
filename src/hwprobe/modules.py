"""Finitely presented graded modules over quotient rings.

A :class:`PresentedModule` is a graded free module (a tuple of generator
degrees) together with a homogeneous relation matrix stored column-wise;
the module is the cokernel.  Construction normalizes: relations are reduced
mod I, degree-zero unit entries are cancelled, and the relation columns are
cut down to a minimal generating set, so stored presentations are minimal.

Homogeneous maps between presented modules are :class:`GradedMap`; kernels,
cokernels and subquotients reduce to syzygy computations over the ambient
polynomial ring.

Over an Artinian ring every graded piece is a finite F_p-space, and
:class:`Blocks` is the one frame for linear algebra on them: ranks, images
and minimal kernels degree by degree, shared by the resolution's strand
step, the (co)homology modules of ``homalg`` and ``PresentedModule.length``.

The column layout of M (x) N has one home here: ``tensor`` and the
(co)homology maps of ``homalg`` both build on ``_tensor_block_cols`` and
``_free_tensor_rels``; the Hom side is that layout on the transposed
differentials of ``homalg.DualComplex``.
"""

from collections import defaultdict
from functools import partial

from . import hilbert as hb
from .freemod import (
    isub_shifted,
    matvec,
    pack_mono,
    pack_vec,
    row_insert,
    unpack_mono,
    vec_component,
    vec_degree,
)
from .groebner import (
    InhomogeneousError,
    groebner_basis,
    kernel_into_quotient,
    minimal_by_degree,
    minimal_generators,
    minimalize_presentation,
    poly_det,
    vec_nf_ideal,
)
from .ring import FIELD_BITS, int_tuple, memoized


class HypothesisError(ValueError):
    """A mathematical precondition of the operation is violated."""


class PresentedModule:
    """M = coker(P) for a homogeneous matrix P over a quotient ring; with
    ``normalize=False`` the relations, which every such caller passes
    reduced mod I, are only checked for homogeneity and components."""

    def __init__(self, ring, twists, rel_cols, *, normalize=True):
        self.ring = ring
        twists = int_tuple(twists, "twists")
        if normalize:
            rel_cols = [vec_nf_ideal(ring, c) for c in rel_cols]
        cols = [c for c in rel_cols if c]
        for c in cols:
            if vec_degree(ring.ambient, c, twists) is None:
                raise InhomogeneousError("relation columns must be homogeneous")
            if any(comp >= len(twists) for comp, _ in c):
                raise ValueError("relation component exceeds generator count")
        if normalize:
            cols, twists, _ = minimalize_presentation(ring, cols, twists)
            cols = minimal_generators(ring, cols, twists)
        self.twists = tuple(twists)
        self.rels = tuple(cols)

    # -- basics --------------------------------------------------------------

    @property
    def ngens(self):
        return len(self.twists)

    def rel_degrees(self):
        amb = self.ring.ambient
        return tuple(vec_degree(amb, c, self.twists) for c in self.rels)

    def is_zero(self):
        return self.ngens == 0

    def is_free(self):
        return not self.rels

    def __repr__(self):
        return (f"PresentedModule({self.ring!r}, gens={list(self.twists)}, "
                f"rels={len(self.rels)})")

    @memoized
    def rel_gb(self):
        """Groebner basis of <relations> + I*F, for membership over R."""
        return groebner_basis(self.ring, self.rels, self.twists)

    def element_nf(self, v):
        """Canonical representative of a coset of the relation submodule."""
        return self.rel_gb().normal_form(v)

    @memoized
    def term_nf(self, k, t):
        """NF(x^t * e_k) modulo the relations: a row of the module's table."""
        return self.rel_gb().normal_form({(k, t): 1})

    # -- Hilbert data ----------------------------------------------------------

    @memoized
    def hilbert_numerator(self):
        return hb.module_numerator(self.ring.ambient, self.twists,
                                   self.rel_gb().initial_module())

    def hilbert_function(self, lo, hi):
        """Graded dimensions dim_k M_d for d in lo..hi."""
        return hb.series_coefficients(self.ring.ambient,
                                      self.hilbert_numerator(), lo, hi)

    def length(self):
        """Total k-dimension, or None when the module has positive dimension.

        Over an Artinian ring it is dim_k(F (x) R) minus the F_p-rank of the
        relations, with no Groebner basis.
        """
        if self.ring.dim == 0:
            free = ring_blocks(self.ring)
            return free.dim(self.ngens) - free.rank(self.rels, self.twists)
        return hb.series_total_if_finite(self.ring.ambient,
                                         self.hilbert_numerator())

    @memoized
    def krull_dim(self):
        """Dimension of the support, read off the initial module; -1 for 0."""
        init = self.rel_gb().initial_module()
        nvars = self.ring.ambient.nvars
        return max((hb.monomial_quotient_dim(nvars, init.get(j, ()))
                    for j in range(self.ngens)), default=-1)

    # -- constructions ---------------------------------------------------------

    def twist(self, s):
        """M(s): degrees shift down by s; generator degrees become a_j - s."""
        out = PresentedModule(self.ring, tuple(a - s for a in self.twists),
                              self.rels, normalize=False)
        return out

    def direct_sum(self, other):
        if other.ring != self.ring:
            raise HypothesisError("direct sum over different rings")
        g = self.ngens
        cols = list(self.rels)
        for c in other.rels:
            cols.append({(j + g, m): coef for (j, m), coef in c.items()})
        return PresentedModule(self.ring, self.twists + other.twists, cols,
                               normalize=False)

    def trim_free_summands(self):
        """Split off generators untouched by every relation.

        Returns ``(trimmed, free_twists)``: zero rows of the minimal relation
        matrix are split off as free summands.  With none, ``trimmed`` is the
        module itself, so its memos (dual, resolution) carry over.
        """
        used = set()
        for c in self.rels:
            for (j, _m) in c:
                used.add(j)
        if len(used) == self.ngens:
            return self, ()
        keep = [j for j in range(self.ngens) if j in used]
        free = [self.twists[j] for j in range(self.ngens) if j not in used]
        index = {j: i for i, j in enumerate(keep)}
        cols = [{(index[j], m): coef for (j, m), coef in c.items()}
                for c in self.rels]
        trimmed = PresentedModule(self.ring, tuple(self.twists[j] for j in keep),
                                  cols, normalize=False)
        return trimmed, tuple(free)

    # -- rank and Fitting loci ---------------------------------------------------

    def rank(self):
        """Generic rank over the fraction field of an asserted domain.

        The rank is g - s for the largest s with a nonzero s x s minor mod I.
        If every s x s minor lies in I, Laplace expansion puts every larger
        minor there too, so s grows until the next size has none.
        """
        if not self.ring.domain:
            raise HypothesisError("rank needs the ring asserted to be a domain")
        s = 0
        while self.fitting_minors(s + 1):
            s += 1
        return self.ngens - s

    def _entry(self, row, col):
        return vec_component(self.rels[col], row)

    def fitting_minors(self, size):
        """Nonzero (mod I) size x size minors of the presentation matrix."""
        from itertools import combinations
        amb = self.ring.ambient
        if size == 0:
            return [amb.one()]
        out = []
        for rows in combinations(range(self.ngens), size):
            for cols in combinations(range(len(self.rels)), size):
                det = self.ring.nf(poly_det(amb, self._entry, rows, cols))
                if det:
                    out.append(det)
        return out

    def nonfree_locus_dim(self):
        """Dimension of the locus where the module can fail local finite pd.

        Computes ``dim V(Fitt_rank(M) + I + Jac)`` where Jac is the ideal of
        codimension-size minors of the Jacobian of the ideal generators (the
        Jacobian criterion cuts out the singular locus over a perfect field).
        A value <= 0 certifies finite projective dimension locally on the
        punctured spectrum; the empty locus reports -1.
        """
        from itertools import combinations
        rq = self.ring
        amb = rq.ambient
        r = self.rank()
        size = self.ngens - r
        gens = list(rq.ideal_gens) + self.fitting_minors(size)
        c = amb.nvars - rq.dim
        if c == 0:
            return -1
        jac = [[_formal_partial(amb, g, i) for i in range(amb.nvars)]
               for g in rq.ideal_gens]
        if len(rq.ideal_gens) < c:
            raise HypothesisError("ideal has fewer generators than its codimension")
        for rows in combinations(range(len(rq.ideal_gens)), c):
            for cols in combinations(range(amb.nvars), c):
                det = rq.nf(poly_det(amb, lambda a, b: jac[rows[a]][cols[b]],
                                     range(c), range(c)))
                if det:
                    gens.append(det)
        gens = [g for g in gens if g]
        if not gens:
            return rq.dim
        vecs = [{(0, m): cc for m, cc in g.items()} for g in gens]
        gb = groebner_basis(amb, vecs, (0,))
        init = [m for (_c, m) in gb.leading_terms()]
        return hb.monomial_quotient_dim(amb.nvars, init)


def _formal_partial(ring, f, i):
    p = ring.p
    out = {}
    for m, c in f.items():
        e = m[i]
        if e == 0:
            continue
        cc = c * e % p
        if not cc:
            continue
        mm = list(m)
        mm[i] -= 1
        out[tuple(mm)] = cc
    return out


# ---------------------------------------------------------------------------
# constructors


def free_module(ring, twists):
    return PresentedModule(ring, twists, (), normalize=False)


def quotient_module(ring, ideal_gens):
    """R/J as a module: one generator, relations the ideal generators."""
    cols = [{(0, m): c for m, c in ring.nf(g).items()} for g in ideal_gens]
    return PresentedModule(ring, (0,), [c for c in cols if c])


def ideal_module(ring, gens):
    """An ideal (g_1, ..., g_k) of R as the module generated by the g_i."""
    amb = ring.ambient
    gens = [ring.nf(g) for g in gens]
    gens = [g for g in gens if g]
    if not gens:
        return PresentedModule(ring, (), ())
    degs = []
    for g in gens:
        d = amb.homogeneous_degree(g)
        if d is None:
            raise InhomogeneousError("ideal generators must be homogeneous")
        degs.append(d)
    cols = [{(0, m): c for m, c in g.items()} for g in gens]
    rels = kernel_into_quotient(ring, cols, [], (0,))
    return PresentedModule(ring, tuple(degs), rels)


def residue_field_module(ring):
    """k = R/m as a module over R."""
    return quotient_module(ring, ring.variables())


def subquotient(ring, free_twists, z_gens, b_gens, basis=None):
    """(<Z> + <B>)/<B> inside the free module, as a presented module.

    Returns ``(module, kept)`` where kept are the representative vectors of
    the module's generators inside the free module.  ``basis`` is the
    Groebner basis of <B> + I*F when known, as a module's ``rel_gb`` is.
    """
    amb = ring.ambient
    gbB = groebner_basis(ring, b_gens, free_twists) if basis is None else basis
    kept = minimal_generators(ring, z_gens, free_twists, modulo=gbB)
    if not kept:
        return PresentedModule(ring, (), ()), []
    twists = tuple(vec_degree(amb, v, free_twists) for v in kept)
    rels = kernel_into_quotient(ring, kept, list(b_gens), free_twists)
    mod = PresentedModule(ring, twists, rels)
    if mod.ngens != len(kept):
        raise AssertionError("subquotient generators were not minimal")
    return mod, kept


def submodule_numerator(ring, free_twists, cols):
    """Hilbert numerator of F/(<cols> + I*F)."""
    gb = groebner_basis(ring, cols, free_twists)
    init = gb.initial_module()
    return hb.module_numerator(ring.ambient, free_twists, init)


def homology_length(ring, free_twists, z_gens, b_gens):
    """Length of (<Z>+<B>)/<B>, or None when infinite: the tests' reference
    for ``homalg.length_at``, which reads lengths without building Z."""
    amb = ring.ambient
    n_b = submodule_numerator(ring, free_twists, list(b_gens))
    n_zb = submodule_numerator(ring, free_twists, list(z_gens) + list(b_gens))
    return hb.series_total_if_finite(amb, hb.tpoly_sub(n_b, n_zb))


# ---------------------------------------------------------------------------
# graded pieces over an Artinian ring


class Blocks:
    """Sums of copies of one module N over an Artinian ring, as F_p-spaces.

    Component j of a sum is component j % g of copy j // g, where N has g
    generators.  ``std[k]`` lists the standard monomials of component k of
    N's initial module by degree, so a sum whose components have twists a_j
    has the F_p-basis (j, m), m in ``std[j % g][D - a_j]``, in degree D;
    ``mul_nf(v, m)`` writes x^m * v in that basis as a sum of rows of N's
    table, ``row(k, m)`` = NF(x^m * e_k), in no particular entry order.
    ``ring_blocks`` serves free modules (N = R); ``homalg`` builds the
    blocks of other modules.

    This is the strand frame of La Scala and Stillman (JSC 1998): ranks,
    images and minimal kernels come from sparse F_p elimination degree by
    degree, with no Buchberger run, on ``freemod.pack_term``'s ints: their
    order is the tuple order, so each pivot is the one tuples give, and x^m
    adds ``pack_mono(m)``.  Packing a column or a table row raises
    ValueError once an exponent reaches ``ring.DEGREE_LIMIT``, so fields
    never carry.  Vectors are packed once, where they enter; ``std``, the
    rows (memoized on N), image pivots and the vectors ``minimal_kernel``
    takes and returns stay packed, and ``unpack`` turns vectors back into
    tuples where they leave the frame.
    """

    def __init__(self, ring, owner, std):
        self.ring = ring
        self.std = std
        self.p = ring.p
        self.g = len(std)
        n = ring.ambient.nvars
        self.row = partial(_frame_row, owner, n)
        self.shift = FIELD_BITS * n
        self.low = (1 << self.shift) - 1
        # pack_mono of each variable, x_1 first
        self.variables = [1 << FIELD_BITS * k for k in reversed(range(n))]

    def mul_nf(self, v, m):
        """x^m * v for packed v and m = ``pack_mono(x^m)``: the packed twin
        of ``freemod.sum_rows``, over copies of the table, each row moved to
        its copy by one shift."""
        p, g, s, low, row = self.p, self.g, self.shift, self.low, self.row
        out = {}
        for t, coef in v.items():
            c = (t >> s) - 1
            k = c % g
            isub_shifted(out, row(k, (t & low) + m), (c - k) << s, -coef, p)
        return out

    def unpack(self, vectors):
        """Packed vectors of a sum, written in the standard monomials of its
        copies, as tuple-keyed vectors: each standard monomial is read once."""
        nvars = self.ring.ambient.nvars
        monos = {f: unpack_mono(f, nvars)
                 for table in self.std for ms in table for f in ms}
        s, low = self.shift, self.low
        return [{((t >> s) - 1, monos[t & low]): c for t, c in v.items()}
                for v in vectors]

    def dim(self, ncomps):
        """dim_k of the sum of ``ncomps`` components."""
        return sum(self.sizes((0,) * ncomps).values())

    def sizes(self, twists):
        """dim_k of the sum with component twists ``twists``, by degree."""
        out = defaultdict(int)
        for c, a in enumerate(twists):
            for e, ms in enumerate(self.std[c % self.g]):
                out[a + e] += len(ms)
        return out

    def _spans(self, cols, twists, sizes):
        """The image of the map from a sum into the sum with component twists
        ``twists`` given by its columns, degree by degree: ``(D, span_D,
        dim target_D)``, span_D in echelon form, packed; ``sizes`` are the
        target's.

        The map is R-linear, so its image is the R-submodule the columns
        span: the spans of ``groebner.minimal_by_degree``, fed the columns
        of each degree D in normal form, from the lowest column degree up to
        the target's top degree, with dim target_D as ``full``, so products
        and columns in degree D stop once span_D fills it.
        """
        mono_deg = self.ring.ambient.mono_deg
        by_degree = defaultdict(list)
        for col in cols:
            if col:
                j, m = next(iter(col))
                by_degree[twists[j] + mono_deg(m)].append(col)
        if not by_degree or not sizes:
            return
        pieces = ((d, (self.mul_nf(pack_vec(col), 0)
                       for col in by_degree.get(d, ())), sizes.get(d, 0))
                  for d in range(min(by_degree), max(sizes) + 1))
        for d, span, _ in minimal_by_degree(self.ring.ambient, self.variables,
                                            pieces, self.mul_nf):
            yield d, span, sizes.get(d, 0)

    def rank(self, cols, twists):
        """F_p-rank of such a map: the sum of its ``_spans``.

        Above the target's top twist every standard monomial of positive
        degree is x * (one of degree D - w(x)), so once span_D is full for
        max(w) degrees in a row ending at or above that twist, every higher
        degree is full too, and the rest of the rank is read from the
        target's sizes.
        """
        sizes = self.sizes(twists)
        top_w = max(self.ring.ambient.weights)
        rank = run = 0
        for d, span, full in self._spans(cols, twists, sizes):
            rank += len(span)
            run = run + 1 if len(span) == full else 0
            if run >= top_w and d >= max(twists):
                return rank + sum(s for e, s in sizes.items() if e > d)
        return rank

    def image(self, cols, twists):
        """The image of such a map, ``{D: echelon pivots}``, packed: the
        nonzero ``_spans``."""
        return {d: span for d, span, _ in
                self._spans(cols, twists, self.sizes(twists)) if span}

    def minimal_kernel(self, twists, cols, target, target_twists, *,
                       source_mod=None, target_mod=None):
        """Minimal generators of the kernel of the map from the sum with
        component twists ``twists`` into the sum of ``target``'s copies with
        component twists ``target_twists``, with their degrees:
        ``(vectors, twists)``.  The columns and the vectors are packed.

        In degree D the rows are the images of the basis vectors x^m * e_j,
        each followed by an identity coordinate (packed below every image
        term, so image entries pivot first); the rows left with identity
        pivots span the kernel Z_D.  Above the target's top degree,
        max_c (target_twists[c] + top degree of its component), the target
        is zero, so Z_D is the whole source there and no image is computed.
        Each Z_D goes to ``groebner.minimal_by_degree`` with its dimension,
        which keeps the vectors independent of sum_x x * Z_{D - w(x)} and
        stops once that span fills Z_D; a vector's degree is the D it is
        kept in.  ``target_mod`` (``{D: pivots}`` in the target, from
        ``image``) takes the kernel into the target modulo that subspace;
        ``source_mod`` (in the source) gives generators of the kernel modulo
        it instead, and must lie inside the kernel, as boundaries lie in the
        cycles, for the stop to be right.
        """
        if not twists:
            return [], ()
        p = self.p
        g = self.g
        s = self.shift
        tables = [self.std[j % g] for j in range(len(twists))]
        tg = len(target.std)
        top = max((a + len(target.std[c % tg]) - 1
                   for c, a in enumerate(target_twists)),
                  default=min(twists) - 1)

        def kernels():
            for d in range(min(twists),
                           max(a + len(t) for a, t in zip(twists, tables))):
                basis = [(j + 1) << s | m for j, a in enumerate(twists)
                         if 0 <= d - a < len(tables[j]) for m in tables[j][d - a]]
                if d > top:
                    yield d, [{b: 1} for b in basis], len(basis)
                    continue
                pivots = dict(target_mod.get(d, {})) if target_mod else {}
                for n, b in enumerate(basis):
                    row = target.mul_nf(cols[(b >> s) - 1], b & self.low)
                    row[n] = 1
                    row_insert(row, pivots, None, p)
                z = [{basis[n]: c for n, c in row.items()}
                     for t, row in pivots.items() if t >> s == 0]
                yield d, z, len(z)

        gens, degrees = [], []
        for d, _, kept in minimal_by_degree(self.ring.ambient, self.variables,
                                            kernels(), self.mul_nf, source_mod):
            gens += kept
            degrees += [d] * len(kept)
        return gens, tuple(degrees)


def ring_blocks(ring):
    """Free modules over an Artinian R as sums of copies of R."""
    return Blocks(ring, ring, _ring_std(ring))


@memoized
def _ring_std(ring):
    return [[tuple(map(pack_mono, ms)) for ms in
             hb.std_monomials(ring.ambient, ring._initial_ideal)]]


@memoized
def _frame_row(owner, nvars, k, f):
    """Row (k, f) of the table of owner (R or N), ``owner.term_nf`` packed."""
    return pack_vec(owner.term_nf(k, unpack_mono(f, nvars)))


# ---------------------------------------------------------------------------
# graded maps


class GradedMap:
    """A homogeneous map of presented modules, given on generators.

    ``cols[j]`` is the image of the j-th generator of the source, written in
    the target's generator coordinates; all columns are homogeneous and the
    map has a single degree ``shift`` (zero for honest degree-preserving
    maps): deg(cols[j]) = source.twists[j] + shift.
    """

    def __init__(self, source, target, cols, shift=0):
        if source.ring != target.ring:
            raise HypothesisError("map between modules over different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.cols = tuple(vec_nf_ideal(source.ring, c) for c in cols)
        self.shift = shift
        if len(self.cols) != source.ngens:
            raise ValueError("one column per source generator required")

    def check(self) -> bool:
        """Columns homogeneous of the right degree; relations preserved."""
        amb = self.ring.ambient
        for j, c in enumerate(self.cols):
            d = vec_degree(amb, c, self.target.twists)
            if d is None or (c and d != self.source.twists[j] + self.shift):
                return False
        gb = self.target.rel_gb()
        return not any(gb.normal_form(self.apply(rel))
                       for rel in self.source.rels)

    def apply(self, v):
        """Image of an element given in source generator coordinates."""
        return matvec(self.ring.ambient, self.cols, v)

    def compose(self, inner):
        """self o inner."""
        cols = [self.apply(c) for c in inner.cols]
        return GradedMap(inner.source, self.target, cols,
                         shift=self.shift + inner.shift)

    def is_zero(self) -> bool:
        gb = self.target.rel_gb()
        return all(not gb.normal_form(c) for c in self.cols)

    def kernel(self):
        """Returns ``(K, iota)`` with iota: K -> source the inclusion."""
        # {v : map(v) = 0 in the target}, modulo the source's relations
        vs = kernel_into_quotient(self.ring, list(self.cols),
                                  list(self.target.rels), self.target.twists)
        k, kept = subquotient(self.ring, self.source.twists, vs,
                              list(self.source.rels), self.source.rel_gb())
        return k, GradedMap(k, self.source, kept)

    def is_injective(self) -> bool:
        return self.kernel_length() == 0

    def kernel_length(self):
        """Length of the kernel, or None when infinite, with no kernel built:
        the image has Hilbert series HS(target) - HS(coker), so
        t^shift * HS(ker) = t^shift * HS(source) - HS(target) + HS(coker),
        the cokernel's numerator from one untracked Groebner run."""
        target = self.target
        coker = submodule_numerator(self.ring, target.twists,
                                    list(target.rels) + list(self.cols))
        return hb.series_total_if_finite(self.ring.ambient, hb.tpoly_add(
            hb.tpoly_sub(hb.tpoly_shift(self.source.hilbert_numerator(),
                                        self.shift),
                         target.hilbert_numerator()), coker))

    def cokernel(self):
        return PresentedModule(self.ring, self.target.twists,
                               list(self.target.rels) + list(self.cols))

    def is_surjective(self) -> bool:
        return self.cokernel().is_zero()


# ---------------------------------------------------------------------------
# tensor products


def _tensor_block_cols(d_cols, g_n):
    """Columns of d (x) 1_N; source component (c, k) flattens to c*g_n + k."""
    out = []
    for col in d_cols:
        for k in range(g_n):
            out.append({(j * g_n + k, m): coef for (j, m), coef in col.items()})
    return out


def _free_tensor_rels(n_comps, n_module):
    """Columns of 1_F (x) P_N for F free on ``n_comps`` components."""
    g_n = n_module.ngens
    out = []
    for c in range(n_comps):
        for rel in n_module.rels:
            out.append({(c * g_n + k, m): coef for (k, m), coef in rel.items()})
    return out


def _tensor_twists(f_twists, n_module):
    return tuple(t + b for t in f_twists for b in n_module.twists)


def tensor(m, n):
    """M (x) N, presented on generator pairs by [P_M (x) 1 | 1 (x) P_N]."""
    if m.ring != n.ring:
        raise HypothesisError("tensor over different rings")
    return PresentedModule(m.ring, _tensor_twists(m.twists, n),
                           _tensor_block_cols(m.rels, n.ngens)
                           + _free_tensor_rels(m.ngens, n))
