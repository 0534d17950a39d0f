"""Matrix factorizations, periodic complete resolutions, Tate (co)homology.

Over a hypersurface R = S/(f), a maximal Cohen-Macaulay module without free
summands is the cokernel of a matrix factorization (A, B) with
AB = BA = f*I exactly over S; the doubly infinite complex alternating A and
B is totally acyclic and serves as the period-2 complete resolution.  The
factorization certifies MCM; depth only words a rejection.  Other even
periods are detected from the minimal resolution: an isomorphism between
distant syzygies, certified by an invertible change of basis, closes the
resolution into a cycle.  Total acyclicity of the cycle and of its dual is
always verified on a window.
"""

from .freemod import compose_cols, unit_vector, vec_degree
from .groebner import composes_to_zero, express_in_terms, vec_nf_ideal
from .homalg import DualComplex, depth, length_at, module_at
from .isomorphism import ISO, is_isomorphic
from .modules import HypothesisError, PresentedModule, free_module
from .quotient import QuotientRing
from .resolution import resolution_of, syzygy_module
from .ring import memoized


class MatrixFactorization:
    """A pair (A, B) of square matrices over S with AB = BA = f * I."""

    def __init__(self, ring, a_cols, a_row_twists, b_cols):
        if not ring.is_hypersurface:
            raise HypothesisError("matrix factorizations need a hypersurface ring")
        self.ring = ring
        self.f = ring.hypersurface_poly
        amb = ring.ambient
        self.fdeg = amb.homogeneous_degree(self.f)
        self.a_cols = tuple(a_cols)
        self.b_cols = tuple(b_cols)
        self.row_twists = tuple(a_row_twists)
        self.size = len(self.row_twists)
        if len(self.a_cols) != self.size or len(self.b_cols) != self.size:
            raise ValueError("matrix factorization matrices must be square")
        self.col_twists = tuple(vec_degree(amb, c, self.row_twists)
                                for c in self.a_cols)
        self._verify()

    def _verify(self):
        amb = self.ring.ambient
        f = self.f
        for name, prod, ncomp in (("AB", compose_cols(amb, self.a_cols, self.b_cols), self.size),
                                  ("BA", compose_cols(amb, self.b_cols, self.a_cols), self.size)):
            for j, col in enumerate(prod):
                want = {(j, m): c for m, c in f.items()}
                if col != want:
                    raise ArithmeticError(f"{name} != f*I in column {j}")

    def module(self):
        """coker A over R, A's columns (over S) reduced mod f."""
        return PresentedModule(self.ring, self.row_twists,
                               [vec_nf_ideal(self.ring, c) for c in self.a_cols],
                               normalize=False)


@memoized
def matrix_factorization_of(module: PresentedModule) -> MatrixFactorization:
    """The reduced matrix factorization presenting an MCM module.

    The minimal presentation lifts to S as A, and B lifts each f*e_j through
    A's columns.  The lift certifies MCM: AB = f*I gives pd_S coker A <= 1,
    so depth = dim R (Auslander-Buchsbaum); Eisenbud gives the converse for
    minimal presentations without free summands.  Depth only words a
    rejection.  Memoized, so each module's f*I is lifted once.
    """
    ring = module.ring
    if not ring.is_hypersurface:
        raise HypothesisError("matrix factorizations need a hypersurface ring")
    if module.is_zero():
        raise HypothesisError("zero module has no reduced matrix factorization")
    trimmed, free = module.trim_free_summands()
    if free:
        raise HypothesisError("module has free summands; trim them first")
    a_cols = list(module.rels)
    square = len(a_cols) == module.ngens
    if square:
        f = ring.hypersurface_poly
        b_cols = express_in_terms(
            QuotientRing(ring.ambient, []),
            [{(j, m): c for m, c in f.items()} for j in range(module.ngens)],
            a_cols, [], module.twists)
        if None not in b_cols:
            return MatrixFactorization(ring, a_cols, module.twists, b_cols)
    dep = depth(module)
    if dep != ring.dim:
        raise HypothesisError("module is not maximal Cohen-Macaulay "
                              f"(depth {dep} < dim {ring.dim})")
    if not square:
        raise HypothesisError("minimal presentation of an MCM module over a "
                              "hypersurface must be square")
    raise RuntimeError("lift of f*I through the presentation failed; "
                       "this indicates a bug, not a legal state")


class CompleteResolution:
    """A periodic, doubly infinite, totally acyclic complex of free modules.

    ``cycle[k]`` maps the free module on ``levels[k+1]`` to the one on
    ``levels[k]`` (absolute homological positions base+k+1 -> base+k), and
    ``levels[q]`` equals ``levels[0]`` shifted by the period twist.
    """

    def __init__(self, ring, q, base, cycle, levels, shift, provenance):
        self.ring = ring
        self.q = q
        self.base = base
        self.cycle = [list(c) for c in cycle]
        self.levels = [tuple(t) for t in levels]
        self.shift = shift
        self.provenance = provenance
        if q < 2 or q % 2:
            raise HypothesisError("complete resolutions here have even period >= 2")
        if tuple(t + shift for t in self.levels[0]) != self.levels[q]:
            raise AssertionError("period twists are inconsistent")

    def twists_at(self, i):
        k = (i - self.base) % self.q
        m = (i - self.base - k) // self.q
        return tuple(t + m * self.shift for t in self.levels[k])

    def differential(self, i):
        """Columns of T_i -> T_{i-1}; matrices repeat with period q."""
        k = (i - self.base - 1) % self.q
        return self.cycle[k]

    def verify(self, window):
        """Square-zero and total acyclicity (complex and dual) on [-w, w].

        Total acyclicity is H_i(T (x) R) = 0 and H^i(Hom(T, R)) = 0.  The
        differentials repeat with period q and a twist changes no vanishing,
        so one index per residue class mod q decides for the whole window:
        each range stops after its first q indices.  A negative window would
        check nothing, so it is a ValueError.
        """
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        ring = self.ring
        end = self.q - window
        if not all(composes_to_zero(ring, self.differential(i),
                                    self.differential(i + 1))
                   for i in range(-window, min(window + 2, end))):
            return False
        r1 = free_module(ring, (0,))
        t_star = DualComplex(self)
        return all(length_at(self, r1, i) == 0
                   and length_at(t_star, r1, -i) == 0
                   for i in range(-window, min(window + 1, end)))


def complete_resolution(module: PresentedModule, q=None,
                        window=6) -> CompleteResolution:
    """Build and verify the periodic complete resolution of a module.

    With a hypersurface ring (and q absent or 2) the matrix factorization
    route applies; otherwise the minimal resolution is scanned for an
    isomorphism between syzygies q steps apart, which wraps the resolution
    into a cycle.  Raises when no periodicity is detected; modules of finite
    projective dimension never have one.
    """
    ring = module.ring
    if module.is_zero():
        raise HypothesisError("the zero module has no complete resolution")
    if ring.is_hypersurface and q in (None, 2):
        mf = matrix_factorization_of(module)
        cr = CompleteResolution(
            ring, 2, 0,
            [list(mf.a_cols), list(mf.b_cols)],
            [mf.row_twists, mf.col_twists,
             tuple(t + mf.fdeg for t in mf.row_twists)],
            mf.fdeg, {"via": "matrix-factorization"})
        if not cr.verify(window):
            raise ArithmeticError("matrix-factorization complex failed "
                                  "total-acyclicity verification")
        return cr
    if q is None:
        raise HypothesisError("a period must be given for non-hypersurface rings")
    if q < 2 or q % 2:
        raise HypothesisError("the period must be even and >= 2")
    limit = max(ring.dim + 2, 3)
    res = resolution_of(module, limit + q + 1)
    for i0 in range(limit + 1):
        if res.betti(i0 + 1) == 0:
            raise HypothesisError("finite projective dimension: Tate "
                                  "(co)homology vanishes and no complete "
                                  "resolution exists")
        cert = is_isomorphic(syzygy_module(module, i0 + q),
                             syzygy_module(module, i0), allow_twist=True)
        if cert.verdict != ISO:
            continue
        shift = -cert.twist
        v_cols = cert.certificate.cols
        amb = ring.ambient
        row_twists = tuple(t + shift for t in res.twists_at(i0))
        # V^-1 lifts each e_j through V's columns; ISO makes V square
        v_inv = express_in_terms(ring, [unit_vector(amb, j) for j in
                                        range(len(row_twists))],
                                 v_cols, [], row_twists)
        if None in v_inv:
            raise ValueError("matrix is not invertible over the quotient ring")
        levels = [res.twists_at(i0 + k) for k in range(q)]
        levels.append(tuple(t + shift for t in res.twists_at(i0)))
        cycle = [list(res.differential(i0 + k + 1)) for k in range(q - 1)]
        cycle.append(compose_cols(amb, res.differential(i0 + q), v_inv))
        cr = CompleteResolution(ring, q, i0, cycle, levels, shift,
                                {"via": "detected-periodicity", "base": i0,
                                 "twist": shift})
        if cr.verify(window):
            return cr
    raise HypothesisError(f"no periodicity of period {q} detected within "
                          f"{limit} resolution steps")


# ---------------------------------------------------------------------------
# Tate homology and cohomology


def tate_tor(cr: CompleteResolution, n_module, i):
    """Tate homology at any integer index, as a presented module."""
    return module_at(cr, n_module, i)[0]


def tate_tor_length(cr, n_module, i):
    """Length of Tate homology at any integer index."""
    return _periodic_length(n_module, cr, cr.base + (i - cr.base) % cr.q)


def tate_ext(cr: CompleteResolution, n_module, i):
    """Tate cohomology at any integer index, as a presented module."""
    return module_at(DualComplex(cr), n_module, -i)[0]


def tate_ext_length(cr, n_module, i):
    """Length of Tate cohomology at any integer index."""
    return _periodic_length(n_module, DualComplex(cr),
                            -cr.base - (i - cr.base) % cr.q)


@memoized
def _periodic_length(n_module, cx, i):
    # The length at i depends only on (i - base) mod q, so it is read at the
    # index of that class in [base, base + q), negated on the dual; memoized
    # on the module, like the ranks it reads, never on the complex.
    return length_at(cx, n_module, i)
