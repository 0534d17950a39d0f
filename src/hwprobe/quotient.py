"""Graded quotient rings R = S/I with cached Groebner data.

The grading is by positive integer weights, so quasihomogeneous hypersurface
equations like x^2 - y^3 (weights 3, 2) are honestly homogeneous.  Module
arithmetic over R happens in S carrying the reduced Groebner basis of I.
"""

from itertools import product
from operator import neg

from .freemod import row_insert
from .grammar import parse_polynomial
from .groebner import first_divisor, groebner_basis, vec_nf_ideal
from .hilbert import monomial_quotient_dim
from .ring import PolyRing, memoized


_SCAN_BUDGET = 200_000  # candidate divisors per degree before giving up


class NotDomainError(ValueError):
    """The ideal is visibly not prime, contradicting a domain assertion."""


class QuotientRing:
    """Ambient polynomial ring plus a homogeneous ideal I; R = S/I.

    A ``domain=True`` assertion is refuted, raising NotDomainError, when the
    reduced Groebner basis holds a monomial but none of its variables lie in
    I.  On a principal ideal it is also checked by a bounded irreducibility
    scan: a visible factorization raises NotDomainError, an inconclusive
    scan keeps the assertion.
    """

    def __init__(self, ambient: PolyRing, ideal_gens, *, domain=False):
        self.ambient = ambient
        gens = [g for g in ideal_gens if g]
        for g in gens:
            if ambient.homogeneous_degree(g) is None:
                raise ValueError("ideal generators must be homogeneous: "
                                 + ambient.format_poly(g))
        if gens:
            vecs = [{(0, m): c for m, c in g.items()} for g in gens]
            self._ideal_basis = groebner_basis(ambient, vecs, (0,))
            self.gb = tuple({m: c for (_, m), c in v.items()}
                            for v in self._ideal_basis.elements)
        else:
            self._ideal_basis = None
            self.gb = ()
        if any(len(h) == 1 and ambient.zero_mono in h for h in self.gb):
            raise ValueError("the ideal is the unit ideal")
        self.ideal_gens = tuple(gens)
        self._initial_ideal = tuple(max(h, key=ambient.mono_key) for h in self.gb)
        self.dim = monomial_quotient_dim(ambient.nvars, self._initial_ideal)
        self.is_hypersurface = len(self.gb) == 1
        self.hypersurface_poly = self.gb[0] if self.is_hypersurface else None
        self.domain = bool(domain)
        # a prime ideal that holds a monomial holds one of its variables
        for h in self.gb if self.domain else ():
            if len(h) == 1 and not any(self.is_zero(ambient.var(i))
                                       for i, e in enumerate(next(iter(h)))
                                       if e):
                raise NotDomainError(
                    f"the ideal holds the monomial {ambient.format_poly(h)} "
                    "but none of its variables; not a domain")
        if self.domain and self.is_hypersurface and \
                principal_irreducible_scan(ambient, self.gb[0]) is False:
            raise NotDomainError("hypersurface equation factors; not a domain: "
                                 + ambient.format_poly(self.gb[0]))

    def __eq__(self, other):
        return (isinstance(other, QuotientRing) and other.ambient == self.ambient
                and other.gb == self.gb)

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(sorted(h.items())) for h in self.gb)))

    def __repr__(self):
        amb = repr(self.ambient)
        if not self.gb:
            return amb
        gens = ", ".join(self.ambient.format_poly(g) for g in self.ideal_gens)
        return f"{amb}/({gens})"

    @property
    def p(self):
        return self.ambient.p

    @memoized
    def term_nf(self, k, t):
        """NF(x^t * e_k) modulo I*F, a row of the ring's table; ValueError
        past the packing bound.  Row (k, t) is row (0, t) moved to e_k."""
        if not self.gb:
            return {(k, t): 1}
        rem = (self.term_nf(0, t) if k else
               self._ideal_basis.normal_form({(0, t): 1}))
        return {(k, u): c for (_, u), c in rem.items()}

    def nf(self, f):
        """Normal form of a polynomial modulo I, in no particular term order.

        The one-component case of ``groebner.vec_nf_ideal``: a sum of the
        rows ``term_nf(0, m)`` over the terms x^m of f.
        """
        rem = vec_nf_ideal(self, {(0, m): c for m, c in f.items()})
        return {m: c for (_, m), c in rem.items()}

    def is_zero(self, f) -> bool:
        return not self.nf(f)

    def variables(self):
        return [self.ambient.var(i) for i in range(self.ambient.nvars)]


def _quadratic_form_rank(ring: PolyRing, f) -> int:
    """Rank of the Gram matrix of a quadratic form (all weights 1, p odd)."""
    n = ring.nvars
    p = ring.p
    gram = [[0] * n for _ in range(n)]
    for m, c in f.items():
        idx = [i for i, e in enumerate(m) for _ in range(e)]
        if len(idx) != 2:
            return -1
        i, j = idx
        if i == j:
            gram[i][i] = (gram[i][i] + 2 * c) % p
        else:
            gram[i][j] = (gram[i][j] + c) % p
            gram[j][i] = (gram[j][i] + c) % p
    pivots = {}
    for row in gram:
        row_insert({j: v for j, v in enumerate(row) if v}, pivots, neg, p)
    return len(pivots)


def principal_irreducible_scan(ring: PolyRing, f):
    """Best-effort irreducibility check for a homogeneous polynomial.

    Returns True (irreducible), False (a factorization was found), or None
    when the scan is inconclusive within the budget.
    """
    deg = ring.homogeneous_degree(f)
    if deg is None or not f:
        return None
    if len(f) == 1:
        m = next(iter(f))
        return sum(m) == 1  # a single variable is prime; other monomials split
    # quadratic form over odd characteristic, standard grading
    if all(w == 1 for w in ring.weights) and deg == 2 and ring.p != 2:
        r = _quadratic_form_rank(ring, f)
        if r >= 0:
            return r >= 3
    # binomial c1*x^a + c2*y^b in two variables with gcd(a, b) = 1
    if ring.nvars == 2 and len(f) == 2:
        monos = sorted(f, reverse=True)
        if monos[0][1] == 0 and monos[1][0] == 0:
            a, b = monos[0][0], monos[1][1]
            if a > 0 and b > 0:
                from math import gcd
                if gcd(a, b) == 1:
                    return True
    # brute-force divisor scan over homogeneous candidates of degree at most
    # deg/2: a factor of higher degree has a cofactor among them
    p = ring.p
    for d in range(1, deg // 2 + 1):
        monos = ring.monomials_of_degree(d)
        if not monos:
            continue
        count = p ** (len(monos) - 1)
        if count > _SCAN_BUDGET:
            return None
        if first_divisor(ring, f, _monic_candidates(monos, p)) is not None:
            return False
    return True


def _monic_candidates(monos, p):
    """Every polynomial on these monomials whose first nonzero coefficient,
    in the order given, is 1."""
    for lead in range(len(monos)):
        for rest in product(range(p), repeat=len(monos) - lead - 1):
            g = {monos[lead]: 1}
            for m, c in zip(monos[lead + 1:], rest):
                if c:
                    g[m] = c
            yield g


def define_ring(variables, weights, p, ideal_gens, *, order="grevlex",
                domain=False) -> QuotientRing:
    """Construct R = F_p[variables]/(ideal_gens) with the given weights.

    ``ideal_gens`` may be polynomials (dicts) or strings in the polynomial
    grammar; ``QuotientRing`` checks a ``domain=True`` assertion.
    """
    ring = PolyRing(variables, weights, p, order=order)
    gens = [parse_polynomial(ring, g) if isinstance(g, str) else g
            for g in ideal_gens]
    return QuotientRing(ring, gens, domain=domain)
