"""The theta invariant, additivity checks, Tor-rigidity and torsion probes.

Theta of a pair (M, N) is the stable difference
``len Tor_{2n}(M, N) - len Tor_{2n-1}(M, N)``; it is defined when M is
eventually two-periodic with finite projective dimension locally on the
punctured spectrum.  The artifact reads lengths past the syzygy-replacement
index (the ring dimension), keeping the parity of the original module, and
always certifies stabilization by recomputing at the next stable index.
"""

import random
from types import SimpleNamespace

from .freemod import unit_vector
from .groebner import (
    express_in_terms,
    minimal_generators,
    minimalize_presentation,
)
from .hilbert import tpoly_add, tpoly_shift
from .homalg import (
    biduality_map,
    depth,
    dual,
    ext_is_zero,
    tensor,
    tor_length,
    torsion_length,
    torsion_submodule,
)
from .isomorphism import ISO, is_isomorphic
from .modules import GradedMap, HypothesisError, PresentedModule, subquotient
from .quotient import define_ring
from .resolution import betti_numbers, syzygy_module
from .ring import memoized
from .tate import complete_resolution, matrix_factorization_of, tate_tor_length

CONJECTURE_HOLDS = "CONJECTURE_HOLDS"
COUNTEREXAMPLE_CANDIDATE = "COUNTEREXAMPLE_CANDIDATE"


class ThetaResult(SimpleNamespace):
    def __init__(self, value, stable_index, lengths, replacement_index,
                 periodicity):
        super().__init__(value=value, stable_index=stable_index,
                         lengths=lengths, replacement_index=replacement_index,
                         periodicity=periodicity)

    def to_dict(self):
        return {"value": self.value, "stable_index": self.stable_index,
                "lengths": {str(k): v for k, v in sorted(self.lengths.items())},
                "replacement_index": self.replacement_index,
                "periodicity": self.periodicity}


def certify_two_periodic(module):
    """The certificate that a nonzero module without free summands is
    two-periodic, as the ``periodicity`` record of a theta result.

    Over a hypersurface it is the matrix factorization, which also certifies
    MCM; otherwise it is an ISO verdict between the module and its trimmed
    second syzygy, up to a twist.  Raises HypothesisError without one.
    """
    if module.ring.is_hypersurface:
        matrix_factorization_of(module)
        return {"via": "matrix-factorization"}
    cert = is_isomorphic(module, syzygy_module(module, 2, trim=True),
                         allow_twist=True)
    if cert.verdict != ISO:
        raise HypothesisError("module is not eventually two-periodic "
                              f"(syzygy comparison: {cert.verdict})")
    return {"via": "syzygy-isomorphism", "twist": cert.twist}


def _is_two_periodic(module):
    try:
        certify_two_periodic(module)
    except HypothesisError:
        return False
    return True


class ThetaContext:
    """Hypothesis checks and the stable index for theta against a fixed M."""

    def __init__(self, module: PresentedModule):
        ring = module.ring
        locus = module.nonfree_locus_dim()
        if locus > 0:
            raise HypothesisError(
                "module is not locally of finite projective dimension on the "
                f"punctured spectrum (locus dimension {locus})")
        self.locus_dim = locus
        r = ring.dim
        self.replacement_index = r
        stable = syzygy_module(module, r, trim=True)
        self.stable_module = stable
        self.periodicity = certify_two_periodic(stable) if not \
            stable.is_zero() else {"via": "finite projective dimension"}
        # smallest n with 2n - 1 > replacement index
        self.stable_n = (r + 1) // 2 + 1


@memoized
def _theta_context(module):
    return ThetaContext(module)


def theta(module, other) -> ThetaResult:
    """Hochster's theta invariant of the pair (module, other).

    The hypothesis checks and the stable index depend on the module alone,
    so its ``ThetaContext`` is built once and memoized on it.
    """
    ctx = _theta_context(module)
    if ctx.stable_module.is_zero():
        n = ctx.stable_n
        lengths = {i: 0 for i in range(2 * n - 1, 2 * n + 3)}
        return ThetaResult(0, n, lengths, ctx.replacement_index, ctx.periodicity)
    n = ctx.stable_n
    lengths = {}
    for i in range(2 * n - 1, 2 * n + 3):
        ln = tor_length(module, other, i)
        if ln is None:
            raise HypothesisError(
                f"Tor_{i} has infinite length; the locus hypothesis failed")
        lengths[i] = ln
    value = lengths[2 * n] - lengths[2 * n - 1]
    check = lengths[2 * n + 2] - lengths[2 * n + 1]
    if check != value:
        raise ArithmeticError(
            f"theta failed to stabilize: {value} at n={n}, {check} at n={n + 1}")
    return ThetaResult(value, n, lengths, ctx.replacement_index, ctx.periodicity)


# ---------------------------------------------------------------------------
# short exact sequences and additivity


def verify_short_exact(f: GradedMap, g: GradedMap):
    """Check 0 -> X -f-> Y -g-> Z -> 0 is exact; returns (ok, reason).

    Once g o f = 0, f injective and g onto are known, im f = ker g iff
    HS(Y) = t^shift(f) HS(X) + t^-shift(g) HS(Z)."""
    if f.target is not g.source and f.target != g.source:
        return False, "maps are not composable"
    if not f.check() or not g.check():
        return False, "a map does not respect relations"
    if not g.compose(f).is_zero():
        return False, "g o f is nonzero"
    if not f.is_injective():
        return False, "f has a kernel"
    if not g.is_surjective():
        return False, "g is not surjective"
    if f.target.hilbert_numerator() != tpoly_add(
            tpoly_shift(f.source.hilbert_numerator(), f.shift),
            tpoly_shift(g.target.hilbert_numerator(), -g.shift)):
        return False, "ker g exceeds im f"
    return True, "exact"


def theta_additivity_check(module, f, g):
    """Verify theta(M, Y) = theta(M, X) + theta(M, Z) on an exact sequence."""
    ok, reason = verify_short_exact(f, g)
    if not ok:
        raise HypothesisError(f"sequence is not exact: {reason}")
    tx = theta(module, f.source)
    ty = theta(module, f.target)
    tz = theta(module, g.target)
    return {"theta_X": tx.value, "theta_Y": ty.value, "theta_Z": tz.value,
            "additive": ty.value == tx.value + tz.value}


def cokernel_with_projection(f: GradedMap):
    """Z = coker(f) with the projection Y -> Z on generators."""
    ring = f.ring
    y = f.target
    cols = list(y.rels) + list(f.cols)
    cols2, twists2, kept_rows = minimalize_presentation(ring, cols, y.twists)
    rels2 = minimal_generators(ring, cols2, twists2)
    z = PresentedModule(ring, twists2, rels2, normalize=False)
    amb = ring.ambient
    proj_cols = express_in_terms(
        ring, [unit_vector(amb, j) for j in range(y.ngens)],
        [unit_vector(amb, r) for r in kept_rows], cols, y.twists)
    if None in proj_cols:
        raise ArithmeticError("projection to the cokernel failed")
    return z, GradedMap(y, z, proj_cols)


def random_short_exact_sequence(y: PresentedModule, rng: random.Random):
    """A random submodule X of Y with 0 -> X -> Y -> Y/X -> 0.

    X has one or two generators, at most two degrees above Y's lowest.
    """
    ring = y.ring
    amb = ring.ambient
    p = amb.p
    lo = min(y.twists)
    gens = []
    for _ in range(rng.randrange(1, 3)):
        d = lo + rng.randrange(3)
        v = {}
        for k, b in enumerate(y.twists):
            e = d - b
            if e < 0:
                continue
            for mono in amb.monomials_of_degree(e):
                c = rng.randrange(p)
                if c:
                    v[(k, mono)] = c
        v = y.element_nf(v)
        if v:
            gens.append(v)
    if not gens:
        gens = [y.element_nf(unit_vector(amb, 0))]
    x, kept = subquotient(ring, y.twists, gens, list(y.rels), y.rel_gb())
    f = GradedMap(x, y, kept)
    z, g = cokernel_with_projection(f)
    return f, g


# ---------------------------------------------------------------------------
# rigidity probe


def rigidity_probe(module, other, window=10):
    """Scan Tor lengths for gap patterns (a vanishing followed by life).

    A gap is flagged as a refutation-grade anomaly only when the rigidity
    hypotheses are certified: the ring is Artinian or an asserted
    one-dimensional domain, and the module is two-periodic.
    """
    ring = module.ring
    lengths = []
    for i in range(window + 1):
        ln = tor_length(module, other, i)
        lengths.append(ln)
    gaps = []
    for n in range(1, window):
        if lengths[n] == 0:
            later = [j for j in range(n + 1, window + 1) if lengths[j] not in (0,)]
            if later:
                gaps.append({"vanishes_at": n, "alive_at": later[0]})
    hypotheses = {"ring_class": None, "two_periodic": False}
    if ring.dim == 0:
        hypotheses["ring_class"] = "artinian"
    elif ring.dim == 1 and ring.domain:
        hypotheses["ring_class"] = "one-dimensional domain"
    trimmed, _ = module.trim_free_summands()
    hypotheses["two_periodic"] = not trimmed.is_zero() and \
        _is_two_periodic(trimmed)
    flagged = bool(gaps) and hypotheses["ring_class"] is not None \
        and hypotheses["two_periodic"]
    return {"lengths": lengths, "gaps": gaps, "hypotheses": hypotheses,
            "window": window, "refutation_grade_anomaly": flagged,
            "ci_dim": "unknown"}


# ---------------------------------------------------------------------------
# torsion probes


def _torsion_both_ways(m):
    """len T(M) by the x-power path and by the biduality kernel, which share
    no computation; ArithmeticError when they disagree."""
    l_x = torsion_length(m)
    l_bid = biduality_map(m).kernel_length()
    if l_x != l_bid:
        raise ArithmeticError("torsion algorithms disagree: "
                              f"x-power {l_x}, biduality {l_bid}")
    return l_x


def hw_check(module: PresentedModule, window=8):
    """Torsion probe for M (x) M* over a one-dimensional domain.

    Requires a nonfree module that saturation finds torsion-free; reports
    the torsion length of the tensor product with its dual, the Tate and
    Ext cross-checks, the periodicity flag, and the final verdict.  The
    length is read twice from Hilbert numerators, with no torsion module
    built: by the powers of one variable (``torsion_length``) and as the
    kernel length of the biduality map; they must agree.  M* is memoized on
    M, so the Tate cross-check reuses it.  A vanishing torsion triggers a
    recheck by both, over the ring rebuilt under the other term order,
    before a counterexample candidate is reported.
    """
    ring = module.ring
    if ring.dim != 1:
        raise HypothesisError("the torsion probe needs a one-dimensional ring")
    if not ring.domain:
        raise HypothesisError("the torsion probe needs an asserted domain")
    if module.is_zero() or module.is_free():
        raise HypothesisError("the module must be nonfree (and nonzero)")
    t_self, _ = torsion_submodule(module, "saturation")
    if not t_self.is_zero():
        raise HypothesisError("the module must be torsion-free")
    mdual = dual(module)
    prod = tensor(module, mdual)
    torsion_len = _torsion_both_ways(prod)
    report = {"torsion_length": torsion_len, "window": window,
              "ci_dim": "unknown"}
    trimmed, _ = module.trim_free_summands()
    report["two_periodic"] = _is_two_periodic(trimmed)
    if ring.is_hypersurface:
        tate_window = min(window, 4)
        cr = complete_resolution(trimmed, 2, window=tate_window)
        report["tate_verification_window"] = tate_window
        t0 = tate_tor_length(cr, dual(trimmed), 0)
        report["tate_tor0_length"] = t0
        agree = (t0 == 0) == (torsion_len == 0)
        report["tate_crosscheck_agrees"] = agree
        if not agree:
            raise ArithmeticError("Tate cross-check disagrees with torsion")
        ext1_zero = ext_is_zero(module, module, 1)
        report["ext1_vanishes"] = ext1_zero
        agree_ext = ext1_zero == (torsion_len == 0)
        report["ext_crosscheck_agrees"] = agree_ext
        if not agree_ext:
            raise ArithmeticError("Ext^1 cross-check disagrees with torsion")
    if torsion_len > 0:
        report["verdict"] = CONJECTURE_HOLDS
        return report
    # recheck before claiming a candidate: both algorithms, over the ring
    # rebuilt under the other term order, with cold memos
    amb = ring.ambient
    order = "grevlex" if amb.order == "lex" else "lex"
    other = PresentedModule(define_ring(amb.names, amb.weights, amb.p,
                                        ring.ideal_gens, order=order,
                                        domain=True),
                            module.twists, module.rels)
    recheck = _torsion_both_ways(tensor(other, dual(other)))
    report["recheck_torsion_length"] = recheck
    if recheck > 0:
        report["torsion_length"] = recheck
        report["verdict"] = CONJECTURE_HOLDS
        return report
    report["verdict"] = COUNTEREXAMPLE_CANDIDATE
    report["certificate"] = {
        "ring": repr(ring),
        "module_twists": list(module.twists),
        "module_relations": [sorted((f"{c},{m}", coef) for (c, m), coef
                                    in col.items()) for col in module.rels],
        "torsion_by_x_power": 0,
        "torsion_by_biduality": 0,
    }
    return report


def even_dim_torsion_check(module: PresentedModule):
    """Torsion in M (x) M* for a two-periodic MCM module, even dimension."""
    ring = module.ring
    if not ring.is_hypersurface:
        raise HypothesisError("this check runs over Gorenstein hypersurfaces")
    if ring.dim % 2 or ring.dim == 0:
        raise HypothesisError("the ring dimension must be even and positive")
    if module.is_zero():
        raise HypothesisError("the module must be nonzero")
    trimmed, free = module.trim_free_summands()
    if trimmed.is_zero():
        raise HypothesisError("the module is free, hence not two-periodic "
                              "after trimming")
    certify_two_periodic(trimmed)  # the matrix factorization: MCM too
    locus = module.nonfree_locus_dim()
    if locus > 0:
        raise HypothesisError("module is not locally free on the punctured "
                              f"spectrum (locus dimension {locus})")
    # the torsion is the kernel of the biduality map; an infinite length
    # (None) is nonzero torsion
    ln = biduality_map(tensor(module, dual(module))).kernel_length()
    return {"torsion_length": ln, "torsion_is_nonzero": ln != 0,
            "verdict": "TORSION_PRESENT" if ln != 0 else "ANOMALY",
            "locus_dim": locus}


def depth_zero_check(module: PresentedModule, window=6):
    """depth(M (x) M*) = 0 for a nonfree MCM module over a hypersurface."""
    ring = module.ring
    if not ring.is_hypersurface:
        raise HypothesisError("this check runs over hypersurfaces")
    if module.is_zero() or module.is_free():
        raise HypothesisError("the module must be nonfree")
    if depth(module) != ring.dim:
        raise HypothesisError("the module is not maximal Cohen-Macaulay")
    b = betti_numbers(module, window)
    if max(b[window // 2:]) != min(b[window // 2:]):
        raise HypothesisError("Betti numbers are not bounded in the window")
    locus = module.nonfree_locus_dim()
    if locus > 0:
        raise HypothesisError("module is not locally free on the punctured "
                              f"spectrum (locus dimension {locus})")
    module.rank()  # raises unless the ring is an asserted domain
    d = depth(tensor(module, dual(module)))
    return {"depth": d, "verdict": "DEPTH_ZERO" if d == 0 else "ANOMALY",
            "betti_window": b}
