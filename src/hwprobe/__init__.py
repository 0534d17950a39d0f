"""Exact graded homological algebra over quotients of polynomial rings.

The package computes minimal free resolutions, Tor/Ext, Hilbert data, Tate
(co)homology of periodic modules via matrix factorizations, the theta
invariant, and torsion probes for tensor products M (x) M* over
one-dimensional graded domains.  All arithmetic is exact over prime fields;
weighted gradings make quasihomogeneous hypersurfaces first-class.
"""

__version__ = "0.1.0"

from .field import PrimeField
from .grammar import ParseError, parse_polynomial
from .groebner import (
    GroebnerBasis,
    groebner_basis,
    minimal_generators,
    minimalize_presentation,
    saturate,
    syzygy_generators,
)
from .homalg import (
    biduality_map,
    depth,
    dual,
    ext,
    grade,
    hom,
    tensor,
    tor,
    tor_length,
    torsion_length,
    torsion_submodule,
    transpose,
)
from .isomorphism import ISO, NOT_ISO, UNDECIDED, IsoResult, is_isomorphic
from .modules import (
    GradedMap,
    HypothesisError,
    PresentedModule,
    free_module,
    ideal_module,
    quotient_module,
    residue_field_module,
)
from .quotient import NotDomainError, QuotientRing, define_ring
from .resolution import (
    Resolution,
    betti_numbers,
    complexity_estimate,
    minimal_free_resolution,
    syzygy_module,
)
from .ring import PolyRing
from .tate import (
    CompleteResolution,
    MatrixFactorization,
    complete_resolution,
    matrix_factorization_of,
    tate_ext,
    tate_ext_length,
    tate_tor,
    tate_tor_length,
)
from .theta import (
    CONJECTURE_HOLDS,
    COUNTEREXAMPLE_CANDIDATE,
    ThetaResult,
    depth_zero_check,
    even_dim_torsion_check,
    hw_check,
    rigidity_probe,
    theta,
    theta_additivity_check,
    verify_short_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
