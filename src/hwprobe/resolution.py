"""Minimal graded free resolutions over quotient rings.

Each step finds a minimal generating set of the kernel of the previous
differential, so every differential has entries in the irrelevant ideal and
the Betti numbers can be read off directly.  The ring's dimension picks one
of two ways to do it:

* dim R > 0: the R-syzygies of the columns come from a tracked Schreyer run
  (``syzygies_over_quotient``) and are cut down by ``minimal_generators``;
* dim R = 0: every graded piece of a free module is a finite F_p-space with
  basis (generator j, standard monomial m), so the kernel Z_D in degree D is
  the nullspace of one sparse matrix and no Buchberger run is needed.
  ``modules.Blocks.minimal_kernel`` does this step; the (co)homology
  modules of ``homalg`` use the same routine for their generators and
  relations.

Both cut down to minimal generators with one test, the strand test of La
Scala and Stillman (JSC 1998) in ``groebner.minimal_by_degree``: a vector of
degree D is kept iff it is independent of sum_x x * span_{D - w(x)} and of
the earlier vectors of degree D.  The strand step hands it a basis of each
Z_D, so it stops once that span fills Z_D; the ranks behind Tor, Ext and
Tate lengths are read from the same spans (``modules.Blocks.rank``).  Both
paths fill the same ``diffs`` and ``level_twists``.  Each module has one
resolution, memoized on it and extended on demand; it always holds a fully
computed prefix.
"""

import math

from .freemod import pack_vec, vec_degree
from .groebner import composes_to_zero, minimal_generators, syzygies_over_quotient
from .modules import PresentedModule, ring_blocks
from .ring import memoized


class Resolution:
    """A computed prefix d_1, ..., d_t of the minimal free resolution.

    ``diffs[i]`` holds the columns of d_{i+1}; ``level_twists[i]`` the
    generator degrees of the i-th free module, so d_{i+1} maps the free
    module on ``level_twists[i+1]`` into the one on ``level_twists[i]``.
    """

    def __init__(self, module):
        self.ring = module.ring
        self.diffs = [list(module.rels)]
        self.level_twists = [module.twists, module.rel_degrees()]

    @property
    def length(self):
        return len(self.diffs)

    def extend(self, t):
        amb = self.ring.ambient
        packed = None  # over an Artinian ring, the last level in the frame
        while len(self.diffs) < t:
            cols = self.diffs[-1]
            ambient_twists = self.level_twists[-2]
            src_twists = self.level_twists[-1]
            if not cols:
                self.diffs.append([])
                self.level_twists.append(())
                continue
            if self.ring.dim == 0:
                free = ring_blocks(self.ring)
                if packed is None:
                    packed = [pack_vec(c) for c in cols]
                packed, twists = free.minimal_kernel(src_twists, packed, free,
                                                     ambient_twists)
                nxt = free.unpack(packed)
            else:
                syz = syzygies_over_quotient(self.ring, cols, ambient_twists)
                nxt = minimal_generators(self.ring, syz, src_twists)
                twists = tuple(vec_degree(amb, c, src_twists) for c in nxt)
            self.diffs.append(nxt)
            self.level_twists.append(twists)
        return self

    def betti(self, i):
        """Rank of the i-th free module (b_0 = number of generators)."""
        if i < 0:
            raise ValueError("negative homological degree")
        if i > self.length:
            self.extend(i)
        return len(self.level_twists[i])

    def betti_numbers(self, window):
        """Betti numbers b_0, ..., b_window.

        Builds exactly the ``window`` differentials d_1, ..., d_window that
        these need: b_i is the rank of F_i, the source of d_i, and d_1 comes
        with the presentation.
        """
        if window > self.length:
            self.extend(window)
        return [len(self.level_twists[i]) for i in range(window + 1)]

    def differential(self, i):
        """Columns of d_i: F_i -> F_{i-1}; for i <= 0 the zero map out of
        F_i, which is zero itself for i < 0."""
        if i <= 0:
            return [{} for _ in self.twists_at(i)]
        if i > self.length:
            self.extend(i)
        return self.diffs[i - 1]

    def twists_at(self, i):
        """Generator degrees of F_i; F_i is zero for i < 0."""
        if i < 0:
            return ()
        if i > self.length:
            self.extend(i)
        return self.level_twists[i]

    def is_minimal(self):
        zero = self.ring.ambient.zero_mono
        return all(all(m != zero for (_c, m) in col)
                   for cols in self.diffs for col in cols)

    def verify(self, upto=None):
        """d_i o d_{i+1} = 0 over R for i up to the requested bound."""
        upto = upto if upto is not None else self.length - 1
        if upto + 1 > self.length:
            self.extend(upto + 1)
        return all(composes_to_zero(self.ring, self.differential(i),
                                    self.differential(i + 1))
                   for i in range(1, upto + 1))


@memoized
def _resolution(module):
    return Resolution(module)


def resolution_of(module: PresentedModule, length: int) -> Resolution:
    """The module's minimal free resolution, extended to the given length."""
    res = _resolution(module)
    if length > res.length:
        res.extend(length)
    return res


def minimal_free_resolution(module: PresentedModule, length: int) -> Resolution:
    if length < 1:
        raise ValueError("resolution length must be >= 1")
    return resolution_of(module, length)


def syzygy_module(module: PresentedModule, n: int, trim=False):
    """The n-th syzygy: presented by d_{n+1} on the n-th level generators.

    Free summands are kept unless ``trim`` is set; n = 0 is the module
    itself.
    """
    if n < 0:
        raise ValueError("negative syzygy index: cosyzygies live in the "
                         "complete-resolution layer")
    m = module
    if n > 0:
        res = resolution_of(module, n + 1)
        m = PresentedModule(module.ring, res.twists_at(n),
                            res.differential(n + 1), normalize=False)
    if trim:
        m, _ = m.trim_free_summands()
    return m


def betti_numbers(module: PresentedModule, window: int):
    return resolution_of(module, window).betti_numbers(window)


def _line_fit(points):
    """Least-squares slope of y on x and the sum of squared residuals."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    slope = sum((x - mx) * (y - my) for x, y in points) / sxx
    return slope, sum((y - my - slope * (x - mx)) ** 2 for x, y in points)


def complexity_estimate(module: PresentedModule, window: int):
    """Window classification of Betti growth; a heuristic, never a proof."""
    if window < 4:
        raise ValueError("complexity estimates need a window of at least 4")
    b = betti_numbers(module, window)
    out = {"betti": b, "window": window,
           "note": "heuristic window estimate, not a proof"}
    if b[-1] == 0 and b[-2] == 0:
        pd = max((i for i, v in enumerate(b) if v), default=-1)
        out["classification"] = "pd-finite"
        out["pd"] = pd
        return out
    tail = b[window // 2:]
    if max(tail) == min(tail):
        out["classification"] = "bounded"
        return out
    xs = [i for i in range(1, window + 1) if b[i] > 0]
    if len(xs) >= 4:
        # on the tail, log b_i is a line in log i (polynomial growth) or in
        # i (exponential growth); two points fit both exactly
        ends = xs[len(xs) // 2:]
        degree, power_err = _line_fit([(math.log(i), math.log(b[i])) for i in ends])
        rate, exp_err = _line_fit([(i, math.log(b[i])) for i in ends])
        if len(ends) >= 3 and exp_err < power_err:
            out["classification"] = "exponential-growth"
            out["fitted_ratio"] = round(math.exp(rate), 2)
        else:
            out["classification"] = "polynomial-growth"
            out["fitted_degree"] = round(degree, 2)
        return out
    out["classification"] = "inconclusive"
    return out
