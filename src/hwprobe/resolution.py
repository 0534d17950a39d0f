"""Minimal graded free resolutions over quotient rings.

Each step computes the R-syzygies of the previous differential's columns and
cuts them to a minimal generating set, so every differential has entries in
the irrelevant ideal and the Betti numbers can be read off directly.
Resolutions are cached on the module and extended on demand; a cache entry is
either absent or a fully computed prefix.
"""

import math

from .freemod import compose_cols, vec_degree
from .groebner import minimal_generators, syzygies_over_quotient, vec_nf_ideal
from .modules import PresentedModule


class Resolution:
    """A computed prefix d_1, ..., d_t of the minimal free resolution.

    ``diffs[i]`` holds the columns of d_{i+1}; ``level_twists[i]`` the
    generator degrees of the i-th free module, so d_{i+1} maps the free
    module on ``level_twists[i+1]`` into the one on ``level_twists[i]``.
    """

    def __init__(self, module):
        self.module = module
        self.ring = module.ring
        amb = module.ring.ambient
        first = list(module.rels)
        self.diffs = [first]
        self.level_twists = [module.twists,
                             tuple(vec_degree(amb, c, module.twists) for c in first)]

    @property
    def length(self):
        return len(self.diffs)

    def extend(self, t):
        amb = self.ring.ambient
        while len(self.diffs) < t:
            cols = self.diffs[-1]
            ambient_twists = self.level_twists[-2]
            src_twists = self.level_twists[-1]
            if not cols:
                self.diffs.append([])
                self.level_twists.append(())
                continue
            syz = syzygies_over_quotient(self.ring, cols, ambient_twists)
            nxt = minimal_generators(self.ring, syz, src_twists)
            self.diffs.append(nxt)
            self.level_twists.append(
                tuple(vec_degree(amb, c, src_twists) for c in nxt))
        return self

    def betti(self, i):
        """Rank of the i-th free module (b_0 = number of generators)."""
        if i < 0:
            raise ValueError("negative homological degree")
        self.extend(max(i, 1))
        return len(self.level_twists[i])

    def betti_numbers(self, window):
        """Betti numbers b_0, ..., b_window.

        Builds exactly the ``window`` differentials d_1, ..., d_window that
        these need: b_i is the rank of F_i, the source of d_i, and d_1 comes
        with the presentation.
        """
        self.extend(window)
        return [len(self.level_twists[i]) for i in range(window + 1)]

    def differential(self, i):
        """Columns of d_i: F_i -> F_{i-1}; d_0 is the zero map F_0 -> 0."""
        if i < 0:
            raise ValueError("differentials are indexed from 0")
        if i == 0:
            return [{} for _ in self.level_twists[0]]
        self.extend(i)
        return self.diffs[i - 1]

    def twists_at(self, i):
        """Generator degrees of F_i; F_i is zero for i < 0."""
        if i < 0:
            return ()
        self.extend(max(i, 1))
        return self.level_twists[i]

    def is_minimal(self):
        zero = self.ring.ambient.zero_mono
        return all(all(m != zero for (_c, m) in col)
                   for cols in self.diffs for col in cols)

    def verify(self, upto=None):
        """d_i o d_{i+1} = 0 over R for i up to the requested bound."""
        upto = upto if upto is not None else self.length - 1
        self.extend(upto + 1)
        for i in range(1, upto + 1):
            comp = compose_cols(self.ring.ambient, self.differential(i),
                                self.differential(i + 1))
            for c in comp:
                if vec_nf_ideal(self.ring, c):
                    return False
        return True


def resolution_of(module: PresentedModule, length: int) -> Resolution:
    """The cached minimal free resolution, extended to the given length."""
    res = module._cache.get("resolution")
    if res is None:
        res = Resolution(module)
        module._cache["resolution"] = res
    res.extend(length)
    return res


def minimal_free_resolution(module: PresentedModule, length: int) -> Resolution:
    if length < 1:
        raise ValueError("resolution length must be >= 1")
    return resolution_of(module, length)


def syzygy_module(module: PresentedModule, n: int, trim=False):
    """The n-th syzygy: presented by d_{n+1} on the n-th level generators.

    Free summands are kept unless ``trim`` is set; n = 0 returns the module
    itself.
    """
    if n < 0:
        raise ValueError("negative syzygy index: cosyzygies live in the "
                         "complete-resolution layer")
    if n == 0:
        return module
    res = resolution_of(module, n + 1)
    m = PresentedModule(module.ring, res.twists_at(n),
                        res.differential(n + 1), normalize=False)
    if trim:
        m, _ = m.trim_free_summands()
    return m


def betti_numbers(module: PresentedModule, window: int):
    return resolution_of(module, window).betti_numbers(window)


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
        logs = [(math.log(i), math.log(b[i])) for i in xs[len(xs) // 2:]]
        n = len(logs)
        sx = sum(x for x, _ in logs)
        sy = sum(y for _, y in logs)
        sxx = sum(x * x for x, _ in logs)
        sxy = sum(x * y for x, y in logs)
        denom = n * sxx - sx * sx
        if denom > 1e-12:
            slope = (n * sxy - sx * sy) / denom
            out["classification"] = "polynomial-growth"
            out["fitted_degree"] = round(slope, 2)
            return out
    out["classification"] = "inconclusive"
    return out
