"""Weighted-graded multivariate polynomial arithmetic over a prime field.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
``[1, p)``; the zero polynomial is the empty dict.  A *term* is a pair
``(monomial, coefficient)``.  All operations are pure functions on these
dicts, dispatched through a :class:`PolyRing` that fixes the variables, the
weights of the grading and the monomial order.
"""

from functools import wraps

from .field import PrimeField

Mono = tuple  # exponent vector
Poly = dict   # Mono -> coefficient in [1, p)


def memoized(fn):
    """Cache ``fn(owner, *args)`` on the owner: the one memo of the package.

    The value is kept in the owner's ``__dict__`` under ``(fn, args)``, so it
    lives exactly as long as the owner and is never shared with an equal
    owner built apart.  The arguments must be hashable; a value of None is
    kept like any other.
    """
    @wraps(fn)
    def memo(owner, *args):
        store = owner.__dict__
        key = (fn, args)
        try:
            return store[key]
        except KeyError:
            value = store[key] = fn(owner, *args)
            return value
    return memo


def _grevlex(weights):
    """Weighted degree first, ties broken reverse-lexicographically.

    ``u > v`` iff ``deg u > deg v``, or degrees agree and the last nonzero
    entry of ``u - v`` is negative.
    """
    def mono_key(m: Mono):
        return (sum(e * wi for e, wi in zip(m, weights)),
                tuple(-e for e in reversed(m)))
    return mono_key


def _lex(weights):
    """Pure lexicographic order on exponent vectors."""
    return lambda m: m


# name -> builder: weights -> sort key of a monomial (larger is larger)
ORDERS = {"grevlex": _grevlex, "lex": _lex}


class PolyRing:
    """Ambient polynomial ring: named variables, positive weights, F_p.

    ``order`` names the monomial order, a key of ``ORDERS``.
    """

    def __init__(self, names, weights, p, order="grevlex"):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("one weight per variable required")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        if any(w < 1 for w in weights):
            raise ValueError(f"weights must be >= 1: {weights}")
        self.names = names
        self.weights = weights
        self.nvars = len(names)
        self.field = PrimeField(p)
        self.p = self.field.p
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r}; "
                             f"expected one of {sorted(ORDERS)}")
        self.order = order
        self.mono_key = ORDERS[order](weights)
        self.zero_mono = (0,) * self.nvars
        # the one table outside ``memoized``: mono_deg is hot arithmetic
        self._mono_deg_cache = {}

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.names == self.names
                and other.weights == self.weights and other.p == self.p
                and other.order == self.order)

    def __hash__(self):
        return hash((self.names, self.weights, self.p, self.order))

    def __repr__(self):
        vs = ",".join(self.names)
        return f"F{self.p}[{vs}; weights={list(self.weights)}]"

    # -- monomials ---------------------------------------------------------

    def mono_deg(self, m: Mono) -> int:
        d = self._mono_deg_cache.get(m)
        if d is None:
            d = sum(e * w for e, w in zip(m, self.weights))
            self._mono_deg_cache[m] = d
        return d

    def mono_mul(self, a: Mono, b: Mono) -> Mono:
        return tuple(x + y for x, y in zip(a, b))

    def mono_divides(self, a: Mono, b: Mono) -> bool:
        """a | b componentwise."""
        return all(x <= y for x, y in zip(a, b))

    def mono_div(self, a: Mono, b: Mono):
        """a / b, or None when not divisible."""
        q = tuple(x - y for x, y in zip(a, b))
        return None if any(e < 0 for e in q) else q

    def mono_lcm(self, a: Mono, b: Mono) -> Mono:
        return tuple(max(x, y) for x, y in zip(a, b))

    @memoized
    def monomials_of_degree(self, d: int):
        """All exponent tuples of weighted degree exactly d."""
        out = []
        n, w = self.nvars, self.weights

        def rec(i, rem, acc):
            if i == n - 1:
                if rem % w[i] == 0:
                    out.append(tuple(acc + [rem // w[i]]))
                return
            for e in range(rem // w[i] + 1):
                rec(i + 1, rem - e * w[i], acc + [e])

        if d >= 0:
            if n:
                rec(0, d, [])
            elif d == 0:
                out.append(())
        return tuple(out)

    # -- polynomial arithmetic ---------------------------------------------
    #
    # ``add``, ``sub`` and ``scale`` never look at the keys of their dicts,
    # so they serve free-module vectors ((component, monomial) keys) too.

    def zero(self) -> Poly:
        return {}

    def one(self) -> Poly:
        return {self.zero_mono: 1}

    def const(self, c: int) -> Poly:
        c %= self.p
        return {self.zero_mono: c} if c else {}

    def var(self, i: int) -> Poly:
        m = [0] * self.nvars
        m[i] = 1
        return {tuple(m): 1}

    def add(self, f: Poly, g: Poly) -> Poly:
        p = self.p
        out = dict(f)
        for m, c in g.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def sub(self, f: Poly, g: Poly) -> Poly:
        p = self.p
        out = dict(f)
        for m, c in g.items():
            v = (out.get(m, 0) - c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return out

    def neg(self, f: Poly) -> Poly:
        p = self.p
        return {m: p - c for m, c in f.items()}

    def scale(self, f: Poly, c: int) -> Poly:
        c %= self.p
        if not c:
            return {}
        p = self.p
        return {m: cc * c % p for m, cc in f.items()} if c != 1 else dict(f)

    def mul_term(self, f: Poly, m: Mono, c: int) -> Poly:
        c %= self.p
        if not c or not f:
            return {}
        p = self.p
        out = {}
        for mm, cc in f.items():
            out[tuple(x + y for x, y in zip(mm, m))] = cc * c % p
        return out

    def mul(self, f: Poly, g: Poly) -> Poly:
        p = self.p
        out = {}
        if len(f) > len(g):
            f, g = g, f
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    del out[m]
        return out

    def pow(self, f: Poly, e: int) -> Poly:
        out = self.one()
        for _ in range(e):
            out = self.mul(out, f)
        return out

    # -- structure ----------------------------------------------------------

    def homogeneous_degree(self, f: Poly):
        """Common weighted degree of the terms, or None when inhomogeneous.

        The zero polynomial is homogeneous of every degree; returns 0 for it.
        """
        degs = {self.mono_deg(m) for m in f}
        if not degs:
            return 0
        if len(degs) > 1:
            return None
        return degs.pop()

    def leading_term(self, f: Poly):
        """Order-maximal term ``(monomial, coefficient)`` of a nonzero poly."""
        if not f:
            raise ZeroDivisionError("leading term of the zero polynomial")
        m = max(f, key=self.mono_key)
        return m, f[m]

    def term_divide(self, t, u):
        """Quotient term t/u with exact coefficient division, else None."""
        (mt, ct), (mu, cu) = t, u
        q = self.mono_div(mt, mu)
        if q is None:
            return None
        return (q, self.field.div(ct, cu))

    # -- formatting ----------------------------------------------------------

    def format_poly(self, f: Poly) -> str:
        if not f:
            return "0"
        parts = []
        for m in sorted(f, key=self.mono_key, reverse=True):
            c = f[m]
            factors = []
            if c != 1 or m == self.zero_mono:
                factors.append(str(c))
            for name, e in zip(self.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
