"""Weighted-graded multivariate polynomial arithmetic over a prime field.

A polynomial is a dict mapping exponent tuples to nonzero coefficients in
``[1, p)``; the zero polynomial is the empty dict.  A *term* is a pair
``(monomial, coefficient)``.  All operations are pure functions on these
dicts, dispatched through a :class:`PolyRing` that fixes the variables, the
weights of the grading and the monomial order.

The monomial order is one linear form on exponent vectors, ``mono_key``
(see ``ORDERS``): an int whose integer order is the monomial order, from
which ``key_mono`` reads the monomial back.  The Groebner core computes on
these ints; a monomial has one while its weighted degree is below
``DEGREE_LIMIT``.
"""

from functools import wraps
from operator import add, floordiv, mul
from struct import Struct

from .field import PrimeField

Mono = tuple  # exponent vector
Poly = dict   # Mono -> coefficient in [1, p)


def memoized(fn):
    """Cache ``fn(owner, *args)`` on the owner: the one memo of the package.

    The value is kept in the owner's ``__dict__`` under ``(fn, args)``, so it
    lives exactly as long as the owner and is never shared with an equal
    owner built apart.  The arguments must be hashable; a value of None is
    kept like any other.  A value must not refer back to its owner (a bound
    method of it, say): the cycle would keep the owner until the cyclic
    collector runs.
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


def isub(acc, v, c, p):
    """In place: acc -= c * v over F_p, on dicts with keys of any kind; an
    entry that reaches zero is removed.  The one such loop on unpacked keys
    (``freemod.isub_shifted`` is its twin on packed ones)."""
    for t, cc in v.items():
        val = (acc.get(t, 0) - c * cc) % p
        if val:
            acc[t] = val
        else:
            acc.pop(t, None)


def int_tuple(values, what):
    """The values as a tuple; ValueError unless each is an int and not a
    bool, as ``PrimeField`` asks of p, so that no float is truncated."""
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return values


# Bits of one field of a packed monomial.  A field holds a weighted exponent
# w_i * e_i, and its top bit is a guard bit, so a monomial packs only while
# its weighted degree is below DEGREE_LIMIT; 16 bits make a field a struct "H".
FIELD_BITS = 16
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)


def _grevlex(weights):
    """Weighted degree first, ties broken reverse-lexicographically.

    ``u > v`` iff ``deg u > deg v``, or degrees agree and the last nonzero
    entry of ``u - v`` is negative.  The high part of the key is the degree.
    """
    return weights


def _lex(weights):
    """Pure lexicographic order on exponent vectors.

    The high part of the key holds the weighted exponents in fields, the
    first variable's topmost.
    """
    n = len(weights)
    return tuple(w << FIELD_BITS * (n - 1 - i) for i, w in enumerate(weights))


# name -> builder: weights -> coefficients h of the high part H(m) = h . m.
# The order's key is the linear form K(m) = H(m) * 2^(W n) - F(m), where the
# low part F(m) = sum w_i e_i 2^(W i) packs the weighted exponents into one
# W-bit field each (W = FIELD_BITS).  F never reaches 2^(W n), so K orders
# by H, and by -F where H ties: for grevlex that is the reverse-lexicographic
# tie-break, for lex H alone decides.  F is read back as (-K) mod 2^(W n).
ORDERS = {"grevlex": _grevlex, "lex": _lex}


class PolyRing:
    """Ambient polynomial ring: named variables, positive weights, F_p.

    ``order`` names the monomial order, a key of ``ORDERS``.  There is at
    least one variable: with none, the strand frame's packed terms
    (``freemod.pack_term``) would share their ints with identity
    coordinates.
    """

    def __init__(self, names, weights, p, order="grevlex"):
        names = tuple(names)
        weights = int_tuple(weights, "weights")
        if not names:
            raise ValueError("a ring needs at least one variable")
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
        n = self.nvars
        high = ORDERS[order](weights)
        self.field_mask = (1 << FIELD_BITS * n) - 1
        self.guard = sum(1 << FIELD_BITS * (i + 1) - 1 for i in range(n))
        fields = Struct(f"<{n}H")
        self._pack_fields, self._unpack_fields = fields.pack, fields.unpack
        self._unit_weights = set(weights) <= {1}
        # None when H is the degree; else H's coefficients on e and on F
        self._high = None if high == weights else (
            high, tuple(h // w for h, w in zip(high, weights)))
        # the field sum F * ones lands in field n - 1 without carries while
        # every partial sum stays below 2^W, which a degree < 2^W ensures
        self._ones = sum(1 << FIELD_BITS * i for i in range(n))
        self._sum_shift = FIELD_BITS * (n - 1)
        self.zero_mono = (0,) * n

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
        return sum(map(mul, m, self.weights))

    def mono_deg_key(self, m: Mono):
        """``(mono_deg(m), mono_key(m))``.

        The key is the order's linear form K(m) = H(m) 2^(W n) - F(m) of
        ``ORDERS``; ValueError when m is past the packing bound (weighted
        degree DEGREE_LIMIT or more), where the key would mis-order.
        """
        f = m if self._unit_weights else tuple(map(mul, m, self.weights))
        deg = sum(f)
        if deg >= DEGREE_LIMIT:
            raise ValueError(f"monomial {m} has weighted degree {deg}, past "
                             f"the packing bound {DEGREE_LIMIT - 1}")
        high = deg if self._high is None else sum(map(mul, m, self._high[0]))
        return deg, (high << FIELD_BITS * self.nvars) - int.from_bytes(
            self._pack_fields(*f), "little")

    def mono_key(self, m: Mono) -> int:
        """The order's key: ``u > v`` iff ``mono_key(u) > mono_key(v)``.

        Linear, so ``mono_key(u * v) == mono_key(u) + mono_key(v)``.
        """
        return self.mono_deg_key(m)[1]

    def key_mono(self, k: int) -> Mono:
        """The monomial whose key is k: the inverse of ``mono_key``."""
        fields = self._unpack_fields((-k & self.field_mask).to_bytes(
            2 * self.nvars, "little"))
        if self._unit_weights:
            return fields
        return tuple(map(floordiv, fields, self.weights))

    def fields_lcm(self, fa: int, fb: int):
        """``(degree, key)`` of the lcm of the monomials with fields fa, fb.

        The lcm's fields are a masked select: where the guard bit survives
        ``(fa | guard) - fb``, fa's field is the larger.  Both monomials must
        be within the packing bound.
        """
        guard = self.guard
        sel = ((fa | guard) - fb) & guard
        keep = sel - (sel >> FIELD_BITS - 1)
        f = (fa & keep) | (fb & ~keep)
        deg = (f * self._ones >> self._sum_shift) & 2 * DEGREE_LIMIT - 1
        if self._high is None:
            high = deg
        else:
            high = sum(map(mul, self._unpack_fields(
                f.to_bytes(2 * self.nvars, "little")), self._high[1]))
        return deg, (high << FIELD_BITS * self.nvars) - f

    def mono_mul(self, a: Mono, b: Mono) -> Mono:
        return tuple(x + y for x, y in zip(a, b))

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
            rec(0, d, [])
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
        out = dict(f)
        isub(out, g, -1, self.p)
        return out

    def sub(self, f: Poly, g: Poly) -> Poly:
        out = dict(f)
        isub(out, g, 1, self.p)
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

    def mul(self, f: Poly, g: Poly) -> Poly:
        p = self.p
        out = {}
        if len(f) > len(g):
            f, g = g, f
        for m1, c1 in f.items():
            isub(out, {tuple(map(add, m1, m2)): c2 for m2, c2 in g.items()},
                 -c1, p)
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
