import heapq
from collections import defaultdict
from functools import partial
from itertools import count

import pytest

from hwprobe import (
    define_ring,
    groebner,
    ideal_module,
    parse_polynomial,
    quotient_module,
)
from hwprobe.freemod import (
    isub_shifted,
    pack_mono,
    pack_term,
    pack_vec,
    row_insert,
    unpack_mono,
    unpack_term,
    vec_component,
    vec_degree,
    vec_from_polys,
    vec_mul_term,
)
from hwprobe.freemod import schreyer_key
from hwprobe.groebner import InhomogeneousError, poly_det, vec_nf_ideal
from hwprobe.hilbert import minimalize_monomials, std_monomials_of_degree
from hwprobe.homalg import DualComplex, _cycle_data, tensor_maps


def poly(ring_q, text):
    return parse_polynomial(ring_q.ambient, text)


@pytest.fixture(scope="session")
def cusp():
    return define_ring(["x", "y"], [3, 2], 7, ["x^2 - y^3"], domain=True)


@pytest.fixture(scope="session")
def cusp_m(cusp):
    return ideal_module(cusp, [poly(cusp, "x"), poly(cusp, "y")])


@pytest.fixture(scope="session")
def threefold():
    return define_ring(["x", "y", "z", "w"], [1, 1, 1, 1], 101,
                       ["x*w - y*z"], domain=True)


@pytest.fixture(scope="session")
def threefold_mn(threefold):
    m = quotient_module(threefold, [poly(threefold, "x"), poly(threefold, "z")])
    n = quotient_module(threefold, [poly(threefold, "x"), poly(threefold, "y")])
    return m, n


@pytest.fixture(scope="session")
def surface():
    return define_ring(["x", "y", "z"], [1, 1, 1], 101, ["x*z - y^2"],
                       domain=True)


@pytest.fixture(scope="session")
def surface_mcm(surface):
    from hwprobe import PresentedModule
    return PresentedModule(surface, (0, 0), [
        {(0, (1, 0, 0)): 1, (1, (0, 1, 0)): 1},
        {(0, (0, 1, 0)): 1, (1, (0, 0, 1)): 1},
    ])


GP_IDEAL = ["x1^2", "x2^2", "x3^2", "x3*x4", "x4^2",
            "x1*x4 + x2*x4", "2*x1*x3 + x2*x3"]


def gp_matrix_cols(ring_q, n, alpha=2):
    """Columns of the n-th differential of the periodic two-generator module."""
    p = ring_q.ambient.p
    a = pow(alpha, n, p)
    nv = ring_q.ambient.nvars
    e = [tuple(1 if i == j else 0 for i in range(nv)) for j in range(nv)]
    col1 = {(0, e[0]): 1}
    col2 = {(0, e[2]): a, (0, e[3]): 1, (1, e[1]): 1}
    return [col1, col2]


@pytest.fixture(scope="session")
def gp_ring():
    return define_ring(["x1", "x2", "x3", "x4"], [1, 1, 1, 1], 5, GP_IDEAL)


@pytest.fixture(scope="session")
def gp_ring_t():
    return define_ring(["x1", "x2", "x3", "x4", "t"], [1, 1, 1, 1, 1], 5,
                       GP_IDEAL)


@pytest.fixture(scope="session")
def gp_module_t(gp_ring_t):
    from hwprobe import PresentedModule
    return PresentedModule(gp_ring_t, (0, 0), gp_matrix_cols(gp_ring_t, 1))


@pytest.fixture(scope="session")
def fermat_dim1():
    return define_ring(["x", "y"], [4, 3], 101, ["x^3 - y^4"], domain=True)


@pytest.fixture(scope="session")
def torus_dim1():
    return define_ring(["x", "y"], [5, 2], 101, ["x^2 - y^5"], domain=True)


@pytest.fixture(scope="session")
def t345():
    """k[t^3, t^4, t^5]: a one-dimensional domain, not Gorenstein."""
    return define_ring(["x", "y", "z"], [3, 4, 5], 101,
                       ["x^3 - y*z", "y^2 - x*z", "z^2 - x^2*y"], domain=True)


def mono_divides(a, b):
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def tensor_cycle_data(cx, n, i):
    """Cycle data ``(twists, Z, B)`` of H_i(C (x) N) inside C_i (x) N, or
    None if C_i or N is 0: what ``subquotient`` finishes over dim > 0."""
    return _cycle_data(n, tensor_maps(cx, n, i))


def hom_cycle_data(cx, n, i):
    """Cycle data of H^i(Hom(C, N)) in Hom(C_i, N), or None if C_i or N is 0."""
    return _cycle_data(n, tensor_maps(DualComplex(cx), n, -i))


def reference_minimal_generators(ring_q, vectors, twists, modulo=None):
    """The package's earlier ``minimal_generators``, kept as a reference.

    Generators are processed by increasing degree; one is kept iff it is
    linearly independent, in its degree, of every kept generator times every
    monomial of the complementary degree.  It shares no code with the strand
    test that the package uses now.
    """
    ring = ring_q.ambient
    p = ring.p
    if modulo is None:
        reduce = mul_nf = partial(vec_nf_ideal, ring_q)
    else:
        reduce = modulo.normal_form

        def mul_nf(v, m):
            return reduce(vec_mul_term(v, m, 1, p))
    items = []
    for i, v in enumerate(vectors):
        v = reduce(v)
        if not v:
            continue
        d = vec_degree(ring, v, twists)
        if d is None:
            raise InhomogeneousError("minimal_generators needs homogeneous input")
        items.append((d, i, v))
    items.sort(key=lambda t: (t[0], t[1]))
    kept = []
    idx = 0
    while idx < len(items):
        d = items[idx][0]
        pivots = {}
        for dg, g in kept:
            e = d - dg
            if e < 0:
                continue
            for m in ring.monomials_of_degree(e):
                row_insert(mul_nf(g, m), pivots, None, p)
        while idx < len(items) and items[idx][0] == d:
            v = items[idx][2]
            if row_insert(dict(v), pivots, None, p) is not None:
                kept.append((d, v))
            idx += 1
    return [g for _, g in kept]


def reference_minimal_by_degree(ring, pieces, mul_nf, modulo=None):
    """The package's earlier ``groebner.minimal_by_degree``, kept as a
    reference for the strand test that stops once the span fills Z_D.

    ``pieces`` gives ``(D, vectors of degree D)``; every product x * v of
    the lower spans is made and every vector is tested.
    """
    p = ring.p
    variables = [(tuple(int(i == k) for i in range(ring.nvars)), w)
                 for k, w in enumerate(ring.weights)]
    top = max(ring.weights)
    spans = {}
    kept = []
    for d, vectors in pieces:
        span = dict(modulo.get(d, {})) if modulo else {}
        for x, w in variables:
            for row in spans.get(d - w, {}).values():
                row_insert(mul_nf(row, x), span, None, p)
        kept.extend(v for v in vectors if row_insert(dict(v), span, None, p))
        spans[d] = span
        spans.pop(d - top, None)
    return kept


def reference_minimal_kernel(blocks, twists, cols, target, *, source_mod=None,
                             target_mod=None):
    """The package's earlier ``Blocks.minimal_kernel``, kept as a reference.

    It reads no target twists: every basis vector's image is computed, in
    every degree, and the kernels go to ``reference_minimal_by_degree``.
    """
    if not twists:
        return []
    p = blocks.ring.p
    g = len(blocks.std)
    nvars = blocks.ring.ambient.nvars
    tables = [[[unpack_mono(m, nvars) for m in ms] for ms in blocks.std[j % g]]
              for j in range(len(twists))]
    cols = [pack_vec(c) for c in cols]

    def unpacked(packed):
        return [(unpack_term(t, nvars), v) for t, v in packed.items()]

    def kernels():
        for d in range(min(twists),
                       max(a + len(t) for a, t in zip(twists, tables))):
            basis = [(j, m) for j, a in enumerate(twists)
                     if 0 <= d - a < len(tables[j]) for m in tables[j][d - a]]
            pivots = dict(target_mod.get(d, {})) if target_mod else {}
            for n, (j, m) in enumerate(basis):
                row = target.mul_nf(cols[j], pack_mono(m))
                row[pack_term((-1, n))] = 1
                row_insert(row, pivots, None, p)
            yield d, [{pack_term(basis[n]): c for (_, n), c in unpacked(row)}
                      for (comp, _), row in unpacked(pivots) if comp < 0]

    return [dict(unpacked(v)) for v in reference_minimal_by_degree(
        blocks.ring.ambient, kernels(),
        lambda v, x: blocks.mul_nf(v, pack_mono(x)), source_mod)]


def reference_invert_graded_matrix(ring_q, cols, row_twists):
    """The package's earlier inverse by cofactor expansion, kept as a
    reference for the inverse by lifting.

    Inverse of a square graded matrix over R whose determinant is a unit;
    ValueError otherwise.  It makes no tracked Buchberger run.
    """
    ring = ring_q.ambient
    n = len(cols)
    if n != len(row_twists):
        raise ValueError("matrix must be square")

    def entry(r, c):
        return vec_component(cols[c], r)

    det = ring_q.nf(poly_det(ring, entry, range(n), range(n)))
    u = det.get(ring.zero_mono)
    if len(det) != 1 or not u:
        raise ValueError("matrix is not invertible over the quotient ring")
    uinv = ring.field.inv(u)

    def cofactor(i, j):
        rows = tuple(r for r in range(n) if r != j)
        cs = tuple(c for c in range(n) if c != i)
        sign = -1 if (i + j) % 2 else 1
        return ring_q.nf(ring.scale(poly_det(ring, entry, rows, cs), sign * uinv))

    return [vec_from_polys(cofactor(i, j) for i in range(n)) for j in range(n)]


def reference_buchberger_core(order, gens, twists, track=False, blocks=()):
    """The package's earlier ``_buchberger_core``, kept as a reference.

    Same inputs and outputs, but every pair of leading terms in a component
    is reduced: no criterion skips a pair, and the packed ideal ``blocks``
    are inputs like any other, their pairs among themselves included.  It
    does not check the packing bound of S-pairs, so keep its inputs small.
    Reductions go through ``groebner._reduce`` looked up at call time, so a
    test can count them.
    """
    ring = order.ring
    p = ring.p
    bits, mask, fmask = order.bits, order.mask, ring.field_mask
    slots, rises = groebner._slots(order, twists)
    packed = []
    for g in gens:
        v, heights = groebner._pack(order, slots, g)
        if len(heights) > 1:
            raise InhomogeneousError("generators must be homogeneous")
        packed.append(v)
    packed += blocks
    rep_order = rsh = None
    if track:
        zero = order((0, ring.zero_mono))
        rep_order = schreyer_key(order, [max(v) if v else zero for v in packed])
        rsh = rep_order.bits - bits
    basis, lts, fields, reps = [], [], [], []
    by_code = defaultdict(list)
    prepared = (basis, lts, fields, by_code)
    heap = []
    seq = count()
    syzygies = []

    def add(v, rep):
        lt = max(v)
        s = ring.field.inv(v[lt])
        v = ring.scale(v, s)
        idx = len(basis)
        code = lt & mask
        f = -(lt >> bits) & fmask
        for i in by_code[code]:
            deg, k = ring.fields_lcm(fields[i], f)
            heapq.heappush(heap, (deg + rises[code], next(seq), i, idx,
                                  (k << bits) | code))
        by_code[code].append(idx)
        basis.append(v)
        lts.append(lt)
        fields.append(f)
        if track:
            reps.append(ring.scale(rep, s))

    for i, v in enumerate(packed):
        unit = {rep_order((i, ring.zero_mono)): 1} if track else None
        if v:
            add(v, unit)
        elif track:
            syzygies.append(unit)
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        di, dj = lcm - lts[i], lcm - lts[j]
        s = {t + di: c for t, c in basis[i].items()}
        isub_shifted(s, basis[j], dj, 1, p)
        rep = None
        if track:
            rep = {t + (di << rsh): c for t, c in reps[i].items()}
            isub_shifted(rep, reps[j], dj << rsh, 1, p)
        r, quot = (groebner._reduce(order, s, prepared, track) if s
                   else ({}, {}))
        if track:
            for idx, qd in quot.items():
                for d, q in qd.items():
                    isub_shifted(rep, reps[idx], d << rsh, q, p)
        if r:
            add(r, rep)
        elif track and rep:
            syzygies.append(rep)
    return basis, reps, syzygies, rep_order


def reference_hom_maps(cx, n, i):
    """The package's earlier Hom-side layout, kept as a reference for the
    Hom side built as the tensor side of ``homalg.DualComplex``.

    Returns ``(F_i, F_{i+1}, Hom(d_{i+1}, N), Hom(d_i, N), twists)``, or None
    if C_i or N is zero: each block column is laid out by scanning every
    entry of d once per source component, and ``twists`` turns generator
    degrees of C into those of Hom(C, N).
    """
    f_i = cx.twists_at(i)
    if not f_i or n.is_zero():
        return None
    g_n = n.ngens

    def block_cols(d_cols, n_src_comps):
        out = []
        for c in range(n_src_comps):
            for k in range(g_n):
                col = {}
                for cp, dcol in enumerate(d_cols):
                    for (j, m), coef in dcol.items():
                        if j == c:
                            col[(cp * g_n + k, m)] = coef
                out.append(col)
        return out

    def twists(f_twists, n_module):
        return tuple(b - t for t in f_twists for b in n_module.twists)

    return (f_i, cx.twists_at(i + 1),
            block_cols(cx.differential(i + 1), len(f_i)),
            block_cols(cx.differential(i), len(cx.twists_at(i - 1))), twists)


def reference_rows(blocks, cols):
    """x^m times each column c, m over every standard monomial of c's
    component in the source: the package's earlier ``Blocks.rows``."""
    g = len(blocks.std)
    for c, col in enumerate(cols):
        for ms in blocks.std[c % g]:
            for m in ms:
                yield blocks.mul_nf(pack_vec(col), m)


def reference_rank(blocks, cols):
    """The package's earlier ``Blocks.rank``, kept as a reference for the
    rank read from spans: the F_p-rank of the images of the whole source
    basis, with no target twists and no stop."""
    pivots = {}
    for row in reference_rows(blocks, cols):
        row_insert(row, pivots, None, blocks.ring.p)
    return len(pivots)


def reference_image(blocks, cols, twists):
    """The package's earlier ``Blocks.image``: every row of the source
    basis, in order, into ``{D: echelon pivots}``."""
    mono_deg = blocks.ring.ambient.mono_deg
    out = {}
    for row in reference_rows(blocks, cols):
        if row:
            j, m = unpack_term(next(iter(row)), blocks.ring.ambient.nvars)
            row_insert(row, out.setdefault(twists[j] + mono_deg(m), {}),
                       None, blocks.ring.p)
    return out


def reference_std_monomials(ring, gens):
    """The package's earlier ``hilbert.std_monomials``: every monomial of
    each degree up to the pure-power bound, tested against the ideal."""
    gens = minimalize_monomials(gens)
    bound = 0
    for k, w in enumerate(ring.weights):
        e = min(g[k] for g in gens if sum(g) == g[k])
        bound += (e - 1) * w
    table = [std_monomials_of_degree(ring, gens, d) for d in range(bound + 1)]
    while table and not table[-1]:
        table.pop()
    return table
