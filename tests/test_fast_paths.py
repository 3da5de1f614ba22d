"""Oracles for the fast paths.

Each test compares a fast path with the formula it replaced: the dense
loops, the divisor-based candidate roots, the Sturm bisection for integer
roots, the Nijenhuis trials that drew their moves of h afresh at every
basis pair, the d leading determinants, classify followed by a search, the
matrix of theta, the real J mixed from e_k = w + tau(w), g + l realified,
catalog bases as dense GQ matrices, catalog coordinates from the inverse
of a GQ block, and subspaces put in RREF by a second elimination.  The
old formula is kept here, and only here, as the reference.
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liecx import cli, cx, exact, roots
from liecx.exact import (
    _derivative, _divide_root, _primitive, _quotient, _remainder,
    GQ, Matrix, Subspace, ExactError, IrrationalSpectrum,
    charpoly, inverse, ivec, kernel, kernel_span, lincomb, rref, solve, vunit,
    vadd, vsub, vcat, vconj, vec, vneg, vscale, vzero, real_points,
    rational_eigenvalues, relative_complement, span_sum,
)
from liecx.liealg import (
    LieAlgebra, Quotient, Subalgebra, NotAbelian, center, centralizer, derived,
    extend_to_maximal_abelian, is_abelian, is_closed, is_nilpotent,
    is_solvable, normalizer, own_algebra, quotient, radical, restricted_ad,
    pair_brackets, _positive_definite,
)
from liecx.catalog import (
    InvalidSpec, build, build_subalgebra, direct_sum, su, so, u,
    _basis, _block_u_space, _reader,
)

from conftest import (
    ad, calabi_eckmann_instance, classified, flag_spec, parabolic_spaces,
    profiled, random_invariant_structures,
)
import test_atlas as atlas
from test_hygiene import _perfbench_module


# ---------------------------------------------------------------------------
# the oracles' scalar: a Gaussian rational with the field operations, and
# the GQ vector to integer-row conversions the library used to make

class Q(GQ):
    """GQ with +, -, *, / and conjugate, each on the Fraction parts; the
    library computes on Vec, these oracles on tuples of Q."""

    __slots__ = ()

    @staticmethod
    def coerce(x):
        if isinstance(x, Q):
            return x
        if isinstance(x, GQ):
            return Q(x.re, x.im)
        if isinstance(x, (int, Fraction)):
            return Q(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Q")

    def __add__(self, o):
        o = Q.coerce(o)
        return Q(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __sub__(self, o):
        o = Q.coerce(o)
        return Q(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return Q.coerce(o) - self

    def __mul__(self, o):
        o = Q.coerce(o)
        return Q(self.re * o.re - self.im * o.im,
                 self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Q.coerce(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return Q((self.re * o.re + self.im * o.im) / d,
                 (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return Q.coerce(o) / self

    def conjugate(self):
        return Q(self.re, -self.im)


ZERO, ONE, I = Q(0), Q(1), Q(0, 1)


def qv(v):
    """A vector (a Vec or any sequence of scalars) as a tuple of Q."""
    return tuple(Q.coerce(x) for x in v)


def int_entries(v):
    """(D, [(i, D re v_i, D im v_i) for the nonzero v_i]) with D the least
    common denominator of v's entries."""
    nonzero = [(i, x.re, x.im) for i, x in enumerate(v) if x]
    den = lcm(*(q.denominator for _, a, b in nonzero for q in (a, b)))
    return den, [(i, a.numerator * (den // a.denominator),
                  b.numerator * (den // b.denominator)) for i, a, b in nonzero]


def int_vectors(vectors):
    """(D, entries): int_entries of every vector over one common
    denominator D, the least common multiple of theirs."""
    conv = [int_entries(v) for v in vectors]
    den = lcm(*(d for d, _ in conv))
    return den, [[(i, a * (den // d), b * (den // d)) for i, a, b in e]
                 for d, e in conv]


def rand_gq(rng, density=1.0):
    if rng.random() > density:
        return ZERO
    return Q(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def rand_vec(rng, n, density):
    return vec([rand_gq(rng, density) for _ in range(n)])



# ---------------------------------------------------------------------------
# a regular element and the parabolic of an abelian t by one, the search
# the library replaced by root-index certificates

def power_combinations(n, basis):
    """The elements sum_j k^j basis[j] for k = 1, 2, 3, ..., in that order."""
    k = 1
    while True:
        yield lincomb(n, vec([Q(k ** j) for j in range(len(basis))]), basis)
        k += 1


def find_regular(g, a):
    """First element of a with coefficient pattern (1, k, k^2, ...) whose
    centralizer is exactly a."""
    if centralizer(g, a) != a:
        raise roots.NotCartan("subalgebra is not self-centralizing")
    return next(h0 for h0 in power_combinations(g.dim, a.basis_vectors())
                if centralizer(g, Subspace.from_vectors(g.dim, [h0])) == a)


def value_at(rd, root, x):
    """alpha(x) for x in the complexified Cartan (complex-linear)."""
    return sum((Q.coerce(c) * Q.coerce(v) for c, v in
                zip(rd.cartan.coords(x), root.values, strict=True)),
               ZERO)


def parabolic_from_abelian(g, t):
    """The parabolic of Levi m = C_g(t) cut out by a regular element of i*t."""
    if not is_abelian(g, t):
        raise roots.RootError("t must be abelian")
    m = centralizer(g, t)
    rd = roots.root_decomposition(g, extend_to_maximal_abelian(g, t, m))
    q = [i for i, r in enumerate(rd.roots)
         if any(value_at(rd, r, b) for b in t.basis_vectors())]
    if not q:
        return roots.build_parabolic(rd, m, ())
    # deterministic search for h0 in i*t with alpha(h0) real nonzero on Q
    for h0 in power_combinations(
            g.dim, [vscale(exact.I, b) for b in t.basis_vectors()]):
        vals = {i: value_at(rd, rd.roots[i], h0) for i in q}
        if all(v.im == 0 and v.re != 0 for v in vals.values()):
            return roots.build_parabolic(
                rd, m, tuple(sorted(i for i in q if vals[i].re > 0)))

# ---------------------------------------------------------------------------
# Quotient.project / lift against B^-1 and the unit-vector section

def dense_quotient_maps(quot):
    """The projection rows of B^-1, B = (h basis | complement axes), and
    the section whose columns are the complement axes."""
    h, comp = quot.h, quot.complement
    b = Matrix.from_columns(list(h.basis_vectors()) + list(comp.basis_vectors()))
    projection = Matrix(inverse(b).rows[h.dim:])
    section = Matrix.from_columns(list(comp.basis_vectors()))
    return projection, section


SU3_SUBALGEBRAS = [
    ("maximal_torus", {}),
    ("block_u", {"k": 2}),
    ("zero", {}),
    # su(2) on the (0, 2) block: its Cartan i(E_00 - E_22) is e6 + e7
    ("span", {"span": [[0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0, 0, 1, 1]]}),
    ("span", {"span": [[0, 0, 0, 0, 0, 0, 2, 1]]}),
]


@pytest.mark.parametrize("name,kw", SU3_SUBALGEBRAS,
                         ids=[f"{n}{kw.get('k', '')}{len(kw.get('span', ''))}"
                              for n, kw in SU3_SUBALGEBRAS])
def test_project_and_lift_match_dense_maps(name, kw):
    g = build(su(3))
    quot = quotient(g, build_subalgebra(g, su(3), name, **kw))
    projection, section = dense_quotient_maps(quot)
    rng = random.Random(f"{name}{kw}")
    xs = [vunit(g.dim, k) for k in range(g.dim)]
    xs += [rand_vec(rng, g.dim, d) for d in (0.2, 0.5, 1.0) for _ in range(4)]
    for x in xs:
        assert quot.project(x) == projection.matvec(x)
    us = [vunit(quot.dim, k) for k in range(quot.dim)]
    us += [rand_vec(rng, quot.dim, d) for d in (0.3, 1.0) for _ in range(4)]
    for v in us:
        assert quot.lift(v) == section.matvec(v)
        assert quot.project(quot.lift(v)) == vec(v)
    for b in quot.h.basis_vectors():
        assert quot.project(b) == vzero(quot.dim)


# ---------------------------------------------------------------------------
# catalog bases against dense GQ matrices, catalog structure tables against
# one exact solve per pair, and catalog coordinates against the inverse of a
# dense GQ block

def realify_vector(v):
    """A complex vector of length n as a rational one of length 2n with
    coordinates (re0, im0, re1, im1, ...)."""
    out = []
    for x in v:
        out.append(Q(x.re))
        out.append(Q(x.im))
    return tuple(out)


def test_realify_vector():
    assert realify_vector((I,)) == (Q(0), Q(1))


def elem(n, j, k, val):
    m = [[ZERO] * n for _ in range(n)]
    m[j][k] = Q.coerce(val)
    return m


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def gq_su_basis(n):
    """The su(n) catalog basis as dense GQ matrices."""
    if n == 2:
        half = Q(1, 0) / Q(2)
        ihalf = I / Q(2)
        return [[[ZERO, -ihalf], [-ihalf, ZERO]],
                [[ZERO, -half], [half, ZERO]],
                [[-ihalf, ZERO], [ZERO, ihalf]]]
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            basis.append(mat_add(elem(n, j, k, ONE), elem(n, k, j, -ONE)))
            basis.append(mat_add(elem(n, j, k, I), elem(n, k, j, I)))
    for j in range(n - 1):
        basis.append(mat_add(elem(n, j, j, I), elem(n, j + 1, j + 1, -I)))
    return basis


def gq_so_basis(n):
    return [mat_add(elem(n, j, k, ONE), elem(n, k, j, -ONE))
            for j in range(n) for k in range(j + 1, n)]


def real_ints(mats):
    """(D, coordinates): each n x n matrix read row by row and realified,
    re and im of entry (r, c) at positions 2(rn + c) and 2(rn + c) + 1, as
    a dict of its nonzero positions to D times their value, with D the
    least common denominator of all the matrices."""
    den, entries = int_vectors([tuple(x for row in m for x in row)
                                for m in mats])
    out = []
    for e in entries:
        t = {}
        for i, a, b in e:
            if a:
                t[2 * i] = a
            if b:
                t[2 * i + 1] = b
        out.append(t)
    return den, out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_bases_match_the_gq_matrices(n):
    # su(2) takes its table from eps_ijk, so it has no integer basis
    if n >= 3:
        assert (1, _basis(su(n))) == real_ints(gq_su_basis(n))
    assert (1, _basis(so(n))) == real_ints(gq_so_basis(n))


def dense_commutator(a, b):
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            s = ZERO
            for m in range(n):
                s = s + a[r][m] * b[m][c] - b[r][m] * a[m][c]
            out[r][c] = s
    return out


def flatten_real(mat):
    return realify_vector(tuple(x for row in mat for x in row))


def per_pair_table(basis):
    expand = Matrix.from_columns([flatten_real(m) for m in basis])
    return tuple(tuple(solve(expand, vec(flatten_real(dense_commutator(a, b))))
                       for b in basis) for a in basis)


def dense_coordinates(basis):
    """Coordinates in a basis of GQ matrices by the inverse of a GQ block:
    d independent real coordinates of the expansion matrix, that d x d
    block inverted, and the re-expansion compared as GQ vectors."""
    expand = Matrix.from_columns([flatten_real(m) for m in basis])
    _, rows, _ = rref(expand.transpose())
    block_inv = inverse(Matrix([expand.rows[r] for r in rows]))

    def coords(mat):
        target = flatten_real(mat)
        c = block_inv.matvec(vec([target[r] for r in rows]))
        return c if expand.matvec(c) == vec(target) else None
    return coords


def read_coordinates(spec):
    """catalog._reader as a map from GQ matrices, None outside spec."""
    read = _reader(spec)

    def at(mat):
        den, (t,) = real_ints([mat])
        try:
            return ivec(read(t), None, den)
        except InvalidSpec:
            return None
    return at


def u_basis(n):
    """i * identity followed by the su(n) basis: the u(n) catalog order."""
    scalar = [[I if r == c else ZERO for c in range(n)] for r in range(n)]
    return [scalar] + gq_su_basis(n)


def block_diagonal(a, b):
    n, m = len(a), len(b)
    return ([list(r) + [ZERO] * m for r in a]
            + [[ZERO] * n + list(r) for r in b])


def su2_plus_su2_basis():
    """The su(2)+su(2) catalog order as block-diagonal 4 x 4 matrices."""
    zero = [[ZERO] * 2 for _ in range(2)]
    return ([block_diagonal(m, zero) for m in gq_su_basis(2)]
            + [block_diagonal(zero, m) for m in gq_su_basis(2)])


@pytest.mark.parametrize("spec,basis", [
    (su(2), gq_su_basis(2)),
    (su(3), gq_su_basis(3)),
    (so(4), gq_so_basis(4)),
    (so(5), gq_so_basis(5)),
    (u(2), u_basis(2)),
    (su(4), gq_su_basis(4)),
    (so(6), gq_so_basis(6)),
    (u(3), u_basis(3)),
    (direct_sum(su(2), su(2)), su2_plus_su2_basis()),
], ids=["su2", "su3", "so4", "so5", "u2", "su4", "so6", "u3", "su2+su2"])
def test_catalog_table_matches_per_pair_solve(spec, basis):
    assert build(spec).table == per_pair_table(basis)


@pytest.mark.parametrize("spec,basis", [
    (su(3), gq_su_basis(3)), (su(4), gq_su_basis(4)),
    (so(4), gq_so_basis(4)), (so(5), gq_so_basis(5)),
], ids=["su3", "su4", "so4", "so5"])
def test_coordinates_match_the_dense_inverse(spec, basis):
    read, dense = read_coordinates(spec), dense_coordinates(basis)
    n = len(basis[0])
    rng = random.Random(n)
    mats = list(basis) + [dense_commutator(a, b) for a in basis for b in basis]
    mats += [u_basis(n)[0]]
    mats += [[[rand_gq(rng, 0.5) for _ in range(n)] for _ in range(n)]
             for _ in range(5)]
    # random rational combinations: inside the span
    for _ in range(5):
        cs = [Q(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
              for _ in basis]
        mats.append([[sum((c * m[r][col] for c, m in zip(cs, basis)), ZERO)
                      for col in range(n)] for r in range(n)])
    seen_none = 0
    for m in mats:
        assert read(m) == dense(m)
        seen_none += dense(m) is None
    assert 0 < seen_none < len(mats)


def block_u_generators(n, k):
    """block_u(k) of su(n): the su(k) basis in the leading block, then
    diag(i (n - k) I_k, -i k I_(n-k))."""
    out = []
    for bm in (gq_su_basis(k) if k >= 2 else []):
        full = [[ZERO] * n for _ in range(n)]
        for r in range(k):
            for c in range(k):
                full[r][c] = bm[r][c]
        out.append(full)
    out.append([[(I * Q(n - k) if r < k else -I * Q(k)) if r == c else ZERO
                 for c in range(n)] for r in range(n)])
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_block_u_vectors_match_the_dense_inverse(k):
    # block_u is read off catalog indices; the dense generators expand the
    # matrices themselves (for k = 2 the su(2) block is -1/2 times the
    # catalog vectors), so the two agree as spans, on su(n) for n = 2..5
    for n in range(k + 1, 6):
        dense = dense_coordinates(gq_su_basis(n))
        assert Subspace.from_vectors(n * n - 1, _block_u_space(su(n), k)) \
            == Subspace.from_vectors(
                n * n - 1, [dense(m) for m in block_u_generators(n, k)])


def test_coordinates_reject_matrices_outside_the_span():
    read = read_coordinates(su(3))
    assert read(u_basis(3)[0]) is None  # i * identity is not traceless
    for k, m in enumerate(gq_su_basis(3)):
        assert read(m) == vunit(8, k)
        # The reader takes no coordinate from an entry below the diagonal
        # or from im(2,2), so these agree with m on every entry it reads
        # and only the check that the matrix lies in su(3) can reject them.
        for r, c, x in ((2, 0, ONE), (2, 0, I), (2, 2, I)):
            off = [list(row) for row in m]
            off[r][c] = off[r][c] + x
            assert read(off) is None
    # so(n) is real: i(E_jk + E_kj) is anti-Hermitian, but not in so(3)
    read = read_coordinates(so(3))
    for k, m in enumerate(gq_so_basis(3)):
        assert read(m) == vunit(3, k)
        off = [list(row) for row in m]
        off[0][1], off[1][0] = off[0][1] + I, off[1][0] + I
        assert read(off) is None


# ---------------------------------------------------------------------------
# bracket and Killing form against the dense triple and quadruple loops

def dense_bracket(g, x, y):
    n = g.dim
    x, y = qv(x), qv(y)
    table = [[qv(v) for v in row] for row in g.table]
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = out[k] + x[i] * y[j] * table[i][j][k]
    return vec(out)


def dense_killing_gram(g):
    n = g.dim
    table = [[qv(v) for v in row] for row in g.table]
    return Matrix([[sum((table[i][k][l] * table[j][l][k]
                         for k in range(n) for l in range(n)), ZERO)
                    for j in range(n)] for i in range(n)])


def rotation(n, seed, gaussian=False):
    """(P, P^-1) for a random invertible integer n x n matrix P, with
    Gaussian-integer entries when gaussian is set."""
    rng = random.Random(seed)

    def entry():
        return Q(rng.randint(-3, 3), rng.randint(-2, 2) if gaussian else 0)
    while True:
        p = Matrix([[entry() for _ in range(n)] for _ in range(n)])
        try:
            return p, inverse(p)
        except Exception:
            continue


def rotated(g, seed, gaussian=False):
    """g's table rewritten in the basis f_a = sum_r P[r][a] e_r for
    rotation(g.dim, seed, gaussian)'s P (a Gaussian-integer P makes the
    structure constants complex); the new table is dense."""
    p, pinv = rotation(g.dim, seed, gaussian)
    f = p.transpose().rows
    return LieAlgebra([[pinv.matvec(dense_bracket(g, a, b)) for b in f] for a in f])


@pytest.fixture(scope="module", params=["su3", "so4_rotated", "su2_gaussian"])
def algebra(request):
    if request.param == "su3":
        return build(su(3))
    if request.param == "su2_gaussian":
        return rotated(build(su(2)), seed=5, gaussian=True)
    return rotated(build(so(4)), seed=3)


def test_gaussian_rotation_has_complex_constants():
    g = rotated(build(su(2)), seed=5, gaussian=True)
    assert any(c.im for row in g.table for v in row for c in v)
    assert g.table_den > 1


def mixed_vec(rng, n):
    """Entries whose real and imaginary parts have unrelated denominators,
    with some zeros and some integers."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7, 12)))
    return vec([ZERO if rng.random() < 0.2 else Q(part(), part())
                for _ in range(n)])


def test_rotated_table_is_dense():
    g = rotated(build(so(4)), seed=3)
    nonzero = sum(1 for row in g.table for v in row for c in v if c)
    assert nonzero > g.dim ** 3 // 2


def test_bracket_matches_dense_loop(algebra):
    g = algebra
    rng = random.Random(g.dim)
    pairs = [(vunit(g.dim, i), vunit(g.dim, j))
             for i in range(g.dim) for j in range(g.dim)]
    pairs += [(rand_vec(rng, g.dim, d), rand_vec(rng, g.dim, e))
              for d in (0.2, 1.0) for e in (0.3, 1.0) for _ in range(3)]
    integer = [vec([Q(rng.randint(-4, 4), rng.randint(-4, 4) * (k % 2))
                    for _ in range(g.dim)]) for k in range(3)]
    mixed = [mixed_vec(rng, g.dim) for _ in range(4)]
    pairs += [(x, y) for x in integer + mixed for y in integer + mixed]
    for x, y in pairs:
        assert g.bracket(x, y) == dense_bracket(g, x, y)


def test_killing_gram_matches_dense_loop(algebra):
    assert algebra.killing_gram() == dense_killing_gram(algebra)


# ---------------------------------------------------------------------------
# ad-invariance in validate against the d^3 loop of matvecs

def dense_invariance_failures(g):
    n, ip = g.dim, g.inner_product
    failures = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                a = sum((x * y for x, y in zip(
                    qv(g.table[i][j]), qv(ip.matvec(vunit(n, k))))), ZERO)
                b = sum((x * y for x, y in zip(
                    qv(vunit(n, j)), qv(ip.matvec(g.table[i][k])))), ZERO)
                if a + b:
                    failures.append(
                        f"inner product not ad-invariant on (e{i}, e{j}, e{k})")
                    break
            else:
                continue
            break
    return failures


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_invariance_failures_match_dense_loop(seed):
    g = build(su(3))
    rng = random.Random(seed)
    n = g.dim
    ip = [list(r) for r in g.inner_product.rows]
    for _ in range(seed + 1):
        a, b = rng.randrange(n), rng.randrange(n)
        c = Q(rng.randint(1, 3))
        ip[a][b] = ip[a][b] + c
        if a != b:
            ip[b][a] = ip[b][a] + c
    bad = LieAlgebra(g.table, inner_product=Matrix(ip))
    expected = dense_invariance_failures(bad)
    assert expected
    got = [f for f in bad.validate().failures if "ad-invariant" in f]
    assert got == expected
    assert not [f for f in g.validate().failures if "ad-invariant" in f]


# ---------------------------------------------------------------------------
# rational eigenvalues against the divisor-based candidate roots

def divisors(n):
    small = [d for d in range(1, isqrt(abs(n)) + 1) if n % d == 0]
    return small + [abs(n) // d for d in small]


def divisor_eigenvalues(m):
    """Rational eigenvalues by trying every p/q with p dividing the constant
    and q the leading coefficient of the cleared characteristic polynomial;
    the same roots, multiplicities and IrrationalSpectrum message."""
    coeffs = [c.re for c in charpoly(m)]
    roots = []
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        roots.append(Fraction(0))
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    cands = sorted({Fraction(s * p, q) for p in divisors(ints[-1])
                    for q in divisors(ints[0]) for s in (1, -1)})
    for cand in cands:
        while len(coeffs) > 1:
            # synthetic division by x - cand; the last entry is p(cand)
            out = [coeffs[0]]
            for c in coeffs[1:]:
                out.append(c + out[-1] * cand)
            if out[-1]:
                break
            roots.append(cand)
            coeffs = out[:-1]
    if len(coeffs) > 1:
        raise IrrationalSpectrum(
            f"only {len(roots)} of {m.nrows} eigenvalues are rational")
    return vec(sorted(roots))


def polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def companion(p):
    """A matrix whose characteristic polynomial is p / p[0]."""
    n = len(p) - 1
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Q(1)
    for i in range(n):
        rows[i][n - 1] = Q(Fraction(-p[n - i], p[0]))
    return Matrix(rows)


def random_polynomial(rng):
    """A product of rational linear factors qx - p (some repeated, p = 0
    allowed), sometimes times x^2 + c (no real roots) or x^2 - 2 (irrational
    real roots), with every integer coefficient below 2^30."""
    while True:
        p = [rng.randint(1, 3)]
        for _ in range(rng.randint(1, 4)):
            f = [rng.randint(1, 9), rng.randint(-12, 12)]
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                p = polymul(p, f)
        extra = rng.random()
        if extra < 0.2:
            p = polymul(p, [1, 0, rng.randint(1, 7)])
        elif extra < 0.35:
            p = polymul(p, [1, 0, -2])
        if len(p) <= 9 and max(abs(c) for c in p) < 2 ** 30:
            return p


def eigenvalues_or_error(f, m):
    try:
        return f(m)
    except IrrationalSpectrum as e:
        return str(e)


def test_rational_eigenvalues_match_divisor_candidates():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(300):
        m = companion(random_polynomial(rng))
        got = eigenvalues_or_error(rational_eigenvalues, m)
        assert got == eigenvalues_or_error(divisor_eigenvalues, m)
        outcomes.add(isinstance(got, str))
    assert outcomes == {True, False}


def test_rational_eigenvalues_with_a_constant_term_over_60_bits():
    """Eigenvalues known in advance, hidden by an integer change of basis;
    trial division up to the square root of the constant term would need
    more than 2^30 steps."""
    eigs = [Fraction(1009), Fraction(-1013, 3), Fraction(1019, 7),
            Fraction(1019, 7), Fraction(-1021), Fraction(1031, 2),
            Fraction(0), Fraction(-3, 5)]
    n = len(eigs)
    rng = random.Random(7)
    while True:
        p = Matrix([[Q(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)])
        try:
            pinv = inverse(p)
            break
        except Exception:
            continue
    d = Matrix([[Q(eigs[i]) if i == j else ZERO for j in range(n)]
                for i in range(n)])
    m = p * d * pinv
    assert sum(1 for r in m.rows for x in r if x) > n * n // 2
    coeffs = [c.re for c in charpoly(m)]
    while coeffs[-1] == 0:
        coeffs.pop()
    den = lcm(*(c.denominator for c in coeffs))
    assert int(abs(coeffs[-1]) * den).bit_length() > 60
    assert rational_eigenvalues(m) == vec(sorted(eigs))


# ---------------------------------------------------------------------------
# the q-adic integer roots against the Sturm bisection they replaced

def sturm_chain(p):
    """Sturm sequence p, p', -rem(p, p'), ... of a square-free integer
    polynomial, each term a primitive integer polynomial."""
    chain = [p, _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    return chain


def variations(chain, x):
    """Sign changes along the chain evaluated at the integer x, zeros dropped."""
    count, last = 0, 0
    for p in chain:
        v = 0
        for c in p:
            v = v * x + c
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def sturm_root_candidates(p):
    """Every integer root of the monic integer polynomial p, and possibly
    more: the right end hi of each interval (hi - 1, hi] that holds a real
    root.  Sturm's theorem counts the distinct real roots in (lo, hi] as
    V(lo) - V(hi) for the chain of the square-free part, so intervals are
    bisected from a root bound down to width 1 without factoring any
    coefficient (Collins and Loos, "Real zeros of polynomials", 1982)."""
    sqf = p
    if len(p) > 2:
        d, r = p, _primitive(_derivative(p))
        while r:
            d, r = r, _remainder(d, r)
        if len(d) > 1:
            sqf = _quotient(p, d)
    chain = sturm_chain(sqf)
    # Fujiwara: every root has |y| <= 2 max_k |c_k|^(1/k) < bound
    bound = 2 ** (1 + max(-(-abs(c).bit_length() // k)
                          for k, c in enumerate(p[1:], 1)))
    out = []
    stack = [(-bound, variations(chain, -bound), bound, variations(chain, bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            out.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations(chain, mid)
        stack.append((lo, vlo, mid, vmid))
        stack.append((mid, vmid, hi, vhi))
    return out


def integer_roots(find, p):
    """The candidates find(p) that _divide_root finds to be roots of p."""
    return sorted(y for y in find(p) if _divide_root(p, y, 1) is not None)


def atlas_rows():
    """(name, case) of every row of tests/test_atlas.py, a case being (an
    algebra spec, h's basis) as test_atlas.runner takes it."""
    rows = [*atlas.HERMITIAN.items(),
            *((k, case) for k, (case, _) in atlas.CONTROLS.items()),
            *((k, case) for k, (case, _) in atlas.WANG_CONTROLS.items()),
            *((f"sp{n}", atlas.sp_sub(n, n)) for n in (2, 3)),
            *((f"hopf{n}", atlas.hopf(n)) for n in (2, 3, 4)),
            *((k, atlas.unit_case(parts, []))
              for k, (parts, _, _) in atlas.SAMELSON.items())]
    return rows + [(f"calabi_eckmann{p}{q}", atlas.calabi_eckmann(p, q))
                   for p, q in atlas.CALABI_ECKMANN]


@pytest.fixture(scope="module")
def solved_polynomials(tmp_path_factory):
    """{p: the first case that solved it} for every monic polynomial p whose
    integer roots rational_eigenvalues asks for, over every golden case and
    classify of every atlas row."""
    solved, find, case = {}, exact._integer_root_candidates, None

    def record(p):
        solved.setdefault(tuple(p), case)
        return find(p)
    tmp = tmp_path_factory.mktemp("solved")
    spec, out = tmp / "spec.json", tmp / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_integer_root_candidates", record)
        for c in MANIFEST:
            case = c["file"]
            spec.write_text(json.dumps(c["spec"]))
            assert cli.main(["--spec", str(spec), "--command", c["command"],
                             "--out", str(out), *c["args"]]) == c["exit_code"]
        for case, row in atlas_rows():
            assert atlas.runner(tmp, row)("classify")[0] in (0, 1)
    return solved


def test_q_adic_roots_match_sturm_on_every_solved_polynomial(
        solved_polynomials):
    # the golden dense su(4)/t is perfbench's: its basis seed 0, and the
    # widest coefficients of every solved polynomial, at degree 12
    specs = _perfbench_module("specs")
    su4 = specs.dense_spec([("su", 4)], random.Random(0))
    assert su4 in [c["spec"] for c in MANIFEST if c["command"] == "classify"]
    widest = max(solved_polynomials,
                 key=lambda p: max(abs(c).bit_length() for c in p))
    assert solved_polynomials[widest] == "dense_su4_t__classify.json"
    assert (len(widest) - 1, max(abs(c).bit_length() for c in widest)) \
        == (12, 2305)
    for p, case in solved_polynomials.items():
        p = list(p)
        assert integer_roots(exact._integer_root_candidates, p) \
            == integer_roots(sturm_root_candidates, p), case


def monic(linear, others=()):
    """The product of the x - r for r in linear and of the monic others."""
    p = [1]
    for f in [[1, -r] for r in linear] + list(others):
        p = polymul(p, f)
    return p


def assert_roots_agree(p, roots, rational):
    """Both finders give the distinct integer roots of p; and the
    eigenvalues of p's companion matrix are the multiset roots when
    rational says they are all rational, which divisor_eigenvalues confirms
    where its trial division finishes."""
    assert integer_roots(exact._integer_root_candidates, p) \
        == integer_roots(sturm_root_candidates, p) == sorted(set(roots))
    m = companion(p)
    want = vec(sorted(roots)) if rational else (
        f"only {len(roots)} of {len(p) - 1} eigenvalues are rational")
    assert eigenvalues_or_error(rational_eigenvalues, m) == want
    if abs(p[-1]) < 2 ** 32:
        assert eigenvalues_or_error(divisor_eigenvalues, m) == want


HUGE = 2 ** 200
# a nonzero integer root, small or up to 2^200 in absolute value
ROOTS = st.one_of(st.integers(-60, 60), st.integers(-HUGE, HUGE)).filter(bool)
# x^2 + c without a rational root: c > 0, or -c not a square
QUADRATICS = st.integers(-2 ** 80, 2 ** 80).filter(
    lambda c: c > 0 or isqrt(-c) ** 2 != -c).map(lambda c: [1, 0, c])


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(ROOTS, st.integers(1, 3)), min_size=1, max_size=4),
       st.lists(QUADRATICS, max_size=2))
def test_q_adic_roots_of_products_of_linear_factors(factors, quadratics):
    roots = [r for r, times in factors for _ in range(times)]
    assert_roots_agree(monic(roots, quadratics), roots, not quadratics)


@pytest.mark.parametrize("c", [HUGE, HUGE - 1, 3 ** 126, 101 ** 30])
def test_q_adic_roots_at_the_edge_of_the_root_bound(c):
    # x - c and x^2 - c^2 put a root at c's bit length, where the bound is
    # tightest, and x^2 + c^2 puts none there
    assert_roots_agree(monic([c]), [c], True)
    assert_roots_agree(monic([c, -c]), [c, -c], True)
    assert_roots_agree(monic([c], [[1, 0, c * c]]), [c], False)


def test_q_adic_roots_past_the_first_primes(monkeypatch):
    # 1 and 1 + 101 * 103 * 107 * 109 meet mod 101, 103, 107 and 109, so
    # their roots are simple first mod 113
    far = 1 + 101 * 103 * 107 * 109
    assert far == 121_330_190
    moduli, value = [], exact._value

    def spy(p, x, m):
        moduli.append(m)
        return value(p, x, m)
    monkeypatch.setattr(exact, "_value", spy)
    assert_roots_agree(monic([1, far]), [1, far], True)
    assert sorted({m for m in moduli if m < 1000}) == [101, 103, 107, 109, 113]


# ---------------------------------------------------------------------------
# Sylvester's test in one elimination against d leading determinants

def det(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return d


def sylvester(rows):
    return all(det([r[:k] for r in rows[:k]]) > 0
               for k in range(1, len(rows) + 1))


def ldlt(rng, diag):
    """L D L^T for a random unit lower-triangular rational L."""
    n = len(diag)
    low = [[Fraction(int(i == j)) if j >= i else
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for j in range(n)] for i in range(n)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n))
             for j in range(n)] for i in range(n)]


def symmetric_cases(rng):
    for n in range(1, 7):
        for _ in range(6):
            pos = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
                   for _ in range(n)]
            yield "definite", ldlt(rng, pos)
            mixed = [x * rng.choice((1, -1)) for x in pos]
            yield "indefinite", ldlt(rng, mixed)
            # a zero pivot makes the leading (k+1)-block singular
            zero = list(pos)
            zero[rng.randrange(n)] = Fraction(0)
            yield "singular", ldlt(rng, zero)
            a = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            yield "random", [[a[i][j] + a[j][i] for j in range(n)]
                             for i in range(n)]


def test_positive_definite_matches_leading_determinants():
    kinds = {}
    for kind, rows in symmetric_cases(random.Random(11)):
        want = sylvester(rows)
        assert _positive_definite(Matrix([[Q(x) for x in r] for r in rows])) \
            == want, (kind, rows)
        kinds.setdefault(kind, set()).add(want)
    assert kinds["definite"] == {True}
    assert kinds["singular"] == {False}
    assert False in kinds["indefinite"] and False in kinds["random"]


# ---------------------------------------------------------------------------
# the decompose index against classify followed by a search

def classify_then_search(quot, p):
    report = cx.classify(quot)
    return next((i for i, q in enumerate(report.parabolics)
                 if parabolic_spaces(q) == parabolic_spaces(p)), None)


GOLDEN = Path(__file__).resolve().parent / "golden"
DECOMPOSE_CASES = [c for c in json.loads((GOLDEN / "manifest.json").read_text())
                   if c["command"] == "decompose"]


@pytest.mark.parametrize("case", DECOMPOSE_CASES,
                         ids=[c["file"] for c in DECOMPOSE_CASES])
def test_parabolic_index_matches_classify_on_golden_cases(tmp_path, case):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    ps = cli.parse(path)
    quot = cli._resolve_problem(ps)
    p, _ = cx.decompose_J(cli._structure(ps, quot))
    index = cx.parabolic_index(quot, p)
    assert index is not None
    assert index == classify_then_search(quot, p)


def test_parabolic_index_matches_classify_on_su4_t():
    g = build(su(4))
    quot = quotient(g, build_subalgebra(g, su(4), "maximal_torus"))
    report = cx.classify(quot)
    assert len(report.parabolics) == 24
    for k in (0, 5, 23):
        p, _ = cx.decompose_J(cx.construct_J(quot, report.parabolics[k]))
        assert cx.parabolic_index(quot, p) == k
        assert next(i for i, q in enumerate(report.parabolics)
                    if parabolic_spaces(q) == parabolic_spaces(p)) == k


def test_parabolic_index_is_none_off_classify_levi():
    """On su(2)+su(2)/0, the Cartan span(e1, e4) is not classify's m."""
    spec = direct_sum(su(2), su(2))
    g = build(spec)
    quot = quotient(g, build_subalgebra(g, spec, "zero"))
    t = Subalgebra.span(g, [vunit(6, 1), vunit(6, 4)]).space
    J = cx.construct_J(quot, parabolic_from_abelian(g, t))
    p, _ = cx.decompose_J(J)
    assert p.levi_real == t
    assert cx.parabolic_index(quot, p) is None
    assert classify_then_search(quot, p) is None


def test_parabolic_index_is_none_without_a_rational_cartan_in_classify():
    """su(2)+su(2)/0 in a random basis, with the Calabi-Eckmann J carried
    along: J's m is a Cartan with rational roots, classify's greedy Cartan
    has none, so decompose finds p and its index is None."""
    g0, _, _, jce = calabi_eckmann_instance()
    p, pinv = rotation(6, 4)
    g = rotated(g0, 4)
    quot = Quotient(g, Subspace.zero(6))
    with pytest.raises(IrrationalSpectrum):
        cx.classify(quot)
    q, _ = cx.decompose_J(cx.ComplexStructure(quot, pinv * jce.j * p))
    assert cx.parabolic_index(quot, q) is None


# ---------------------------------------------------------------------------
# the integer-row kernels against the GQ loops they replaced

def gq_rref(m):
    rows = [list(qv(r)) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    pivots = []
    pr = 0
    for pc in range(nc):
        pr_row = next((r for r in range(pr, nr) if rows[r][pc]), None)
        if pr_row is None:
            continue
        rows[pr], rows[pr_row] = rows[pr_row], rows[pr]
        inv = ONE / rows[pr][pc]
        rows[pr] = [inv * x for x in rows[pr]]
        for r in range(nr):
            if r != pr and rows[r][pc]:
                f = rows[r][pc]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    return tuple(vec(r) for r in rows[:pr]), tuple(pivots), pr


def gq_reduce(space, v):
    v = list(qv(v))
    for row, p in zip(space.basis.rows, space.pivots):
        c = v[p]
        v = [x - c * r for x, r in zip(v, qv(row))]
    return vec(v)


def gq_dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


def gq_mul(a, b):
    cols = [tuple(Q.coerce(r[j]) for r in b.rows) for j in range(b.ncols)]
    return [vec([gq_dot(qv(r), c) for c in cols]) for r in a.rows]


def gq_lincomb(n, coeffs, vectors):
    out = (ZERO,) * n
    for c, v in zip(qv(coeffs), vectors):
        out = tuple(x + c * y for x, y in zip(out, qv(v)))
    return vec(out)


KINDS = ("real", "gaussian", "imaginary")


def kernel_entry(rng, kind, bits=8):
    """A random entry of the given kind: denominators mixed across 1-12
    and numerators of up to `bits` bits, zero one time in four."""
    if rng.random() < 0.25:
        return ZERO

    def part():
        return Fraction(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 12))
    return Q(0 if kind == "imaginary" else part(),
              0 if kind == "real" else part())


def kernel_entry_vec(rng, kind, n, bits=8):
    return vec([kernel_entry(rng, kind, bits) for _ in range(n)])


def kernel_matrix(rng, kind, nr, nc, rank=None, bits=8):
    """An nr x nc matrix; with rank set, its rows are integer combinations
    of `rank` random rows, so elimination cancels the others to zero."""
    if rank is None:
        return Matrix([[kernel_entry(rng, kind, bits) for _ in range(nc)]
                       for _ in range(nr)]) if nr else Matrix.zeros(0, nc)
    base = [[kernel_entry(rng, kind, bits) for _ in range(nc)]
            for _ in range(rank)]
    rows = [gq_lincomb(nc, [Q(rng.randint(-3, 3)) for _ in base], base)
            for _ in range(nr)]
    return Matrix(rows)


def kernel_cases():
    """(label, matrix) pairs: every kind at full rank, rank-deficient,
    with 60-bit entries, and the empty shapes."""
    rng = random.Random(1968)
    cases = []
    for kind in KINDS:
        for k in range(12):
            nr, nc = rng.randint(1, 12), rng.randint(1, 12)
            cases.append((f"{kind}{k}", kernel_matrix(rng, kind, nr, nc)))
            rank = rng.randint(0, min(nr, nc))
            cases.append((f"{kind}{k}_rank{rank}",
                          kernel_matrix(rng, kind, nr, nc, rank=rank)))
        for k in range(3):
            n = rng.randint(2, 8)
            cases.append((f"{kind}{k}_60bit",
                          kernel_matrix(rng, kind, n, n + k, bits=60)))
            cases.append((f"{kind}{k}_60bit_rank1",
                          kernel_matrix(rng, kind, n, n, rank=1, bits=60)))
    # a row equal to another, a multiple of another, and a zero row
    a = kernel_matrix(rng, "gaussian", 3, 6)
    cases.append(("repeated_rows", Matrix(
        list(a.rows) + [a.rows[0], vscale(vec([Q(2, -3)]), a.rows[1]),
                        vzero(6)])))
    for n in (0, 1, 5):
        cases.append((f"0x{n}", Matrix.zeros(0, n)))
        cases.append((f"{n}x0", Matrix([()] * n) if n else Matrix.zeros(0, 0)))
    return cases


KERNEL_CASES = kernel_cases()


def test_kernel_cases_cancel_rows_to_zero():
    # the rank-deficient cases are what gcd(0, ..., 0) = 0 would break on
    deficient = [m for label, m in KERNEL_CASES if "rank" in label
                 and rref(m)[2] < m.nrows]
    assert len(deficient) > 20
    assert any(rref(m)[2] == 0 and m.nrows for m in deficient)


@pytest.mark.parametrize("label,m", KERNEL_CASES,
                         ids=[label for label, _ in KERNEL_CASES])
def test_rref_matches_gq_loop(label, m):
    red, pivots, rank = rref(m)
    assert (red.rows, pivots, rank) == gq_rref(m)
    assert (red.nrows, red.ncols) == (rank, m.ncols)


@pytest.mark.parametrize("label,m", KERNEL_CASES,
                         ids=[label for label, _ in KERNEL_CASES])
def test_reduce_matches_gq_loop(label, m):
    space = Subspace.from_vectors(m.ncols, m.rows)
    rng = random.Random(label)
    vs = [kernel_entry_vec(rng, kind, m.ncols) for kind in KINDS]
    vs += [gq_lincomb(m.ncols, [kernel_entry(rng, "gaussian") for _ in m.rows],
                      m.rows)]
    vs += list(m.rows)
    for v in vs:
        assert space.reduce(v) == gq_reduce(space, v)
    # a member reduces to zero: the combination and the rows above
    assert all(space.contains(v) for v in vs[len(KINDS):])


@pytest.mark.parametrize("label,m", KERNEL_CASES,
                         ids=[label for label, _ in KERNEL_CASES])
def test_products_match_gq_loop(label, m):
    rng = random.Random(label)
    bits = 60 if "60bit" in label else 8
    for kind in KINDS:
        b = kernel_matrix(rng, kind, m.ncols, rng.randint(0, 12), bits=bits)
        prod = m * b
        assert prod.rows == tuple(gq_mul(m, b))
        assert (prod.nrows, prod.ncols) == (m.nrows, b.ncols)
        v = kernel_entry_vec(rng, kind, m.ncols, bits)
        assert m.matvec(v) == vec([gq_dot(qv(r), v) for r in m.rows])
        coeffs = kernel_entry_vec(rng, kind, m.nrows, bits)
        assert lincomb(m.ncols, coeffs, m.rows) \
            == gq_lincomb(m.ncols, coeffs, m.rows)


def gq_kernel(m):
    """The solution space of m x = 0 by the Gauss-Jordan loop: one vector
    per free column, then its canonical RREF basis, as Vecs."""
    red, pivots, _ = gq_rref(m)
    basis = []
    for f in (f for f in range(m.ncols) if f not in pivots):
        v = [ZERO] * m.ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -Q.coerce(red[r][f])
        basis.append(vec(v))
    return gq_rref(Matrix(basis, m.ncols))[0] if basis else ()


def gq_charpoly(m):
    """The Faddeev-LeVerrier recursion on Q matrices: c_k = -tr(m N) / k
    and N <- m N + c_k I, from N = I; (1, c_1, ..., c_n) as a Vec."""
    n = m.nrows
    a = [qv(r) for r in m.rows]
    nmat = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    coeffs = [ONE]
    for k in range(1, n + 1):
        mk = [[gq_dot(a[i], [nmat[l][j] for l in range(n)]) for j in range(n)]
              for i in range(n)]
        ck = -sum((mk[i][i] for i in range(n)), ZERO) / Q(k)
        coeffs.append(ck)
        nmat = [[x + ck if i == j else x for j, x in enumerate(row)]
                for i, row in enumerate(mk)]
    return vec(coeffs)


gaussians = st.builds(Q, st.fractions(-40, 40, max_denominator=9),
                      st.fractions(-40, 40, max_denominator=9))
entries = st.one_of(st.just(ZERO), gaussians,
                    st.builds(Q, st.fractions(-40, 40, max_denominator=9)))


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(vec)


def matrices(nr, nc):
    return st.lists(vectors(nc), min_size=nr, max_size=nr).map(
        lambda rows: Matrix(rows, nc))


shapes = st.tuples(st.integers(0, 5), st.integers(0, 5))


@settings(max_examples=60, deadline=None)
@given(shapes.flatmap(lambda s: matrices(*s)))
def test_rref_and_kernel_match_gq_loops_on_random_matrices(m):
    red, pivots, rank = rref(m)
    assert (red.rows, pivots, rank) == gq_rref(m)
    assert kernel(m).basis.rows == gq_kernel(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    matrices(n, n), st.lists(vectors(n), max_size=3))))
def test_reduce_and_charpoly_match_gq_loops_on_random_matrices(case):
    m, vs = case
    space = Subspace.from_vectors(m.ncols, m.rows)
    for v in vs + [gq_lincomb(m.ncols, [Q(2, -1)] * m.nrows, m.rows)]:
        assert space.reduce(v) == gq_reduce(space, v)
    assert charpoly(m) == gq_charpoly(m)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
       .flatmap(lambda s: st.tuples(matrices(s[0], s[1]),
                                    matrices(s[1], s[2]), vectors(s[1]),
                                    vectors(s[0]))))
def test_products_match_gq_loops_on_random_matrices(case):
    a, b, v, coeffs = case
    assert (a * b).rows == tuple(gq_mul(a, b))
    assert a.matvec(v) == vec([gq_dot(qv(r), v) for r in a.rows])
    assert lincomb(a.ncols, coeffs, a.rows) \
        == gq_lincomb(a.ncols, coeffs, a.rows)


BRACKET_ALGEBRAS = {"su3": build(su(3)),
                    "su2_gaussian": rotated(build(su(2)), 5, gaussian=True)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BRACKET_ALGEBRAS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           vectors(BRACKET_ALGEBRAS[name].dim),
                           vectors(BRACKET_ALGEBRAS[name].dim))))
def test_bracket_matches_dense_loop_on_random_vectors(case):
    name, x, y = case
    g = BRACKET_ALGEBRAS[name]
    assert g.bracket(x, y) == dense_bracket(g, x, y)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BRACKET_ALGEBRAS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           vectors(BRACKET_ALGEBRAS[name].dim))))
def test_ad_matches_brackets_with_the_basis(case):
    name, x = case
    g = BRACKET_ALGEBRAS[name]
    assert ad(g, x) == Matrix.from_columns(
        [dense_bracket(g, x, vunit(g.dim, j)) for j in range(g.dim)])


@settings(max_examples=60, deadline=None)
@given(vectors(5), st.integers(1, 10 ** 6), st.integers(1, 50))
def test_equal_vectors_over_other_denominators_are_equal(v, k, extra):
    # the same vector written over D, over k D and over a common multiple
    # of unrelated denominators: one reduced value, one hash
    w = vec(v)
    scaled = ivec([k * x for x in w.re], w.im and [k * x for x in w.im],
                  k * w.den)
    mixed = vadd(vscale(vec([Fraction(1, extra)]), v),
                 vscale(vec([Fraction(extra - 1, extra)]), v))
    assert w == scaled == mixed
    assert hash(w) == hash(scaled) == hash(mixed)
    assert tuple(scaled) == qv(v)


def test_complex_elimination_grows_linearly(monkeypatch):
    """rref of a dense 14 x 14 Gaussian-integer matrix of rank 12 with
    20-bit entries: clearing each Gaussian pivot with its real norm keeps
    every intermediate entry near 1,000 bits (multiplying rows by the pivot
    itself reached about 90,000), and the result is the Gauss-Jordan one."""
    rng = random.Random(14)

    def entry():
        return Q(rng.randint(-2 ** 20, 2 ** 20), rng.randint(-2 ** 20, 2 ** 20))
    base = [[entry() for _ in range(14)] for _ in range(12)]
    m = Matrix([gq_lincomb(14, [Q(rng.randint(-3, 3)) for _ in base], base)
                for _ in range(14)])
    assert all(x.im for r in m.rows for x in r)
    peak = [0]
    eliminate = exact._eliminate

    def measured(re, im, pr, pc):
        eliminate(re, im, pr, pc)
        peak[0] = max([peak[0]] + [abs(x).bit_length() for rows in (re, im)
                                   for r in rows for x in r])
    monkeypatch.setattr(exact, "_eliminate", measured)
    red, pivots, rank = rref(m)
    assert rank == 12
    assert (red.rows, pivots, rank) == gq_rref(m)
    assert 0 < peak[0] < 2000


def gq_validate_failures(g):
    """The antisymmetry and Jacobi failures by brackets of GQ vectors."""
    n = g.dim
    table = [[qv(v) for v in row] for row in g.table]
    failures = []
    for i in range(n):
        for j in range(i, n):
            if table[i][j] != tuple(-x for x in table[j][i]):
                failures.append(f"antisymmetry fails on (e{i}, e{j})")
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                # [[e_a, e_b], e_c] = sum_l table[a][b][l] [e_l, e_c]
                s = (ZERO,) * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for x, row in zip(table[a][b], table):
                        s = tuple(t + x * y for t, y in zip(s, row[c]))
                if any(s):
                    failures.append(f"Jacobi fails on (e{i}, e{j}, e{k})")
    return failures


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobi_and_antisymmetry_failures_match_gq_loop(seed):
    g = rotated(build(so(4)), seed=3, gaussian=True)
    rng = random.Random(seed)
    table = [[list(v) for v in row] for row in g.table]
    for _ in range(seed + 1):
        i, j, k = (rng.randrange(g.dim) for _ in range(3))
        table[i][j][k] = table[i][j][k] + Q(rng.randint(1, 3), seed)
    bad = LieAlgebra(table)
    expected = gq_validate_failures(bad)
    assert expected
    assert table_failures(bad) == expected
    assert gq_validate_failures(g) == [] == table_failures(g)


def table_failures(g):
    # the rotated table's identity inner product is not invariant
    return [f for f in g.validate().failures
            if "antisymmetry" in f or "Jacobi" in f]


# ---------------------------------------------------------------------------
# theta, the real J of an eigenspace and g + l against the formulas they
# replaced

MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def golden_structure(tmp_path, case):
    """g, h and the J a golden symmetric or verify case works with: the
    spec's j, or the J construct builds from the k-th parabolic."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    ps = cli.parse(path)
    k = int(case["args"][1]) if case["args"][:1] == ["--parabolic-index"] \
        else None
    quot = cli._resolve_problem(ps)
    J = cli._structure(ps, quot) if ps.j is not None \
        else cli._construct(ps, quot, k, "symmetric")[1]
    return quot.algebra, quot.h, J


def theta_by_matrix(g, h, v):
    """theta = B D B^-1, B = (h basis | V basis), D = diag(1, .., -1, ..),
    an automorphism when it commutes with the bracket on every unit pair."""
    b = Matrix.from_columns(list(h.basis_vectors()) + list(v.basis_vectors()))
    d = [[ZERO] * g.dim for _ in range(g.dim)]
    for i in range(g.dim):
        d[i][i] = ONE if i < h.dim else -ONE
    theta = b * Matrix(d) * inverse(b)
    return all(
        theta.matvec(g.bracket(vunit(g.dim, i), vunit(g.dim, j)))
        == g.bracket(theta.matvec(vunit(g.dim, i)),
                     theta.matvec(vunit(g.dim, j)))
        for i in range(g.dim) for j in range(i + 1, g.dim))


def theta_criterion(g, h, v):
    """The bracket rules for theta with [h, h] in h checked first: the
    library's h is a subalgebra the catalog has certified, and
    involution_is_automorphism checks only [h, V] in V and [V, V] in h."""
    return is_closed(g, h) and cx.involution_is_automorphism(g, h, v)


SYMMETRIC_CASES = [c for c in MANIFEST if c["command"] == "symmetric"]


def test_theta_criterion_matches_matrix_on_golden_splits(tmp_path):
    """The split g = h (+) V of every golden symmetric case where V is a
    complement of h: su(3)/t and so(5)/t fail, the symmetric pairs pass."""
    verdicts = {}
    for case in SYMMETRIC_CASES:
        g, h, J = golden_structure(tmp_path, case)
        if not cx.is_integrable(J):  # no parabolic, so no split
            continue
        n = cx.decompose_J(J)[0].nilradical
        v = real_points(span_sum(g.dim, [n, n.conjugate()]))
        if v.intersect(h).dim or span_sum(g.dim, [v, h]).dim != g.dim:
            continue
        ok = cx.involution_is_automorphism(g, h, v)
        assert ok == theta_by_matrix(g, h, v), case["file"]
        verdicts[case["file"]] = ok
    assert verdicts["su4_u3__symmetric.json"] is True
    assert verdicts["su3_t__symmetric.json"] is False
    assert verdicts["so5_t__symmetric_k3.json"] is False


def test_theta_criterion_matches_matrix_on_splits_that_are_not_cartan():
    """su(3) = u(2) (+) V with V the Killing complement (a symmetric pair),
    then V sheared by elements of u(2), and coordinate complements of
    subspaces that are not subalgebras."""
    g = build(su(3))
    h = build_subalgebra(g, su(3), "block_u", k=2).space
    v0 = kernel(Matrix([g.killing_gram().matvec(b)
                        for b in h.basis_vectors()]))
    assert cx.involution_is_automorphism(g, h, v0) is True
    assert theta_by_matrix(g, h, v0) is True
    vb = v0.basis_vectors()
    for x in h.basis_vectors():
        for k in range(len(vb)):
            sheared = Subspace.from_vectors(
                g.dim, vb[:k] + (vadd(vb[k], x),) + vb[k + 1:])
            assert cx.involution_is_automorphism(g, h, sheared) is False
            assert theta_by_matrix(g, h, sheared) is False
    rng = random.Random(5)
    for dim in (2, 3, 4):
        s = Subspace.from_vectors(g.dim, [
            rand_vec(rng, g.dim, 0.5) for _ in range(dim)])
        s = Subspace.from_vectors(g.dim, [tuple(Q(x.re) for x in b)
                                          for b in s.basis_vectors()])
        ok = theta_criterion(g, s, s.complement())
        assert ok == theta_by_matrix(g, s, s.complement()) is False


def test_theta_criterion_matches_matrix_when_one_bracket_rule_fails():
    """u(2) = center e0 (+) su(2) with [e1, e2] = e3 cyclically: h and V
    with theta an automorphism, then three splits that each break only one
    of [h,h] in h, [h,V] in V and [V,V] in h."""
    g = build(u(2))

    def span(*rows):
        return Subspace.from_vectors(4, [vec(r) for r in rows])
    e0, e1, e2, e3 = ([int(i == k) for i in range(4)] for k in range(4))
    e0e3 = [1, 0, 0, 1]
    splits = [(span(e0, e3), span(e1, e2), True),
              (span(e1, e2, e0e3), span(e0), False),
              (span(e1, e2, e3), span([1, 0, 1, 0]), False),
              (span(e0e3), span(e1, e2, e3), False)]
    for h, v, expected in splits:
        assert theta_criterion(g, h, v) is expected
        assert theta_by_matrix(g, h, v) is expected


def j_by_mixing(vplus):
    """The real J with +i eigenspace V+: e_k = w + tau(w), J e_k =
    i (w - tau(w)), with w solved from the mixing matrix of the real and
    imaginary parts of V+."""
    q = vplus.ambient_dim
    vb = vplus.basis_vectors()
    f = len(vb)
    mix_inv = inverse(Matrix.from_columns(
        [vadd(v, vconj(v)) for v in vb]
        + [vadd(vscale(exact.I, v), vconj(vscale(exact.I, v))) for v in vb]))
    jcols = []
    for k in range(q):
        c = mix_inv.matvec(vunit(q, k))
        w = lincomb(q, vec([c[a] + I * c[f + a] for a in range(f)]), vb)
        jcols.append(vscale(exact.I, vsub(w, vconj(w))))
    return Matrix.from_columns(jcols)


GOLDEN_JS = sorted({json.dumps(c["spec"]["j"]) for c in MANIFEST
                    if "j" in c["spec"]})


@pytest.mark.parametrize("j", GOLDEN_JS, ids=range(len(GOLDEN_JS)))
def test_real_structure_matches_mixing_on_golden_js(j):
    jm = cli._parse_matrix(json.loads(j), "j")
    vplus = kernel(jm - Matrix.identity(jm.nrows).scale(exact.I))
    assert cx.structure_with_plus_space(vplus) == j_by_mixing(vplus) == jm


def test_real_structure_matches_mixing_on_random_eigenspaces():
    rng = random.Random(11)
    tried = 0
    for f in (1, 2, 3, 4):
        for _ in range(4):
            vplus = Subspace.from_vectors(2 * f, [
                rand_vec(rng, 2 * f, 0.7) for _ in range(f)])
            if vplus.dim != f or vplus.intersect(vplus.conjugate()).dim:
                continue
            j = cx.structure_with_plus_space(vplus)
            assert j == j_by_mixing(vplus)
            assert j.is_real()
            assert j * j == -Matrix.identity(2 * f)
            assert kernel(j - Matrix.identity(2 * f).scale(exact.I)) == vplus
            tried += 1
    assert tried >= 10
    # a V+ holding a real vector meets tau(V+): no J, by either formula
    real_line = Subspace.from_vectors(2, [(ONE, Q(2))])
    with pytest.raises(ExactError):
        cx.structure_with_plus_space(real_line)
    with pytest.raises(ExactError):
        j_by_mixing(real_line)


def realify_subspace(s):
    """s as a rational subspace of dim 2 dim s in coordinates (re, im)."""
    vecs = []
    for b in s.basis_vectors():
        vecs.append(realify_vector(b))
        vecs.append(realify_vector(vscale(exact.I, b)))
    return Subspace.from_vectors(2 * s.ambient_dim, vecs)


def g_plus_l_by_realification(l):
    n = l.ambient_dim
    real_axes = Subspace.from_vectors(
        2 * n, [realify_vector(vunit(n, j)) for j in range(n)])
    return span_sum(2 * n, [real_axes, realify_subspace(l)]).dim == 2 * n


VERIFY_CASES = [c for c in MANIFEST if c["command"] == "verify"]


@pytest.mark.parametrize("case", VERIFY_CASES,
                         ids=[c["file"] for c in VERIFY_CASES])
def test_verify_certificates_match_the_formulas_they_replaced(tmp_path,
                                                              case):
    """g + l realified, and p n tau(p) on decompose_J's rebuilt p."""
    g, h, J = golden_structure(tmp_path, case)
    ledger = {e.name: e.ok for e in cx.verify_structure(J)}
    assert ledger["gc_equals_g_plus_l"] is g_plus_l_by_realification(
        cx.plus_space(J)) is True
    p = cx.decompose_J(J)[0]
    assert ledger["p_cap_tau_p_is_mc"] is (
        p.space.intersect(p.space.conjugate()) == p.levi_real) is True


def test_g_plus_l_criterion_matches_realification_where_it_fails():
    """verify's criterion, the real points of l + tau(l) span g, on h_C of
    su(3)/u(2) (real, fails), on (1, i) in C^2 (its real and imaginary
    parts span R^2) and on random complex subspaces."""
    assert realify_subspace(Subspace.from_vectors(2, [(ONE, I)])).dim == 2
    g = build(su(3))
    rng = random.Random(3)
    spaces = [build_subalgebra(g, su(3), "block_u", k=2).space,
              Subspace.from_vectors(2, [(ONE, I)])]
    spaces += [Subspace.from_vectors(g.dim, [rand_vec(rng, g.dim, 0.4)
                                             for _ in range(k)])
               for k in (1, 2, 3, 4, 4, 5, 6)]
    verdicts = []
    for l in spaces:
        ok = real_points(span_sum(l.ambient_dim, [l, l.conjugate()])).dim \
            == l.ambient_dim
        assert ok == g_plus_l_by_realification(l)
        verdicts.append(ok)
    assert verdicts[:2] == [False, True] and verdicts.count(False) > 2


# ---------------------------------------------------------------------------
# verify's Nijenhuis trials against the fresh draws of every pair they
# replaced

def per_pair_perturbation_trials(J, seed=0):
    """Perturb every lift by random h elements, PERTURBATION_TRIALS times
    per basis pair, and require bit-identical Nijenhuis values; also checks
    the antisymmetry and J-twist symmetries."""
    rng = random.Random(seed)
    quot = J.quotient
    g = quot.algebra
    q = quot.dim
    hb = quot.h.basis_vectors()

    def rand_h():
        # coefficients a / d with a in -9..9 and d in 1..9, drawn in turn
        parts = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in hb]
        den = lcm(*(d for _, d in parts))
        return lincomb(g.dim, ivec([a * (den // d) for a, d in parts],
                                   None, den), hb)

    failures = []
    evaluations = 0
    for a in range(q):
        for b in range(a + 1, q):
            ua, ub = vunit(q, a), vunit(q, b)
            base = cx.nijenhuis(J, ua, ub)
            evaluations += 1
            if cx.nijenhuis(J, ub, ua) != vneg(base):
                failures.append(f"antisymmetry fails at ({a},{b})")
            tw = cx.nijenhuis(J, J.j.matvec(ua), ub)
            if tw != vneg(J.j.matvec(base)):
                failures.append(f"J-twist symmetry fails at ({a},{b})")
            evaluations += 2
            if hb:
                base_lifts = [quot.lift(w) for w in
                              (ua, ub, J.j.matvec(ua), J.j.matvec(ub))]
                for _ in range(cx.PERTURBATION_TRIALS):
                    lifts = tuple(vadd(x, rand_h()) for x in base_lifts)
                    evaluations += 1
                    if cx._nijenhuis_of_lifts(J, *lifts) != base:
                        failures.append(
                            f"lift perturbation changes N at ({a},{b})")
                        break
    return cx.LedgerEntry("nijenhuis_well_defined", not failures,
                          f"{evaluations} evaluations"
                          + ("" if not failures else "; " + failures[0])), \
        evaluations


def trial_outcome(trials, J, seed):
    entry, evaluations = trials(J, seed=seed)
    return entry.ok, entry.detail, evaluations


@pytest.mark.parametrize("case", VERIFY_CASES,
                         ids=[c["file"] for c in VERIFY_CASES])
def test_shared_draws_match_per_pair_draws_on_golden_verify_js(tmp_path,
                                                              case):
    """Drawn once per call or afresh at every pair, the moves of h give the
    same verdict and evaluation count, C(q,2)(3 + 20 [dim h > 0])."""
    g, h, J = golden_structure(tmp_path, case)
    q = g.dim - h.dim
    count = q * (q - 1) // 2 * (3 + cx.PERTURBATION_TRIALS * (h.dim > 0))
    for seed in range(3):
        assert trial_outcome(cx.nijenhuis_perturbation_trials, J, seed) \
            == trial_outcome(per_pair_perturbation_trials, J, seed) \
            == (True, f"{count} evaluations", count)


def test_shared_draws_catch_a_j_that_is_not_invariant(tmp_path,
                                                      monkeypatch):
    """On su(3)/u(2) with the sign pattern (1, -1), which u(2) does not
    preserve, both trials, past the invariance gate, find the lift moves
    changing N at the same first pair."""
    specs = _perfbench_module("specs")
    spec = {"algebra": {"kind": "su", "n": 3},
            "subalgebra": {"name": "block_u", "k": 2},
            "j": specs.sign_pattern_j((1, -1))}
    g, h, J = golden_structure(tmp_path, {"spec": spec, "args": []})
    assert not cx.is_invariant(J)
    monkeypatch.setattr(cx, "_require_invariant", lambda J: None)
    for seed in range(3):
        shared, per_pair = (trial_outcome(trials, J, seed) for trials in (
            cx.nijenhuis_perturbation_trials, per_pair_perturbation_trials))
        assert shared[0] is per_pair[0] is False
        assert shared[1].split("; ")[1] == per_pair[1].split("; ")[1]
        assert shared[1].split("; ")[1].startswith(
            "lift perturbation changes N at (")


# ---------------------------------------------------------------------------
# positive systems and parabolics on root indices against the sign-vector
# product and the dense certificates they replaced

def dense_killing_perp_nilradical(g, p_space):
    """{x in p : kappa(x, p) = 0} n [g_C, g_C], by one kernel over p."""
    gram = g.killing_gram()
    rows = [gram.matvec(b) for b in p_space.basis_vectors()]
    perp = kernel(Matrix(rows)) if rows else Subspace.full(g.dim)
    return perp.intersect(p_space).intersect(g.derived_span())


def dense_build_parabolic(rd, m, q_plus):
    """p = m_C (+) the Q+ root spaces, every certificate checked on the
    subspaces themselves."""
    g = rd.algebra
    n_space = span_sum(g.dim, [rd.roots[i].space for i in q_plus]) \
        if q_plus else Subspace.zero(g.dim)
    p_space = span_sum(g.dim, [m, n_space])
    if not is_closed(g, p_space):
        raise roots.ClosureFailure("p is not bracket-closed")
    if not p_space.contains_subspace(rd.zero_space):
        raise roots.ClosureFailure("p does not contain the Cartan's zero space")
    for i in range(len(rd.roots)):
        j = rd.negative_of(i)
        if not (p_space.contains_subspace(rd.roots[i].space)
                or p_space.contains_subspace(rd.roots[j].space)):
            raise roots.ClosureFailure("p misses both root spaces of a +/- pair")
    if p_space.intersect(p_space.conjugate()) != m:
        raise roots.ClosureFailure("p n tau(p) != m_C")
    for a in p_space.basis_vectors():
        for b in n_space.basis_vectors():
            if not n_space.contains(g.bracket(a, b)):
                raise roots.ClosureFailure("n is not an ideal of p")
    if n_space.dim and not dense_is_nilpotent(g, n_space):
        raise roots.ClosureFailure("n is not nilpotent")
    if dense_killing_perp_nilradical(g, p_space) != n_space:
        raise roots.ClosureFailure("Killing-perpendicular nilradical disagrees")
    return roots.Parabolic(m, tuple(sorted(q_plus)), n_space, p_space, rd)


def dense_is_nilpotent(g, s):
    """The lower central series taken in g: [s, s] from the brackets of
    basis pairs a before b, then [s, C] until the dimension stops falling."""
    bs = s.basis_vectors()
    cur = Subspace.from_vectors(g.dim, [g.bracket(a, b) for i, a in
                                        enumerate(bs) for b in bs[i + 1:]])
    if cur.dim == s.dim:
        return not s.dim
    while cur.dim > 0:
        nxt = Subspace.from_vectors(g.dim, [g.bracket(a, b) for a in bs
                                            for b in cur.basis_vectors()])
        if nxt.dim == cur.dim:
            return False
        cur = nxt
    return True


def dense_is_solvable(g, s):
    """The derived series taken in g, one `derived` call a term."""
    while s.dim > 0:
        nxt = derived(g, s)
        if nxt.dim == s.dim:
            return False
        s = nxt
    return True


def restricted_ad_radical(g, l):
    """The x in l with kappa_l(x, [l, l]) = 0, kappa_l the trace form of the
    d matrices of ad restricted to l."""
    bs = l.basis_vectors()
    d = len(bs)
    if d == 0:
        return l
    # tr(A B) pairs A read row by row with B read column by column
    ads = [restricted_ad(g, u, l) for u in bs]
    gram = Matrix([a.flatten() for a in ads]) \
        * Matrix([a.transpose().flatten() for a in ads]).transpose()
    der = Subspace.from_vectors(
        d, [l.coords(b) for b in pair_brackets(g, bs)])
    if der.dim == 0:
        return l
    rows = [gram.matvec(dv) for dv in der.basis_vectors()]
    return kernel_span(Matrix(rows), l)


@pytest.mark.parametrize("name", ["su3_t", "so5_t", "su3_u2", "su2su2_0",
                                  "dense_so5_t", "dense_su3_t"])
def test_nilpotency_in_own_coordinates_matches_the_series_in_g(name):
    g, h, report = classified(ORACLE_SPECS[name])
    subs = [Subspace.full(g.dim), h, report.m.m] + [
        s for p in report.parabolics[:8] for s in (p.nilradical, p.space)]
    verdicts = [is_nilpotent(g, s) for s in subs]
    assert verdicts == [dense_is_nilpotent(g, s) for s in subs]
    assert {True, False} <= set(verdicts)
    verdicts = [is_solvable(own_algebra(g, s)) for s in subs]
    assert verdicts == [dense_is_solvable(g, s) for s in subs]
    assert {True, False} <= set(verdicts)
    radicals = [radical(own_algebra(g, s), s) for s in subs]
    assert radicals == [restricted_ad_radical(g, s) for s in subs]
    assert {r.dim for r in radicals} != {0}


def loop_extend_to_maximal_abelian(g, t, within=None):
    """The extension that recomputes C(a) at every step, cut by within when
    it is given, with t tested abelian by its pair brackets."""
    if not is_abelian(g, t):
        raise NotAbelian("starting subalgebra is not abelian")
    a = t
    while True:
        c = centralizer(g, a)
        if within is not None:
            c = c.intersect(within)
        if c == a:
            return a
        v = next(v for v in c.basis_vectors() if not a.contains(v))
        a = Subspace.from_vectors(g.dim, a.basis.rows + (v,))


# catalog algebras in a random integer basis (`rotated`), over h = 0
ROTATED_PROBLEMS = {"rotated_su3_0": (su(3), 1), "rotated_so5_0": (so(5), 2)}


@functools.lru_cache(maxsize=None)
def rotated_problem(name):
    """g and h = 0 of a ROTATED_PROBLEMS entry, rotated once per session."""
    spec, seed = ROTATED_PROBLEMS[name]
    g = rotated(build(spec), seed)
    return g, Subspace.zero(g.dim)


@pytest.mark.parametrize("name", ["su3_t", "so5_t", "su3_u2", "su4_u2",
                                  "su2su2_0", "dense_so5_t", "dense_su3_t",
                                  *ROTATED_PROBLEMS])
def test_cartan_extension_matches_the_loop_that_recomputes_each_centralizer(
        name):
    if name in ROTATED_PROBLEMS:
        g, h = rotated_problem(name)
    else:
        g, h, _ = classified(ORACLE_SPECS[name])
    zero = Subspace.zero(g.dim)
    # classify's t, maximal abelian in C(h)
    ch = centralizer(g, h)
    assert extend_to_maximal_abelian(g, zero, ch) \
        == loop_extend_to_maximal_abelian(g, zero, ch)
    # its Cartan through center(m), bounded by m = C(center(m))
    m, t = cx.canonical_m(Quotient(g, h))
    cm = center(g, m)
    assert same_subspace(cm, t)
    assert centralizer(g, cm) == m
    a = extend_to_maximal_abelian(g, cm, m)
    assert a == loop_extend_to_maximal_abelian(g, cm)
    assert centralizer(g, a) == a
    # unbounded: C(0) is g
    assert extend_to_maximal_abelian(g, zero, Subspace.full(g.dim)) \
        == loop_extend_to_maximal_abelian(g, zero)


def product_positive_systems(rd, m):
    """Every sign vector on the +/- pairs outside the Levi, in
    itertools.product order, kept when closed under root addition; the
    Levi roots are those vanishing on center(m)."""
    cm = center(rd.algebra, m)
    levi = [i for i, r in enumerate(rd.roots)
            if all(not value_at(rd, r, b)
                   for b in cm.basis_vectors())]
    q = [i for i in range(len(rd.roots)) if i not in levi]
    pairs = []
    for i in q:
        if all(i not in pair for pair in pairs):
            pairs.append((i, rd.negative_of(i)))

    index = {r.values: i for i, r in enumerate(rd.roots)}
    vsum = {(a, b): index.get(vec([x + y for x, y in zip(
        qv(rd.roots[a].values), qv(rd.roots[b].values), strict=True)]))
        for a in q for b in q + levi}
    systems = []
    for signs in itertools.product((0, 1), repeat=len(pairs)):
        qp = {p[s] for p, s in zip(pairs, signs)}
        outside = set(q) - qp
        if not any(vsum[a, b] in outside
                   for a in qp for b in itertools.chain(qp, levi)):
            systems.append(tuple(sorted(qp)))
    return systems


def same_parabolic(p, q):
    return (p.positive_set == q.positive_set
            and p.space == q.space
            and p.nilradical == q.nilradical
            and p.levi_real == q.levi_real)


ORACLE_SPECS = {}
for _case in MANIFEST:
    if _case["command"] in ("classify", "construct", "decompose",
                            "symmetric"):
        ORACLE_SPECS.setdefault(_case["file"].split("__")[0], _case["spec"])
ORACLE_SPECS.update({f"su{n}_t": flag_spec("su", n) for n in range(2, 6)})
ORACLE_SPECS.update({f"so{n}_t": flag_spec("so", n) for n in range(4, 9)})
ORACLE_SPECS.update({f"su{n}_u{k}": flag_spec("su", n, "block_u", k=k)
                     for n in range(3, 6) for k in range(1, n)})
ORACLE_SPECS["su2su2_0"] = {"algebra": {"kind": "sum", "parts": [
    {"kind": "su", "n": 2}, {"kind": "su", "n": 2}]},
    "subalgebra": {"name": "zero"}}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_parabolics_match_the_product_and_the_dense_certificates(name):
    g, h, report = classified(ORACLE_SPECS[name])
    if not report.exists:
        assert report.reason == "odd_dimension"
        return
    rd, m = report.parabolics[0].datum, report.m.m
    assert [p.positive_set for p in report.parabolics] \
        == product_positive_systems(rd, m)
    # the dense certificates cost about 40 ms a parabolic on so(8)/t: above
    # 48 parabolics, an evenly spread sample of 24 to 47 of them
    sample = report.parabolics[::max(1, len(report.parabolics) // 24)]
    assert all(same_parabolic(p, dense_build_parabolic(rd, m, p.positive_set))
               for p in sample)


@pytest.mark.parametrize("case", DECOMPOSE_CASES,
                         ids=[c["file"] for c in DECOMPOSE_CASES])
def test_decomposed_parabolic_matches_the_dense_certificates(tmp_path, case):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    ps = cli.parse(path)
    quot = cli._resolve_problem(ps)
    p, _ = cx.decompose_J(cli._structure(ps, quot))
    assert same_parabolic(
        p, dense_build_parabolic(p.datum, p.levi_real, p.positive_set))


def rejection(build, rd, m, q_plus):
    try:
        build(rd, m, q_plus)
    except roots.ClosureFailure as e:
        return str(e)
    return None


@pytest.mark.parametrize("name", ["su3_t", "so5_t", "su3_u2", "su4_u3",
                                  "su2su2_0", "dense_su3_t"])
def test_broken_sets_are_rejected_like_the_dense_certificates(name):
    """Every sign vector (closed or not), a set holding a +/- pair, all of
    g, the sets missing one root of a system and a system plus a Levi root:
    the same sets fail, with the same reason."""
    _, _, report = classified(ORACLE_SPECS[name])
    rd, m = report.parabolics[0].datum, report.m.m
    levi = rd.levi_roots(m)
    q = [i for i in range(len(rd.roots)) if i not in levi]
    pairs = sorted({tuple(sorted((i, rd.negative_of(i)))) for i in q})
    sets = [tuple(sorted(p[s] for p, s in zip(pairs, signs)))
            for signs in itertools.product((0, 1), repeat=len(pairs))]
    qp = report.parabolics[-1].positive_set
    sets += [tuple(sorted(qp + (rd.negative_of(qp[0]),))),
             tuple(range(len(rd.roots)))]
    sets += [qp[:k] + qp[k + 1:] for k in range(len(qp))]
    # a Levi root in n: p is the same parabolic, n is not its ideal
    sets += [tuple(sorted(qp + (i,))) for i in levi[:1]]
    reasons = []
    for s in sets:
        reason = rejection(roots.build_parabolic, rd, m, s)
        assert reason == rejection(dense_build_parabolic, rd, m, s), s
        reasons.append(reason)
    assert reasons.count(None) == len(report.parabolics)
    assert "p n tau(p) != m_C" in reasons
    if len(report.parabolics) < 2 ** len(pairs):
        assert "p is not bracket-closed" in reasons
    if not levi:
        # a Borel without a simple root is closed and misses that pair
        assert "p misses both root spaces of a +/- pair" in reasons
    else:
        assert reasons[-1] == "n is not an ideal of p"


# ---------------------------------------------------------------------------
# canonical subspaces built once, against the chains that eliminated again

def two_pass_kernel(m):
    """The null vector of each free column of rref(m), put in RREF by a
    second elimination."""
    red, pivots, _ = rref(m)
    nc = m.ncols
    cols, units = red.transpose().rows, [vunit(nc, p) for p in pivots]
    return Subspace.from_vectors(nc, [
        vsub(vunit(nc, f), lincomb(nc, cols[f], units))
        for f in range(nc) if f not in pivots])


def chained_kernel_span(m, space):
    """kernel, lincomb into space's basis, and an elimination of the images."""
    return Subspace.from_vectors(space.ambient_dim, [
        lincomb(space.ambient_dim, c, space.basis_vectors())
        for c in two_pass_kernel(m).basis_vectors()])


def stacked_intersect(a, b):
    """x = A^T s = B^T t: the kernel of (A^T | -B^T), its s halves mapped
    through A's basis and eliminated."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    stacked = Matrix([vcat((ar, vneg(br))) for ar, br in
                      zip(a.basis.transpose().rows, b.basis.transpose().rows)])
    return Subspace.from_vectors(a.ambient_dim, [
        lincomb(a.ambient_dim, k[:a.dim], a.basis.rows)
        for k in two_pass_kernel(stacked).basis_vectors()])


def greedy_relative_complement(outer, inner):
    """The outer rows not in the span of inner and the rows chosen so far,
    one add at a time."""
    if not outer.contains_subspace(inner):
        raise ExactError("inner is not contained in outer")
    chosen, cur = [], inner
    for row in outer.basis_vectors():
        if not cur.contains(row):
            chosen.append(row)
            cur = span_sum(outer.ambient_dim, [
                cur, Subspace.from_vectors(outer.ambient_dim, [row])])
    return Subspace.from_vectors(outer.ambient_dim, chosen)


def same_subspace(a, b):
    """Equal as objects: ambient, basis rows and pivots, not only ==."""
    return ((a.ambient_dim, a.basis.rows, a.basis.ncols, a.pivots)
            == (b.ambient_dim, b.basis.rows, b.basis.ncols, b.pivots))


fractions12 = st.fractions(-40, 40, max_denominator=12)


@st.composite
def kind_matrices(draw, nc=None):
    """A real, Gaussian or purely imaginary matrix with mixed denominators,
    0 x n and n x 0 included; half of them rank-deficient, with rows that
    are integer combinations of the first few."""
    nr = draw(st.integers(0, 6))
    nc = draw(st.integers(0, 6)) if nc is None else nc
    kind = draw(st.sampled_from(KINDS))
    part = st.one_of(st.just(Fraction(0)), fractions12)
    rows = [[Q(0 if kind == "imaginary" else draw(part),
               0 if kind == "real" else draw(part)) for _ in range(nc)]
            for _ in range(nr)]
    if nr and draw(st.booleans()):
        rank = draw(st.integers(0, nr - 1))
        rows[rank:] = [gq_lincomb(nc, [Q(draw(st.integers(-3, 3)))
                                       for _ in range(rank)], rows[:rank])
                       for _ in range(nr - rank)]
        rows = draw(st.permutations(rows))
    return Matrix(rows, nc)


def subspaces(nc):
    return kind_matrices(nc).map(lambda m: Subspace.from_vectors(nc, m.rows))


@settings(max_examples=80, deadline=None)
@given(kind_matrices())
def test_one_pass_kernel_matches_two_eliminations(m):
    assert same_subspace(kernel(m), two_pass_kernel(m))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(subspaces).flatmap(
    lambda space: st.tuples(st.just(space), kind_matrices(space.dim))))
def test_kernel_span_matches_the_lincomb_chain(case):
    space, m = case
    assert same_subspace(kernel_span(m, space), chained_kernel_span(m, space))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    subspaces(n), subspaces(n), kind_matrices(n))))
def test_zassenhaus_intersect_matches_the_stacked_kernel(case):
    a, b, extra = case
    # b also shares a's first rows, so that the intersection is not zero
    shared = Subspace.from_vectors(a.ambient_dim,
                                   a.basis.rows[:2] + extra.rows)
    for x, y in ((a, b), (b, a), (a, shared), (shared, a), (a, a)):
        assert same_subspace(x.intersect(y), stacked_intersect(x, y))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    subspaces(n), kind_matrices(n), st.lists(st.lists(
        st.integers(-3, 3), min_size=6, max_size=6), max_size=4))))
def test_relative_complement_matches_the_greedy_loop(case):
    outer, other, coeffs = case
    n = outer.ambient_dim
    inner = Subspace.from_vectors(n, [
        gq_lincomb(n, [Q(c) for c in cs[:outer.dim]], outer.basis.rows)
        for cs in coeffs])
    assert same_subspace(relative_complement(outer, inner),
                         greedy_relative_complement(outer, inner))
    wider = Subspace.from_vectors(n, inner.basis.rows + other.rows)
    if outer.contains_subspace(wider):
        assert same_subspace(relative_complement(outer, wider),
                             greedy_relative_complement(outer, wider))
    else:
        with pytest.raises(ExactError, match="not contained"):
            relative_complement(outer, wider)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6).flatmap(subspaces))
def test_direct_bases_match_an_elimination(s):
    n = s.ambient_dim
    assert same_subspace(Subspace.full(n), Subspace.from_vectors(
        n, [vunit(n, i) for i in range(n)]))
    assert same_subspace(s.complement(), Subspace.from_vectors(
        n, [vunit(n, c) for c in range(n) if c not in s.pivots]))
    assert same_subspace(s.conjugate(), Subspace.from_vectors(
        n, [vconj(b) for b in s.basis_vectors()]))


def test_each_canonical_subspace_is_eliminated_once():
    rng = random.Random(14)
    m = kernel_matrix(rng, "gaussian", 4, 7, rank=3)
    a = Subspace.from_vectors(7, kernel_matrix(rng, "gaussian", 4, 7).rows)
    b = Subspace.from_vectors(7, kernel_matrix(rng, "real", 5, 7).rows)
    _, calls = profiled(kernel, m)
    assert calls(rref) == 1
    sub, calls = profiled(a.intersect, b)
    assert sub.dim == 2
    assert [calls(rref), calls(kernel)] == [1, 0]
    _, calls = profiled(kernel_span, kernel_matrix(rng, "real", 2, 4), a)
    assert [calls(rref), calls(Subspace.from_vectors)] == [1, 0]
    _, calls = profiled(relative_complement, a, sub)
    assert calls(rref) == 1
    for build in (lambda: Subspace.full(7), a.complement, a.conjugate):
        _, calls = profiled(build)
        assert calls(rref) == 0


# ---------------------------------------------------------------------------
# subspaces cut one linear condition at a time, against the stacked kernels
# they replaced

def ad_row_centralizer(g, s):
    """The kernel of the rows of ad(v), stacked over the basis of s."""
    return kernel(Matrix([r for v in s.basis_vectors() for r in ad(g, v).rows],
                         g.dim))


def reduction_matrix(space):
    """Matrix of v -> residual of v mod space (linear, kernel = space)."""
    n = space.ambient_dim
    return Matrix.from_columns([space.reduce(vunit(n, j)) for j in range(n)])


def reduction_normalizer(g, h):
    """The kernel of R_h ad(v), stacked over the basis of h."""
    rh = reduction_matrix(h)
    return kernel(Matrix([r for v in h.basis_vectors()
                          for r in (rh * ad(g, v)).rows], g.dim))


def reduction_largest_ideal(g, h):
    """Each pass: the kernel of R_cur stacked over R_cur ad(e_j) for every j."""
    cur = h
    while True:
        rc = reduction_matrix(cur)
        rows = list(rc.rows)
        for j in range(g.dim):
            rows.extend((rc * ad(g, vunit(g.dim, j))).rows)
        nxt = kernel(Matrix(rows))
        if nxt == cur:
            return cur
        cur = nxt


def unit_matrix_commutant(q, gens):
    """One kernel: column k stacks vec(M E_k - E_k M) over every M."""
    units = [Matrix.from_columns([vunit(q, a) if j == b else vzero(q)
                                  for j in range(q)])
             for a in range(q) for b in range(q)]
    cols = [vcat([(m * e - e * m).flatten() for m in gens]) for e in units]
    return [Matrix([v[i * q:(i + 1) * q] for i in range(q)])
            for v in kernel(Matrix.from_columns(cols)).basis_vectors()]


def cut_instances(name):
    """g, h, the subspaces to cut by, and the generator lists whose
    commutant to take: h, m, center(m), g, 0, and, where a structure
    exists, the complex l, p and n of the first parabolic's J."""
    if name in ROTATED_PROBLEMS:
        (g, h), report = rotated_problem(name), None
    else:
        g, h, report = classified(ORACLE_SPECS[name])
    quot = Quotient(g, h)
    m, t = cx.canonical_m(quot)
    subs = [h, m, t, Subspace.full(g.dim), Subspace.zero(g.dim)]
    gens = [[quot.induced_map(x) for x in (t if h.dim == 0 else h)
             .basis_vectors()]]
    if report is not None and report.exists:
        p = report.parabolics[0]
        J = cx.construct_J(quot, p)
        subs += [cx.plus_space(J), p.space, p.nilradical]
        gens += [J.actions + [J.j], [J.j]]
    return g, subs, gens


@pytest.mark.parametrize("name", ["su3_t", "so5_t", "su3_u2", "su4_u3",
                                  "su2su2_0", "u2_0", "dense_so5_t",
                                  "dense_su3_t", *ROTATED_PROBLEMS])
def test_cuts_one_condition_at_a_time_match_the_stacked_kernels(name):
    g, subs, gens = cut_instances(name)
    assert any(not s.is_real() for s in subs) == (len(gens) > 1)
    for s in subs:
        assert same_subspace(centralizer(g, s), ad_row_centralizer(g, s))
        assert same_subspace(center(g, s), s.intersect(centralizer(g, s)))
        assert same_subspace(normalizer(g, s), reduction_normalizer(g, s))
        assert same_subspace(cx.largest_ideal_inside(g, s),
                             reduction_largest_ideal(g, s))
    for ms in gens:
        q = ms[0].nrows
        assert cx.commutant(q, ms) == unit_matrix_commutant(q, ms)


def test_symmetric_on_su4_u3_makes_few_matrix_products(tmp_path):
    # the unit-matrix commutant multiplied each of its 10 generators by all
    # 36 unit matrices, on both sides: 851 products in all
    case = next(c for c in SYMMETRIC_CASES
                if c["file"] == "su4_u3__symmetric.json")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    code, calls = profiled(cli.main, [
        "--spec", str(path), "--command", "symmetric",
        "--out", str(tmp_path / "report.json")])
    assert code == case["exit_code"] == 0
    assert calls(Matrix.__mul__) <= 400


# the Grassmannian su(4)/s(u(2) + u(2)): the pairs (0, 1) and (2, 3) at
# catalog indices 0, 1, 10, 11 and the three diagonal generators
SU4_S_U2_U2 = {"algebra": {"kind": "su", "n": 4}, "subalgebra": {
    "name": "span",
    "vectors": [[str(int(i == k)) for i in range(15)]
                for k in (0, 1, 10, 11, 12, 13, 14)]}}


def test_schur_on_vplus_matches_the_realified_commutant(tmp_path):
    """(g/h, J) is V+ as a complex h-module, so the real q x q matrices
    commuting with the isotropy actions and J are twice as many as the
    complex ones commuting with the actions on V+.  Checked on every golden
    symmetric J, construct's first J on su(4)/t and on su(4)/s(u(2) + u(2)),
    and random invariant conjugates of the small ones."""
    structures = [golden_structure(tmp_path, c)[2] for c in SYMMETRIC_CASES]
    expected = {}
    for name, spec in (("su4_t", flag_spec("su", 4)),
                       ("su4_s_u2_u2", SU4_S_U2_U2)):
        quot = cli._resolve_problem(cli.parse_obj(spec))
        J = cx.construct_J(quot, cx.classify(quot).parabolics[0])
        expected[name] = cx.commutant_dimension(J)
        structures.append(J)
    # t acts on the six root spaces of V+ by distinct weights; the
    # Grassmannian is Hermitian symmetric, so its isotropy is irreducible
    assert expected == {"su4_t": 6, "su4_s_u2_u2": 1}
    rng = random.Random(3)
    structures += [J for J0 in structures if J0.quotient.dim <= 6
                   for J in random_invariant_structures(
                       J0.quotient, J0.j, rng, 2)]
    for J in structures:
        assert len(cx.commutant(J.quotient.dim, J.actions + [J.j])) \
            == 2 * cx.commutant_dimension(J)


def test_symmetric_builds_the_isotropy_actions_and_vplus_once(tmp_path,
                                                              monkeypatch):
    """symmetric without a j on su(4)/u(3): the constructed J holds its
    dim h = 9 actions on g/h and V+, and the Schur test and l read them,
    so induced_map runs 9 times and J - iI is eliminated once."""
    case = next(c for c in SYMMETRIC_CASES
                if c["file"] == "su4_u3__symmetric_k0.json")
    eliminated = []

    def recording_kernel(m):
        eliminated.append(m)
        return kernel(m)
    monkeypatch.setattr(cx, "kernel", recording_kernel)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(case["spec"]))
    code, calls = profiled(cli.main, [
        "--spec", str(path), "--command", "symmetric", *case["args"],
        "--out", str(tmp_path / "report.json")])
    assert code == case["exit_code"] == 0
    assert calls(Quotient.induced_map) == 9
    (m,) = eliminated
    j = m + Matrix.identity(6).scale(exact.I)
    assert j.is_real() and j * j == -Matrix.identity(6)
