"""Oracles for the zero-skipping fast paths.

Each test compares a fast path with the dense formula it replaced; the
dense formula is kept here, and only here, as the reference.
"""

import random
from fractions import Fraction

import pytest

from liecx.exact import (
    GQ, ZERO, I, Matrix, inverse, solve, vunit, realify_vector,
)
from liecx.liealg import LieAlgebra, quotient
from liecx.catalog import (
    build, build_subalgebra, su, so, u, _coordinates, _su_basis, _so_basis,
)


def rand_gq(rng, density=1.0):
    if rng.random() > density:
        return ZERO
    return GQ(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def rand_vec(rng, n, density):
    return tuple(rand_gq(rng, density) for _ in range(n))


# ---------------------------------------------------------------------------
# Quotient.project / lift against B^-1 and the unit-vector section

def dense_quotient_maps(quot):
    """The projection rows of B^-1, B = (h basis | complement axes), and
    the section whose columns are the complement axes."""
    h, comp = quot.h.space, quot.complement
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
    h = build_subalgebra(g, su(3), name, **kw)
    quot = quotient(g, h)
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
        assert quot.project(quot.lift(v)) == v
    for b in h.basis_vectors():
        assert quot.project(b) == (ZERO,) * quot.dim


# ---------------------------------------------------------------------------
# catalog structure tables against one exact solve per pair

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
    return tuple(tuple(solve(expand, flatten_real(dense_commutator(a, b)))
                       for b in basis) for a in basis)


def u_basis(n):
    """i * identity followed by the su(n) basis: the u(n) catalog order."""
    scalar = [[I if r == c else ZERO for c in range(n)] for r in range(n)]
    return [scalar] + _su_basis(n)


@pytest.mark.parametrize("spec,basis", [
    (su(2), _su_basis(2)),
    (su(3), _su_basis(3)),
    (so(4), _so_basis(4)),
    (so(5), _so_basis(5)),
    (u(2), u_basis(2)),
], ids=["su2", "su3", "so4", "so5", "u2"])
def test_catalog_table_matches_per_pair_solve(spec, basis):
    assert build(spec).table == per_pair_table(basis)


def test_coordinates_reject_matrices_outside_the_span():
    coords = _coordinates(_su_basis(3))
    assert coords(u_basis(3)[0]) is None  # i * identity is not traceless
    for k, m in enumerate(_su_basis(3)):
        assert coords(m) == vunit(8, k)


# ---------------------------------------------------------------------------
# bracket and Killing form against the dense triple and quadruple loops

def dense_bracket(g, x, y):
    n = g.dim
    out = [ZERO] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] = out[k] + x[i] * y[j] * g.table[i][j][k]
    return tuple(out)


def dense_killing_gram(g):
    n = g.dim
    return Matrix([[sum((g.table[i][k][l] * g.table[j][l][k]
                         for k in range(n) for l in range(n)), ZERO)
                    for j in range(n)] for i in range(n)])


def rotated(g, seed):
    """g's table rewritten in the basis f_a = sum_r P[r][a] e_r for a random
    invertible integer P; the new table is dense."""
    rng = random.Random(seed)
    n = g.dim
    while True:
        p = Matrix([[GQ(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
        try:
            pinv = inverse(p)
            break
        except Exception:
            continue
    f = p.transpose().rows
    return LieAlgebra([[pinv.matvec(dense_bracket(g, a, b)) for b in f] for a in f])


@pytest.fixture(scope="module", params=["su3", "so4_rotated"])
def algebra(request):
    if request.param == "su3":
        return build(su(3))
    return rotated(build(so(4)), seed=3)


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
                a = sum((x * y for x, y in zip(g.table[i][j],
                                               ip.matvec(vunit(n, k)))), ZERO)
                b = sum((x * y for x, y in zip(vunit(n, j),
                                               ip.matvec(g.table[i][k]))), ZERO)
                if not (a + b).is_zero():
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
        c = GQ(rng.randint(1, 3))
        ip[a][b] = ip[a][b] + c
        if a != b:
            ip[b][a] = ip[b][a] + c
    bad = LieAlgebra(g.table, inner_product=Matrix(ip))
    expected = dense_invariance_failures(bad)
    assert expected
    got = [f for f in bad.validate().failures if "ad-invariant" in f]
    assert got == expected
    assert not [f for f in g.validate().failures if "ad-invariant" in f]
