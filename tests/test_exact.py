"""Exact linear algebra over the Gaussian rationals, cross-checked against
sympy as an independent oracle and against algebraic laws via hypothesis."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liecx.exact import (
    GQ, I, Matrix, Subspace,
    ExactError, IrrationalSpectrum,
    rref, kernel, solve, inverse, charpoly, rational_eigenvalues,
    parse_rational,
    vec, vunit, vadd, vconj, vscale, real_points,
    relative_complement, span_sum,
)

from conftest import ONE, ZERO


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
gaussians = st.builds(GQ, rationals, rationals)


def small_matrix(n, m=None, complex_entries=True):
    entries = gaussians if complex_entries else st.builds(GQ, rationals)
    return st.lists(
        st.lists(entries, min_size=m or n, max_size=m or n),
        min_size=n, max_size=n).map(Matrix)


def to_sympy(m: Matrix):
    return sympy.Matrix([
        [sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row]
        for row in m.rows])


# ---------------------------------------------------------------------------
# scalars

def test_gq_field_axioms_examples():
    # the field operations act on vectors: Gaussian rationals and scalars
    # as 1-vectors, and 1 / a as a 1 x 1 inverse
    va = vec([GQ(Fraction(1, 2), Fraction(-3))])
    vb = vec([GQ(Fraction(2, 5), Fraction(7, 3))])
    assert vadd(va, vb) == vadd(vb, va)
    assert vscale(va, vb) == vscale(vb, va)
    assert vscale(vscale(va, vb), va) == vscale(va, vscale(vb, va))
    assert vscale(va, inverse(Matrix([va])).rows[0]) == vec([ONE])
    b_inv = inverse(Matrix([vb])).rows[0]
    assert vscale(vb, vscale(b_inv, va)) == va
    assert vscale(I, I) == vec([-1])


@given(gaussians, gaussians)
def test_gq_mul_matches_python_complex_structure(a, b):
    p = vscale(vec([a]), vec([b]))[0]
    assert p.re == a.re * b.re - a.im * b.im
    assert p.im == a.re * b.im + a.im * b.re


@given(gaussians)
def test_gq_conjugate_involution(a):
    va = vec([a])
    assert vconj(vconj(va)) == va
    n = vscale(va, vconj(va))[0]
    assert n.im == 0 and n.re >= 0


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    with pytest.raises(ExactError):
        parse_rational("1/0")
    with pytest.raises(ExactError):
        parse_rational("x")


# ---------------------------------------------------------------------------
# rref / kernel / solve / inverse vs sympy

@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 4))
def test_rref_matches_sympy(m):
    red, pivots, rank = rref(m)
    s, spivots = to_sympy(m).rref()
    assert tuple(pivots) == tuple(spivots)
    assert rank == len(spivots)
    # our rref drops zero rows; sympy keeps them
    assert to_sympy(red).tolist() == s[:rank, :].tolist()


@settings(max_examples=15, deadline=None)
@given(small_matrix(3, 4))
def test_kernel_matches_sympy_nullspace(m):
    k = kernel(m)
    null = to_sympy(m).nullspace()
    assert k.dim == len(null)
    for v in null:
        w = vec([GQ(Fraction(sympy.re(x)), Fraction(sympy.im(x))) for x in v])
        assert k.contains(w)


@settings(max_examples=15, deadline=None)
@given(small_matrix(3))
def test_solve_and_inverse(m):
    sm = to_sympy(m)
    b = vec([1, 2, 3])
    x = solve(m, b)
    if sm.rank() == 3:
        assert x is not None
        assert m.matvec(x) == b
        inv = inverse(m)
        assert to_sympy(inv) == sm.inv()
    elif x is not None:
        assert m.matvec(x) == b


def test_inverse_singular_raises():
    with pytest.raises(ExactError):
        inverse(Matrix([[ONE, ONE], [ONE, ONE]]))


# ---------------------------------------------------------------------------
# characteristic polynomial and rational eigenvalues

@settings(max_examples=15, deadline=None)
@given(small_matrix(4, complex_entries=False))
def test_charpoly_matches_sympy(m):
    coeffs = charpoly(m)
    x = sympy.Symbol("x")
    want = to_sympy(m).charpoly(x).all_coeffs()
    got = [sympy.Rational(c.re) for c in coeffs]
    assert got == want


def test_rational_eigenvalues_vs_sympy():
    m = Matrix([[GQ(2), GQ(1), ZERO],
                [ZERO, GQ(2), ZERO],
                [ZERO, ZERO, GQ(Fraction(-1, 2))]])
    vals = rational_eigenvalues(m)
    assert vals == vec(sorted([Fraction(2), Fraction(2), Fraction(-1, 2)]))
    svals = to_sympy(m).eigenvals()
    assert {Fraction(str(k)): v for k, v in svals.items()} \
        == {Fraction(2): 2, Fraction(-1, 2): 1}


def test_rational_eigenvalues_gaussian_entries():
    # i * (rotation by 90 degrees) has eigenvalues +-1
    m = Matrix([[ZERO, GQ(0, -1)], [GQ(0, 1), ZERO]])
    assert rational_eigenvalues(m) == vec([-1, 1])


def test_irrational_spectrum_rejected():
    m = Matrix([[ZERO, ONE], [GQ(2), ZERO]])  # eigenvalues +-sqrt(2)
    with pytest.raises(IrrationalSpectrum):
        rational_eigenvalues(m)


# ---------------------------------------------------------------------------
# subspaces

def spaces(ambient=4):
    return st.lists(
        st.lists(gaussians, min_size=ambient, max_size=ambient),
        min_size=0, max_size=3,
    ).map(lambda vs: Subspace.from_vectors(ambient, [vec(v) for v in vs]))


@settings(max_examples=25, deadline=None)
@given(spaces(), spaces())
def test_subspace_dimension_formula(a, b):
    assert span_sum(4, [a, b]).dim + a.intersect(b).dim == a.dim + b.dim


@settings(max_examples=25, deadline=None)
@given(spaces(), spaces())
def test_subspace_lattice_laws(a, b):
    s = span_sum(4, [a, b])
    assert s.contains_subspace(a) and s.contains_subspace(b)
    t = a.intersect(b)
    assert a.contains_subspace(t) and b.contains_subspace(t)
    assert span_sum(4, [a, a]) == a and a.intersect(a) == a


@settings(max_examples=25, deadline=None)
@given(spaces())
def test_subspace_canonical_equality(a):
    # re-spanning by scaled sums of basis vectors gives the same canonical form
    bs = a.basis_vectors()
    if not bs:
        return
    mixed = [vadd(vscale(vec([3]), v), bs[0]) for v in bs]
    assert Subspace.from_vectors(a.ambient_dim, mixed + list(bs)) == a


def test_coords_and_contains():
    s = Subspace.from_vectors(3, [vec([1, 0, 1]), vec([0, 1, 0])])
    v = vec([2, -1, 2])
    assert s.contains(v)
    c = s.coords(v)
    got = vadd(vscale(c[0:1], s.basis_vectors()[0]),
               vscale(c[1:2], s.basis_vectors()[1]))
    assert got == v
    assert not s.contains(vec([0, 0, 1]))


def test_relative_complement_deterministic():
    outer = Subspace.full(3)
    inner = Subspace.from_vectors(3, [vec([1, 1, 0])])
    c = relative_complement(outer, inner)
    assert c.dim == 2
    assert span_sum(3, [inner, c]) == outer
    assert inner.intersect(c).dim == 0
    assert relative_complement(outer, inner) == c


def test_real_points():
    # span_C{(1, i)} contains no nonzero real vector
    s = Subspace.from_vectors(2, [(ONE, GQ(0, 1))])
    assert real_points(s).dim == 0
    # span_C{(1, i), (1, -i)} contains the real plane
    s2 = Subspace.from_vectors(2, [(ONE, GQ(0, 1)), (ONE, GQ(0, -1))])
    rp = real_points(s2)
    assert rp.dim == 2 and rp.is_real()
