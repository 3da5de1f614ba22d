"""Lie algebra layer: validation, Killing form (vs a sympy trace oracle),
standard constructions, and quotient coordinates."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from liecx.exact import (
    GQ, I, Matrix, Subspace, vec, vunit, vadd, vscale, vconj,
)
from liecx.liealg import (
    LieAlgebra, Subalgebra, NotAbelian, NotClosed,
    centralizer, normalizer, derived, center, own_algebra, radical,
    is_abelian, is_solvable, is_nilpotent, extend_to_maximal_abelian,
    quotient,
)
from liecx.catalog import build, build_subalgebra, su, u, torus, direct_sum

from conftest import ONE, ZERO, ad

from test_fast_paths import Q, qv


@pytest.fixture(scope="module")
def su2():
    return build(su(2))


@pytest.fixture(scope="module")
def su3():
    return build(su(3))


# ---------------------------------------------------------------------------
# validation

def test_su2_table_is_epsilon(su2):
    e1, e2, e3 = (vunit(3, k) for k in range(3))
    assert su2.bracket(e1, e2) == e3
    assert su2.bracket(e2, e3) == e1
    assert su2.bracket(e3, e1) == e2
    assert su2.validate().ok


def test_validate_catches_broken_jacobi(su2):
    bad = [[list(v) for v in row] for row in su2.table]
    bad[0][1] = list(vec([0, 0, 2]))  # breaks antisymmetry and Jacobi
    res = LieAlgebra(bad, inner_product=su2.inner_product).validate()
    assert not res.ok
    assert res.first_failure()


def test_validate_catches_noninvariant_inner(su2):
    ip = Matrix([[ONE, ZERO, ZERO], [ZERO, GQ(2), ZERO], [ZERO, ZERO, ONE]])
    res = LieAlgebra(su2.table, inner_product=ip).validate()
    assert not res.ok


# ---------------------------------------------------------------------------
# Killing form vs sympy trace oracle

def sympy_killing(g, i, j):
    adi = sympy.Matrix([[sympy.Rational(x.re) for x in r]
                        for r in ad(g, vunit(g.dim, i)).rows])
    adj = sympy.Matrix([[sympy.Rational(x.re) for x in r]
                        for r in ad(g, vunit(g.dim, j)).rows])
    return (adi * adj).trace()


@pytest.mark.parametrize("spec", [su(2), su(3), direct_sum(su(2), torus(1))])
def test_killing_gram_matches_sympy(spec):
    g = build(spec)
    gram = g.killing_gram()
    for i in range(g.dim):
        for j in range(g.dim):
            assert sympy.Rational(gram.rows[i][j].re) == sympy_killing(g, i, j)
            assert gram.rows[i][j].im == 0


def test_su2_killing_is_minus_two_identity(su2):
    assert su2.killing_gram() == Matrix.identity(3).scale(vec([-2]))
    assert su2.inner_product == Matrix.identity(3).scale(vec([2]))


# ---------------------------------------------------------------------------
# bracket properties

def vdot(a, b):
    return sum((x * y for x, y in zip(qv(a), qv(b), strict=True)), Q(0))


coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=3, max_size=3).map(lambda c: vec(c))


@settings(max_examples=25, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_su2_jacobi_and_invariance(x, y, z):
    g = build(su(2))
    lhs = g.bracket(x, g.bracket(y, z))
    rhs = vadd(g.bracket(g.bracket(x, y), z), g.bracket(y, g.bracket(x, z)))
    assert lhs == rhs
    for gram in (g.inner_product, g.killing_gram()):
        def form(a, b):
            return vdot(a, gram.matvec(b))
        assert form(g.bracket(x, y), z) + form(y, g.bracket(x, z)) == 0


# ---------------------------------------------------------------------------
# constructions

def test_centralizer_and_normalizer(su2, su3):
    t3 = build_subalgebra(su3, su(3), "maximal_torus")
    assert centralizer(su3, t3.space) == t3.space
    h = Subalgebra.span(su2, [vunit(3, 2)]).space
    assert normalizer(su2, h) == h
    assert centralizer(su2, Subspace.zero(3)).dim == 3


def test_derived_and_center(su2, su3):
    assert derived(su2, Subspace.full(3)).dim == 3
    assert center(su2, Subspace.full(3)).dim == 0
    gu2 = build(u(2))
    assert center(gu2, Subspace.full(4)).dim == 1
    assert derived(gu2, Subspace.full(4)).dim == 3
    t3 = build_subalgebra(su3, su(3), "maximal_torus")
    assert derived(su3, t3.space).dim == 0


def test_subalgebra_closure_check(su2):
    with pytest.raises(NotClosed):
        Subalgebra.span(su2, [vunit(3, 0), vunit(3, 1)], check=True)
    s = Subalgebra.span(su2, [vunit(3, 0)], check=True)
    assert s.is_abelian() and is_abelian(su2, s.space)


def test_solvable_and_nilpotent(su2):
    # subalgebras of su(2)_C live on su2 itself: same table, complex entries
    borel = Subalgebra.span(
        su2, [vunit(3, 2), vadd(vunit(3, 0), vscale(vec([GQ(0, -1)]), vunit(3, 1)))],
        check=True).space
    assert is_solvable(own_algebra(su2, borel))
    assert not is_nilpotent(su2, borel)
    assert radical(own_algebra(su2, borel), borel) == borel
    nil = Subalgebra.span(
        su2, [vadd(vunit(3, 0), vscale(vec([GQ(0, -1)]), vunit(3, 1)))],
        check=True).space
    assert is_nilpotent(su2, nil)
    assert not is_solvable(su2)


def test_tau(su2):
    v = vadd(vunit(3, 0), vscale(I, vunit(3, 1)))
    assert vconj(v) == vadd(vunit(3, 0), vscale(vec([GQ(0, -1)]), vunit(3, 1)))
    # tau is an automorphism of the real structure tensor
    w = vunit(3, 2)
    assert vconj(su2.bracket(v, w)) == su2.bracket(vconj(v), vconj(w))


def test_extend_to_maximal_abelian(su2, su3):
    t = extend_to_maximal_abelian(su2, Subspace.zero(3), Subspace.full(3))
    assert t.dim == 1
    assert centralizer(su2, t) == t
    t3 = extend_to_maximal_abelian(su3, Subspace.zero(8), Subspace.full(8))
    assert t3.dim == 2
    assert centralizer(su3, t3) == t3
    # extension within a constrained ambient space
    h = Subalgebra.span(su3, [vunit(8, 6)]).space
    cw = centralizer(su3, h)
    tw = extend_to_maximal_abelian(su3, h, cw)
    assert tw.contains_subspace(h)
    assert is_abelian(su3, tw)


def test_extend_to_maximal_abelian_rejects_a_non_abelian_start(su3):
    # t is not abelian exactly when it is not inside C(t)
    t = Subspace.from_vectors(8, [vunit(8, 0), vunit(8, 1)])
    assert not is_abelian(su3, t)
    with pytest.raises(NotAbelian):
        extend_to_maximal_abelian(su3, t, centralizer(su3, t))


# ---------------------------------------------------------------------------
# quotients

def test_quotient_coordinates(su2):
    h = Subalgebra.span(su2, [vunit(3, 2)])
    q = quotient(su2, h)
    assert q.dim == 2
    for k in range(2):
        assert q.project(q.lift(vunit(2, k))) == vunit(2, k)
    assert q.project(vunit(3, 2)) == vec([ZERO, ZERO])
    # ad-bar(e3) is the rotation [[0,-1],[1,0]] on the (e1,e2) quotient
    assert q.induced_map(vunit(3, 2)) == Matrix([[ZERO, GQ(-1)], [ONE, ZERO]])


def test_quotient_zero_h(su2):
    q = quotient(su2, Subalgebra(su2, Subspace.zero(3)))
    assert q.dim == 3
    assert q.project(vunit(3, 1)) == vunit(3, 1)
    assert q.induced_map(vunit(3, 2)) == ad(su2, vunit(3, 2))
