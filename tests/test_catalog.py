"""Catalog constructors: dimensions, validation, documented conventions."""

import pytest

from liecx.exact import GQ, Matrix, Subspace, vunit, is_zero_vec
from liecx.liealg import LieAlgebra, Subalgebra, centralizer, center, derived
from liecx import catalog, exact
from liecx.catalog import (
    AlgebraSpec, build, build_subalgebra, su, so, u, torus, direct_sum,
    InvalidSpec,
)

from conftest import ONE, ZERO, profiled
from test_hygiene import _perfbench_module


DIMS = [
    (su(2), 3), (su(3), 8), (su(4), 15),
    (so(3), 3), (so(4), 6), (so(5), 10),
    (u(2), 4), (u(3), 9),
    (torus(1), 1), (torus(3), 3),
    (direct_sum(su(2), su(2)), 6),
    (direct_sum(su(2), torus(1)), 4),
]


@pytest.mark.parametrize("spec,dim", DIMS)
def test_dimensions_and_validation(spec, dim):
    g = build(spec)
    assert g.dim == spec.dim() == dim
    assert g.validate().ok


RANKS = [(su(2), 1), (su(3), 2), (su(4), 3), (so(4), 2), (so(5), 2),
         (u(2), 2), (torus(2), 2), (direct_sum(su(2), su(2)), 2)]


@pytest.mark.parametrize("spec,rank", RANKS)
def test_maximal_torus_rank(spec, rank):
    g = build(spec)
    t = build_subalgebra(g, spec, "maximal_torus")
    assert t.space.dim == rank
    assert t.is_abelian()
    assert centralizer(g, t.space) == t.space


@pytest.mark.parametrize("parts,spec", [
    ([("su", 5)], su(5)), ([("su", 6)], su(6)), ([("so", 7)], so(7)),
    ([("so", 8)], so(8)), ([("su", 3), ("so", 5)], direct_sum(su(3), so(5))),
], ids=["su5", "su6", "so7", "so8", "su3+so5"])
def test_tables_match_the_benchmark_generator(parts, spec):
    # perfbench/specs rebuilds the documented bases as matrices in Fractions,
    # without liecx; its catalog tables are integral, which keeps its
    # -kappa, a sum over d^4 products, fast in ints
    specs = _perfbench_module("specs")
    table, torus = specs.algebra_table(parts)
    assert all(c.denominator == 1 for row in table for v in row for c in v)
    table = [[[int(c) for c in v] for v in row] for row in table]
    g = build(spec)
    assert [[(v.den, v.re, v.im) for v in row] for row in g.table] \
        == [[(1, tuple(v), None) for v in row] for row in table]
    assert [(r.den, r.re, r.im) for r in g.inner_product.rows] \
        == [(1, tuple(r), None) for r in specs.minus_killing(table)]
    t = build_subalgebra(g, spec, "maximal_torus")
    assert list(t.space.pivots) == torus


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        build(su(1))
    with pytest.raises(InvalidSpec):
        build(torus(0))
    with pytest.raises(InvalidSpec):
        build(AlgebraSpec("sp", 2))
    with pytest.raises(InvalidSpec):
        build(AlgebraSpec("sum"))


def test_build_stops_above_the_dimension_limit():
    assert build(torus(catalog.MAX_DIM)).dim == catalog.MAX_DIM
    with pytest.raises(InvalidSpec, match="dim g = 201 exceeds the limit 200"):
        build(direct_sum(torus(catalog.MAX_DIM), torus(1)))


def test_direct_sum_factors_annihilate():
    g = build(direct_sum(su(2), su(2)))
    for i in range(3):
        for j in range(3, 6):
            assert is_zero_vec(g.bracket(vunit(6, i), vunit(6, j)))
    # each factor is an ideal
    left = Subspace.from_vectors(6, [vunit(6, i) for i in range(3)])
    for i in range(6):
        for b in left.basis_vectors():
            assert left.contains(g.bracket(vunit(6, i), b))


def test_u2_is_torus_plus_su2():
    g = build(u(2))
    assert center(g, Subspace.full(4)) \
        == Subspace.from_vectors(4, [vunit(4, 0)])
    assert derived(g, Subspace.full(4)) \
        == Subspace.from_vectors(4, [vunit(4, k) for k in (1, 2, 3)])


def test_block_u_subalgebras():
    g3 = build(su(3))
    h = build_subalgebra(g3, su(3), "block_u", k=2).space
    assert h.dim == 4
    assert derived(g3, h).dim == 3           # the su(2) block
    assert center(g3, h).dim == 1
    g2 = build(su(2))
    h1 = build_subalgebra(g2, su(2), "block_u", k=1)
    assert h1.space == Subspace.from_vectors(3, [vunit(3, 2)])
    with pytest.raises(InvalidSpec):
        build_subalgebra(g3, su(3), "block_u", k=3)


def test_span_subalgebra_closure():
    g = build(su(2))
    s = build_subalgebra(g, su(2), "span", span=[[1, 0, 0]])
    assert s.space.dim == 1
    from liecx.liealg import NotClosed
    with pytest.raises(NotClosed):
        build_subalgebra(g, su(2), "span", span=[[1, 0, 0], [0, 1, 0]])


def test_zero_and_center_subalgebras():
    g = build(u(2))
    assert build_subalgebra(g, u(2), "zero").space.dim == 0
    assert build_subalgebra(g, u(2), "center").space.dim == 1


def test_inner_product_convention():
    # -kappa on semisimple factors, identity on central ones
    g = build(direct_sum(su(2), torus(1)))
    assert g.inner_product == Matrix([
        [GQ(2), ZERO, ZERO, ZERO],
        [ZERO, GQ(2), ZERO, ZERO],
        [ZERO, ZERO, GQ(2), ZERO],
        [ZERO, ZERO, ZERO, ONE]])
    assert g.validate().ok


def test_sums_are_flat():
    # a sum splices in the parts of the sums it is given, so every walk over
    # a spec goes one level deep, however deep its sums were written
    spec = su(2)
    for _ in range(450):
        spec = direct_sum(spec)
    assert build(spec).name == "su(2)"
    nested = direct_sum(su(2), direct_sum(torus(1), direct_sum(u(2))))
    flat = direct_sum(su(2), torus(1), u(2))
    assert [p.label() for p in nested.parts] == ["su(2)", "torus(1)", "u(2)"]
    assert (nested.label(), build(nested).table) \
        == (flat.label(), build(flat).table)
    # an empty inner sum stays a part, and is refused
    with pytest.raises(InvalidSpec, match="empty direct sum"):
        build(direct_sum(su(2), direct_sum()))


def test_labels():
    assert direct_sum(su(2), torus(1)).label() == "su(2)+torus(1)"
    assert u(3).label() == "u(3)"


@pytest.mark.parametrize("spec", [
    u(3), direct_sum(su(2), su(2), torus(1)), direct_sum(so(5), u(2))],
    ids=lambda s: s.label())
def test_build_makes_one_algebra(spec):
    # one block-diagonal table, one LieAlgebra and one Killing form for the
    # whole sum, not one per factor
    g, calls = profiled(build, spec)
    assert calls(LieAlgebra.__init__) == 1
    assert calls(LieAlgebra.killing_gram) == 1
    assert g.validate().ok


def test_block_u_reuses_the_su_coordinates():
    # build(su(6)) reads its table off the documented basis, with no
    # elimination; block_u(3) is read off the same catalog indices
    g, calls = profiled(build, su(6))
    assert calls(exact.rref) == 0
    assert build_subalgebra(g, su(6), "block_u", k=3).space.dim == 9
