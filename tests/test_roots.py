"""Root decomposition and parabolic enumeration, including the independent
nilradical oracle."""

import pytest

from liecx.exact import GQ, ZERO, ONE, I, Subspace, vunit, real_points
from liecx.liealg import (
    Subalgebra, centralizer, extend_to_maximal_abelian, zero_subalgebra,
    is_nilpotent,
)
from liecx.catalog import build, build_subalgebra, su, u, torus, direct_sum
from liecx.roots import (
    find_regular, root_decomposition, enumerate_positive_systems,
    build_parabolic, parabolic_from_abelian, killing_perp_nilradical,
    NotCartan, ClosureFailure,
)


@pytest.fixture(scope="module")
def su2_datum():
    g = build(su(2))
    t = build_subalgebra(g, su(2), "maximal_torus")
    return g, root_decomposition(g, t)


@pytest.fixture(scope="module")
def su3_datum():
    g = build(su(3))
    t = build_subalgebra(g, su(3), "maximal_torus")
    return g, root_decomposition(g, t)


def test_su2_roots(su2_datum):
    g, rd = su2_datum
    assert len(rd.roots) == 2
    assert rd.zero_space.dim == 1
    assert {r.values for r in rd.roots} == {(-I,), (I,)}
    for i, r in enumerate(rd.roots):
        assert r.space.dim == 1
        j = rd.negative_of(i)
        assert rd.roots[j].values == r.negate_values()
        assert r.space.conjugate() == rd.roots[j].space


def test_su3_roots(su3_datum):
    g, rd = su3_datum
    assert len(rd.roots) == 6
    assert rd.zero_space.dim == 2
    assert all(r.space.dim == 1 for r in rd.roots)
    # root spaces and the Cartan fill g_C
    total = rd.zero_space
    for r in rd.roots:
        assert total.intersect(r.space).dim == 0
        total = total.add(r.space)
    assert total.dim == 8
    # all root values are purely imaginary (compact form)
    for r in rd.roots:
        assert all(v.re == 0 for v in r.values)


def test_root_spaces_bracket_into_sums(su3_datum):
    g, rd = su3_datum
    for i, a in enumerate(rd.roots):
        for j, b in enumerate(rd.roots):
            s = tuple(x + y for x, y in zip(a.values, b.values))
            target = rd.root_index(s)
            va = a.space.basis_vectors()[0]
            vb = b.space.basis_vectors()[0]
            br = g.bracket(va, vb)
            if target is not None:
                assert rd.roots[target].space.contains(br)
            elif any(s):
                assert all(x.is_zero() for x in br)
            else:
                assert rd.zero_space.contains(br)


def test_not_cartan_rejected():
    g = build(su(3))
    small = Subalgebra.span(g, [vunit(8, 7)])
    with pytest.raises(NotCartan):
        root_decomposition(g, small)


def test_find_regular(su3_datum):
    g, rd = su3_datum
    h0 = find_regular(g, rd.cartan)
    assert centralizer(g, Subspace.from_vectors(8, [h0])).space \
        == rd.cartan.space
    # su(2)+su(2): the search order yields coefficients (1, 1)
    g2 = build(direct_sum(su(2), su(2)))
    t2 = build_subalgebra(g2, None, "maximal_torus") \
        if False else Subalgebra.span(g2, [vunit(6, 2), vunit(6, 5)])
    h02 = find_regular(g2, t2)
    assert h02 == tuple(vunit(6, 2)[k] + vunit(6, 5)[k] for k in range(6))


@pytest.mark.parametrize("builder,count", [
    (lambda: (build(su(3)), "maximal_torus", su(3)), 6),
    (lambda: (build(direct_sum(su(2), su(2))), "maximal_torus",
              direct_sum(su(2), su(2))), 4),
    (lambda: (build(su(2)), "maximal_torus", su(2)), 2),
])
def test_positive_system_counts(builder, count):
    g, name, spec = builder()
    t = build_subalgebra(g, spec, name)
    rd = root_decomposition(g, t)
    systems = enumerate_positive_systems(rd, t)
    assert len(systems) == count
    # each system is antisymmetric and closed
    for qp in systems:
        for i in qp:
            assert rd.negative_of(i) not in qp


def test_su3_u2_parabolics():
    g = build(su(3))
    h = build_subalgebra(g, su(3), "block_u", k=2)
    cm = Subalgebra.span(g, h.space.basis_vectors()[:1], check=False)
    a = extend_to_maximal_abelian(g, zero_subalgebra(g))
    rd = root_decomposition(g, a)
    systems = enumerate_positive_systems(rd, h)
    assert len(systems) == 2
    for qp in systems:
        p = build_parabolic(rd, h, qp)
        assert p.space.dim == 6
        assert p.nilradical.dim == 2
        assert p.levi_real.space == h.space


def test_parabolic_structure(su3_datum):
    g, rd = su3_datum
    t = rd.cartan
    systems = enumerate_positive_systems(rd, t)
    for qp in systems:
        p = build_parabolic(rd, t, qp)
        # Borel: dim (8+2)/2 = 5, nilradical 3
        assert p.space.dim == 5
        assert p.nilradical.dim == 3
        assert is_nilpotent(p.nilradical)
        assert real_points(p.space.space) == t.space
        # independent oracle: Killing-perpendicular nilradical
        assert killing_perp_nilradical(g, p.space.space) \
            == p.nilradical.space
        # [p, n] stays in n
        for a in p.space.space.basis_vectors():
            for b in p.nilradical.space.basis_vectors():
                assert p.nilradical.space.contains(g.bracket(a, b))


def test_build_parabolic_rejects_bad_system(su3_datum):
    g, rd = su3_datum
    systems = enumerate_positive_systems(rd, rd.cartan)
    qp = list(systems[0])
    # a set containing a +- pair violates p n tau(p) = m_C
    bad = tuple(sorted(qp[:2] + [rd.negative_of(qp[0])]))
    with pytest.raises(ClosureFailure):
        build_parabolic(rd, rd.cartan, bad)


def test_build_parabolic_rejects_all_of_g(su3_datum):
    # p = g_C is closed and holds every root space; only p n tau(p) = m_C,
    # the check p n g = m now rests on, rejects it
    g, rd = su3_datum
    with pytest.raises(ClosureFailure, match=r"p n tau\(p\) != m_C"):
        build_parabolic(rd, rd.cartan, tuple(range(len(rd.roots))))


def test_parabolic_from_abelian():
    g = build(su(2))
    t = Subalgebra.span(g, [vunit(3, 2)])
    p = parabolic_from_abelian(g, t)
    assert p.levi_real.space == t.space
    assert p.space.dim == 2
    # the chosen positive root has value -i on e3 (search-order convention)
    assert [p.datum.roots[i].values for i in p.positive_set] == [(-I,)]
