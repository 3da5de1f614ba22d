"""Root decomposition and parabolic enumeration, including the independent
nilradical oracle."""

import math

import pytest

from liecx import cx
from liecx.exact import (
    GQ, I, Matrix, Subspace, vec, vadd, vneg, vunit, is_zero_vec, real_points,
    span_sum,
)
from liecx.liealg import (
    Subalgebra, centralizer, extend_to_maximal_abelian, is_nilpotent,
    quotient as make_quotient,
)
from liecx.catalog import build, build_subalgebra, su, so, direct_sum
from liecx.roots import (
    root_decomposition, enumerate_positive_systems,
    build_parabolic, NotCartan, ClosureFailure, RootError,
)

from conftest import classified, flag_spec, profiled
from test_fast_paths import (
    Q, dense_killing_perp_nilradical, find_regular, parabolic_from_abelian,
)


@pytest.fixture(scope="module")
def su2_datum():
    g = build(su(2))
    t = build_subalgebra(g, su(2), "maximal_torus").space
    return g, root_decomposition(g, t)


@pytest.fixture(scope="module")
def su3_datum():
    g = build(su(3))
    t = build_subalgebra(g, su(3), "maximal_torus").space
    return g, root_decomposition(g, t)


def test_su2_roots(su2_datum):
    g, rd = su2_datum
    assert len(rd.roots) == 2
    assert rd.zero_space.dim == 1
    assert {r.values for r in rd.roots} == {vec([GQ(0, -1)]), I}
    for i, r in enumerate(rd.roots):
        assert r.space.dim == 1
        j = rd.negative_of(i)
        assert rd.roots[j].values == vneg(r.values)
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
        total = span_sum(8, [total, r.space])
    assert total.dim == 8
    # all root values are purely imaginary (compact form)
    for r in rd.roots:
        assert all(v.re == 0 for v in r.values)


def test_root_spaces_bracket_into_sums(su3_datum):
    g, rd = su3_datum
    index = {r.values: i for i, r in enumerate(rd.roots)}
    for i, a in enumerate(rd.roots):
        for j, b in enumerate(rd.roots):
            s = vadd(a.values, b.values)
            target = index.get(s)
            va = a.space.basis_vectors()[0]
            vb = b.space.basis_vectors()[0]
            br = g.bracket(va, vb)
            if target is not None:
                assert rd.roots[target].space.contains(br)
            elif not is_zero_vec(s):
                assert is_zero_vec(br)
            else:
                assert rd.zero_space.contains(br)


def test_not_cartan_rejected():
    g = build(su(3))
    small = Subalgebra.span(g, [vunit(8, 7)]).space
    with pytest.raises(NotCartan, match="not self-centralizing"):
        root_decomposition(g, small)
    # [e0, e1] != 0: no root decomposition is attempted
    not_abelian = Subspace.from_vectors(8, [vunit(8, 0), vunit(8, 1)])
    with pytest.raises(NotCartan, match="not abelian"):
        root_decomposition(g, not_abelian)


@pytest.mark.parametrize("spec", [su(3), so(5)], ids=["su3", "so5"])
def test_root_decomposition_computes_no_centralizer(spec):
    g = build(spec)
    t = build_subalgebra(g, spec, "maximal_torus").space
    rd, calls = profiled(root_decomposition, g, t)
    assert rd.zero_space == t
    assert calls(centralizer) == 0


def test_find_regular(su3_datum):
    g, rd = su3_datum
    h0 = find_regular(g, rd.cartan)
    assert centralizer(g, Subspace.from_vectors(8, [h0])) == rd.cartan
    # su(2)+su(2): the search order yields coefficients (1, 1)
    g2 = build(direct_sum(su(2), su(2)))
    t2 = Subalgebra.span(g2, [vunit(6, 2), vunit(6, 5)]).space
    h02 = find_regular(g2, t2)
    assert h02 == vadd(vunit(6, 2), vunit(6, 5))


@pytest.mark.parametrize("builder,count", [
    (lambda: (build(su(3)), "maximal_torus", su(3)), 6),
    (lambda: (build(direct_sum(su(2), su(2))), "maximal_torus",
              direct_sum(su(2), su(2))), 4),
    (lambda: (build(su(2)), "maximal_torus", su(2)), 2),
])
def test_positive_system_counts(builder, count):
    g, name, spec = builder()
    t = build_subalgebra(g, spec, name).space
    rd = root_decomposition(g, t)
    systems = enumerate_positive_systems(rd, t)
    assert len(systems) == count
    # each system is antisymmetric and closed
    for qp in systems:
        for i in qp:
            assert rd.negative_of(i) not in qp


def test_su3_u2_parabolics():
    g = build(su(3))
    h = build_subalgebra(g, su(3), "block_u", k=2).space
    a = extend_to_maximal_abelian(g, Subspace.zero(8), Subspace.full(8))
    rd = root_decomposition(g, a)
    systems = enumerate_positive_systems(rd, h)
    assert len(systems) == 2
    for qp in systems:
        p = build_parabolic(rd, h, qp)
        assert p.space.dim == 6
        assert p.nilradical.dim == 2
        assert p.levi_real == h


def test_parabolic_structure(su3_datum):
    g, rd = su3_datum
    t = rd.cartan
    systems = enumerate_positive_systems(rd, t)
    for qp in systems:
        p = build_parabolic(rd, t, qp)
        # Borel: dim (8+2)/2 = 5, nilradical 3
        assert p.space.dim == 5
        assert p.nilradical.dim == 3
        assert is_nilpotent(g, p.nilradical)
        assert real_points(p.space) == t
        # independent oracle: Killing-perpendicular nilradical
        assert dense_killing_perp_nilradical(g, p.space) == p.nilradical
        # [p, n] stays in n
        for a in p.space.basis_vectors():
            for b in p.nilradical.basis_vectors():
                assert p.nilradical.contains(g.bracket(a, b))


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


def test_killing_cross_check_can_only_fail_on_the_zero_space(
        su3_datum, monkeypatch):
    # The roots part of the Killing-perpendicular nilradical is Q+ once
    # p n tau(p) = m_C and [p, n] in n hold: a Q+ root inside the Levi has
    # its negative in p too, and [g_-a, g_a] lands in the zero space, so
    # [p, n] in n refuses it first.
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "block_u", k=2))
    found = quot.fact(cx.levi_systems, quot)
    m, rd, systems = found.m.m, found.datum, found.systems
    levi = rd.levi_roots(m)
    with pytest.raises(ClosureFailure, match="n is not an ideal of p"):
        build_parabolic(rd, m, tuple(sorted(systems[0] + levi[:1])))
    # The cross-check's own refusal then rests on zero_perp alone.
    _, rd = su3_datum
    qp = enumerate_positive_systems(rd, rd.cartan)[0]
    monkeypatch.setattr(rd, "zero_perp", rd.zero_space)
    with pytest.raises(ClosureFailure,
                       match="Killing-perpendicular nilradical disagrees"):
        build_parabolic(rd, rd.cartan, qp)


def test_parabolic_from_abelian():
    g = build(su(2))
    t = Subalgebra.span(g, [vunit(3, 2)]).space
    p = parabolic_from_abelian(g, t)
    assert p.levi_real == t
    assert p.space.dim == 2
    # the chosen positive root has value -i on e3 (search-order convention)
    assert [p.datum.roots[i].values for i in p.positive_set] \
        == [vec([GQ(0, -1)])]


# classify on a flag manifold g/t has one parabolic per Weyl chamber: |W| is
# n! for su(n), 2^k k! for so(2k+1) and 2^(k-1) k! for so(2k) (Humphreys,
# GTM 9, 12.1).  These counts pin today's classify; each instance is
# classified once per session and shared with the parabolic oracles.
WEYL_ORDERS = ([("su", n, math.factorial(n)) for n in range(2, 6)]
               + [("so", 2 * k + 1, 2 ** k * math.factorial(k))
                  for k in (1, 2, 3)]
               + [("so", 2 * k, 2 ** (k - 1) * math.factorial(k))
                  for k in (2, 3, 4)])


@pytest.mark.parametrize("kind,n,order", WEYL_ORDERS,
                         ids=[f"{k}{n}" for k, n, _ in WEYL_ORDERS])
def test_classify_counts_the_weyl_group(kind, n, order):
    _, _, report = classified(flag_spec(kind, n))
    assert report.exists
    assert len(report.parabolics) == order
    assert len({p.positive_set for p in report.parabolics}) == order


# On su(n)/block_u(k), classify's m = s(u(k) + u(1)^(n-k)) has
# k' = n - k + 1 diagonal blocks.  The parabolics that contain one Cartan
# and have Levi m are the chambers of the braid arrangement a_i = a_j on the
# center of m, one per order of the k' block eigenvalues: k'! of them
# (Arthur's P(M); Zaslavsky), not |W_g| / |W_m|.  The count comes from the
# block sizes alone.  dim g/h = n^2 - 1 - k^2 is odd when n - k is even.
BLOCK_U = [(n, k) for n in range(3, 6) for k in range(1, n)]


@pytest.mark.parametrize("n,k", BLOCK_U,
                         ids=[f"su{n}_u{k}" for n, k in BLOCK_U])
def test_classify_counts_the_chambers_of_m(n, k):
    blocks = [k] + [1] * (n - k)
    g = build(su(n))
    report = cx.classify(make_quotient(
        g, build_subalgebra(g, su(n), "block_u", k=k)))
    if (n * n - 1 - k * k) % 2:
        assert (report.exists, report.reason) == (False, "odd_dimension")
        return
    chambers = math.factorial(len(blocks))
    assert report.exists
    assert len({p.positive_set for p in report.parabolics}) \
        == len(report.parabolics) == chambers
    # dim m/h: the center of m has dim k' - 1, that of h dim 1
    assert report.fiber_dim == len(blocks) - 2


def test_root_datum_sums_are_where_every_pair_brackets():
    """rd.sums is the sum of root values on every pair, and each pair's
    bracket, made here basis vector by basis vector, lands where it says:
    in g_{a+b} (and nonzero) when the sum is a root, in the zero space when
    b = -a, and at 0 otherwise."""
    g = build(so(5))
    rd = root_decomposition(g, build_subalgebra(g, so(5),
                                                "maximal_torus").space)
    index = {r.values: i for i, r in enumerate(rd.roots)}
    assert len(rd.sums) == len(rd.roots)
    for a, ra in enumerate(rd.roots):
        assert len(rd.sums[a]) == len(rd.roots)
        for b, rb in enumerate(rd.roots):
            c = rd.sums[a][b]
            assert c == index.get(vadd(ra.values, rb.values))
            brackets = [g.bracket(u, v) for u in ra.space.basis_vectors()
                        for v in rb.space.basis_vectors()]
            if c is not None:
                assert not all(is_zero_vec(w) for w in brackets)
                assert all(rd.roots[c].space.contains(w) for w in brackets)
            elif b == rd.negative_of(a):
                assert all(rd.zero_space.contains(w) for w in brackets)
            else:
                assert all(is_zero_vec(w) for w in brackets)


@pytest.mark.parametrize("case", ["root", "zero", "none"])
def test_root_decomposition_refuses_a_bracket_off_its_sum(monkeypatch, case):
    """One root pair whose bracket is moved off where its values say it
    lands is refused when the datum is built: a sum that is a root, b = -a,
    and a sum that is neither."""
    g = build(su(3))
    t = build_subalgebra(g, su(3), "maximal_torus").space
    rd = root_decomposition(g, t)
    n = len(rd.roots)
    a, b = next((a, b) for a in range(n) for b in range(a, n)
                if {"root": rd.sums[a][b] is not None,
                    "zero": b == rd.negative_of(a),
                    "none": rd.sums[a][b] is None and b != rd.negative_of(a)
                    }[case])
    u = rd.roots[a].space.basis_vectors()[0]
    v = rd.roots[b].space.basis_vectors()[0]
    # off lies outside the space [u, v] must land in: 0 for a sum that is
    # neither a root nor 0, g_{a+b} or the zero space otherwise
    off = rd.roots[rd.negative_of(a)].space.basis_vectors()[0] \
        if case == "none" else vadd(u, v)
    bracket = g.bracket
    monkeypatch.setattr(g, "bracket", lambda x, y: vadd(bracket(x, y), off)
                        if (x, y) == (u, v) else bracket(x, y))
    with pytest.raises(RootError, match="misses the space"):
        root_decomposition(g, t)


def test_root_decomposition_rejects_a_gram_that_pairs_wrongly():
    """root_decomposition reads kappa off the gram once: a gram where some
    root space meets the zero space, and the zero gram, are refused."""
    def decompose(gram):
        g = build(su(3))
        g._killing_gram = gram(g.killing_gram())
        return root_decomposition(g, build_subalgebra(g, su(3),
                                                      "maximal_torus").space)

    def perturbed(gram):
        rows = [list(r) for r in gram.rows]
        rows[0][7] = rows[7][0] = Q.coerce(rows[0][7]) + 1
        return Matrix(rows)
    assert decompose(lambda gram: gram).zero_perp.dim == 0
    with pytest.raises(RootError, match="outside"):
        decompose(perturbed)
    with pytest.raises(RootError, match="singularly"):
        decompose(lambda gram: Matrix.zeros(8, 8))
