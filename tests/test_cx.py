"""Core operations: Nijenhuis map, integrability, canonical m, construction,
decomposition, classification, verification ledger, symmetric detection."""

import random

import pytest

from liecx.exact import (
    GQ, Matrix, Subspace, vec,
    vunit, vadd, vscale, is_zero_vec, real_points,
)
from liecx.liealg import (
    NotClosed, Subalgebra, is_abelian, quotient as make_quotient,
)
from liecx.catalog import build, build_subalgebra, su, u, torus, direct_sum
from liecx import cx
from liecx.cx import (
    ComplexStructure, TorusComplexStructure, NotInvariant, OddFiber,
    default_torus_structure,
)
from liecx.roots import LeviMismatch, Parabolic

from conftest import (
    ZERO, ONE,
    s2_instance, calabi_eckmann_instance, swap_structure, parabolic_spaces,
    random_invariant_structures,
)


def rot(n):
    m = [[ZERO] * n for _ in range(n)]
    for k in range(0, n, 2):
        m[k + 1][k] = ONE
        m[k][k + 1] = GQ(-1)
    return Matrix(m)


# ---------------------------------------------------------------------------
# invariance and the Nijenhuis map

def test_s2_invariant_and_integrable():
    g, h, quot, J = s2_instance()
    assert cx.is_invariant(J)
    assert cx.is_integrable(J)


def test_h_zero_always_invariant():
    g, h, quot, J = swap_structure()
    assert cx.is_invariant(J)


def test_noninvariant_j_on_su3_t_detected():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    h = quot.h
    # map the first root plane to the second: the torus acts with different
    # scalars on the two planes, so this cannot commute with ad-bar(t)
    m = [[ZERO] * 6 for _ in range(6)]
    for s, d in ((0, 2), (1, 3)):
        m[d][s] = ONE
        m[s][d] = GQ(-1)
    m[5][4] = ONE
    m[4][5] = GQ(-1)
    J = ComplexStructure(quot, Matrix(m))
    assert not cx.is_invariant(J)
    with pytest.raises(NotInvariant):
        cx.nijenhuis(J, vunit(6, 0), vunit(6, 1))
    with pytest.raises(NotInvariant):
        cx.is_integrable(J)


def test_swap_structure_witness():
    g, h, quot, J = swap_structure()
    n = cx.nijenhuis(J, vunit(6, 0), vunit(6, 1))
    # N((e1,0),(e2,0)) = (e3, -e3)
    assert n == vec([ZERO, ZERO, ONE, ZERO, ZERO, GQ(-1)])
    assert not cx.is_integrable(J)


def test_nijenhuis_diagonal_vanishes():
    g, h, quot, J = swap_structure()
    for k in range(6):
        assert is_zero_vec(cx.nijenhuis(J, vunit(6, k), vunit(6, k)))


def test_calabi_eckmann_nijenhuis_vanishes():
    g, h, quot, J = calabi_eckmann_instance()
    assert cx.is_integrable(J)
    assert J.nijenhuis_witness is None


def test_nijenhuis_lift_perturbation_invariance(monkeypatch):
    """The trials evaluate N(e0, e1) on S^2 at lifts moved by random h
    elements: each moved lift projects where the quotient's own lift does,
    most of them move, and every value is the one nijenhuis computes."""
    g, h, quot, J = s2_instance()
    u, v = vunit(2, 0), vunit(2, 1)
    want = cx.nijenhuis(J, u, v)
    seen = []
    evaluate = cx._nijenhuis_of_lifts

    def spy(J, *lifts):
        seen.append((lifts, evaluate(J, *lifts)))
        return seen[-1][1]
    monkeypatch.setattr(cx, "_nijenhuis_of_lifts", spy)
    entry, evaluations = cx.nijenhuis_perturbation_trials(J, seed=5)
    assert entry.ok and evaluations == len(seen) == 3 + cx.PERTURBATION_TRIALS
    # N(e0, e1), then the antisymmetry and J-twist checks, then the trials
    base = [quot.lift(w) for w in (u, v, J.j.matvec(u), J.j.matvec(v))]
    assert seen[0] == (tuple(base), want)
    moved = 0
    for lifts, value in seen[3:]:
        assert value == want
        for x, b in zip(lifts, base):
            assert quot.project(x) == quot.project(b)
            moved += x != b
    assert moved > 2 * cx.PERTURBATION_TRIALS


# ---------------------------------------------------------------------------
# plus_space

def test_plus_space_s2():
    g, h, quot, J = s2_instance()
    l = cx.plus_space(J)
    want = Subspace.from_vectors(3, [
        vunit(3, 2), vadd(vunit(3, 0), vscale(vec([GQ(0, -1)]), vunit(3, 1)))])
    assert l == want
    assert 2 * l.dim == g.dim + h.dim


def test_plus_space_torus():
    g = build(torus(2))
    quot = make_quotient(g, build_subalgebra(g, torus(2), "zero"))
    h = quot.h
    J = ComplexStructure(quot, rot(2))
    l = cx.plus_space(J)
    assert l == Subspace.from_vectors(2, [
        vadd(vunit(2, 0), vscale(vec([GQ(0, -1)]), vunit(2, 1)))])
    assert cx.is_integrable(J)


def test_plus_space_dimension_identity():
    for g, h, quot, J in (s2_instance(), calabi_eckmann_instance()):
        assert 2 * cx.plus_space(J).dim == g.dim + h.dim


# ---------------------------------------------------------------------------
# compute_m

def test_compute_m_s2():
    g, h, quot, J = s2_instance()
    md = cx.compute_m(J)
    assert md.m == h
    assert md.u.dim == 0


def test_compute_m_calabi_eckmann():
    g, h, quot, J = calabi_eckmann_instance()
    md = cx.compute_m(J)
    assert md.m == Subspace.from_vectors(6, [vunit(6, 2), vunit(6, 5)])
    assert is_abelian(g, md.m)
    assert md.u.dim == 2


def test_compute_m_abelian_g():
    g = build(torus(4))
    quot = make_quotient(g, build_subalgebra(g, torus(4), "zero"))
    J = ComplexStructure(quot, rot(4))
    md = cx.compute_m(J)
    assert md.m.dim == 4


def test_m_is_certified_closed(monkeypatch):
    # compute_m's m and classify's m = t + h are closed by the theory; both
    # are still checked, and a space that is not closed raises NotClosed
    g, h, quot, J = s2_instance()
    with monkeypatch.context() as mp:
        mp.setattr(cx, "kernel_of", lambda space, f: Subspace.from_vectors(
            3, [vunit(3, 0), vunit(3, 2)]))
        with pytest.raises(NotClosed, match="not closed under the bracket"):
            cx.compute_m(J)
    monkeypatch.setattr(cx, "extend_to_maximal_abelian",
                        lambda g, t, within: Subspace.from_vectors(
                            3, [vunit(3, 0)]))
    with pytest.raises(NotClosed, match="not closed under the bracket"):
        cx.classify(quot)


# ---------------------------------------------------------------------------
# construction and decomposition

def test_construct_calabi_eckmann_from_parabolic():
    from liecx.roots import root_decomposition, enumerate_positive_systems, \
        build_parabolic
    g, h, quot, Jce = calabi_eckmann_instance()
    t = Subalgebra.span(g, [vunit(6, 2), vunit(6, 5)]).space
    rd = root_decomposition(g, t)
    u1 = vadd(vunit(6, 0), vscale(vec([GQ(0, -1)]), vunit(6, 1)))
    u2 = vadd(vunit(6, 3), vscale(vec([GQ(0, -1)]), vunit(6, 4)))
    parabolics = [build_parabolic(rd, t, qp)
                  for qp in enumerate_positive_systems(rd, t)]
    p = next(q for q in parabolics
             if q.nilradical.contains(u1) and q.nilradical.contains(u2))
    ufib = t
    assert tuple(ufib.basis_vectors()) == (vunit(6, 2), vunit(6, 5))
    j1 = TorusComplexStructure(ufib, Matrix([[ZERO, GQ(-1)], [ONE, ZERO]]))
    J = cx.construct_J(quot, p, j1)
    assert J.j == Jce.j


def test_construct_s2_from_borel():
    g, h, quot, Js2 = s2_instance()
    rep = cx.classify(quot)
    js = [cx.construct_J(quot, p).j for p in rep.parabolics]
    assert Js2.j in js


def test_construct_torus_returns_j1():
    g = build(torus(2))
    quot = make_quotient(g, build_subalgebra(g, torus(2), "zero"))
    rep = cx.classify(quot)
    assert len(rep.parabolics) == 1
    j1 = TorusComplexStructure(rep.m.u, rot(2))
    J = cx.construct_J(quot, rep.parabolics[0], j1)
    assert J.j == rot(2)


def test_default_torus_structure_odd_fiber():
    with pytest.raises(OddFiber):
        default_torus_structure(Subspace.full(3))
    t = default_torus_structure(Subspace.full(4))
    assert t.j1 == rot(4)


def test_roundtrip_decompose_construct():
    for g, h, quot, J in (s2_instance(), calabi_eckmann_instance()):
        p, j1 = cx.decompose_J(J)
        J2 = cx.construct_J(quot, p, j1)
        assert J2.j == J.j
        p2, j12 = cx.decompose_J(J2)
        assert parabolic_spaces(p2) == parabolic_spaces(p)
        assert (j12.u, j12.j1) == (j1.u, j1.j1)


def test_fiber_structure_is_the_given_j1():
    g, h, quot, Jce = calabi_eckmann_instance()
    p, j1 = cx.decompose_J(Jce)
    for j1mat in (rot(2), rot(2).scale(vec([-1]))):
        given = TorusComplexStructure(j1.u, j1mat)
        J = cx.construct_J(quot, p, given)
        found = cx.fiber_structure(J, j1.u)
        assert (found.u, found.j1) == (given.u, given.j1)


def test_construct_certifies_p_is_the_normalizer_of_l(monkeypatch):
    g, h, quot, J = s2_instance()
    p, _ = cx.decompose_J(J)
    monkeypatch.setattr(cx, "normalizer",
                        lambda g, l: Subspace.full(g.dim))
    with pytest.raises(cx.TheoremViolation, match="normalizer of l"):
        cx.construct_J(quot, p)


def test_construct_rejects_a_parabolic_whose_levi_does_not_fit_h():
    g = build(su(3))
    t = build_subalgebra(g, su(3), "maximal_torus")
    u2 = build_subalgebra(g, su(3), "block_u", k=2)
    borel = cx.classify(make_quotient(g, t)).parabolics[0]
    u2_parabolic = cx.classify(make_quotient(g, u2)).parabolics[0]
    # h = u(2) is not inside a Borel's Levi t
    with pytest.raises(LeviMismatch, match="h is not contained"):
        cx.construct_J(make_quotient(g, u2), borel)
    # h = t lies in the Levi u(2), but [u(2), u(2)] = su(2) and [t, t] = 0
    with pytest.raises(LeviMismatch, match=r"\[m,m\] != \[h,h\]"):
        cx.construct_J(make_quotient(g, t), u2_parabolic)
    # su(2)+su(2)/0: the fiber is classify's Cartan, J1 lives on another
    # plane
    g, h, quot, _ = calabi_eckmann_instance()
    p = cx.classify(quot).parabolics[0]
    plane = Subspace.from_vectors(6, [vunit(6, 0), vunit(6, 1)])
    assert plane != p.levi_real
    with pytest.raises(LeviMismatch, match="different fiber"):
        cx.construct_J(quot, p, TorusComplexStructure(plane, rot(2)))


def test_parabolic_index_rejects_an_unknown_positive_set():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    p, _ = cx.decompose_J(cx.construct_J(quot,
                                         cx.classify(quot).parabolics[1]))
    assert cx.parabolic_index(quot, p) == 1
    unknown = Parabolic(p.levi_real, (), p.nilradical, p.space, p.datum)
    with pytest.raises(cx.TheoremViolation, match="positive system"):
        cx.parabolic_index(quot, unknown)


def test_torus_structure_checks_j1():
    with pytest.raises(cx.ExactError, match="j1 has shape 4x4, expected 2x2"):
        TorusComplexStructure(Subspace.full(2), rot(4))
    with pytest.raises(cx.ExactError, match="J1\\^2 != -id"):
        TorusComplexStructure(Subspace.full(2), Matrix.identity(2))


def test_decompose_p_properties():
    g, h, quot, J = calabi_eckmann_instance()
    p, j1 = cx.decompose_J(J)
    l = cx.plus_space(J)
    # p is u (+) l as real spaces, and p n g = m
    assert real_points(p.space) == p.levi_real
    assert p.space.contains_subspace(l)
    assert l.contains_subspace(p.nilradical)
    assert l.intersect(l.conjugate()) == h


# ---------------------------------------------------------------------------
# classification

def test_classify_su3_t():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    rep = cx.classify(quot)
    assert rep.exists
    assert rep.m.m == quot.h
    assert len(rep.parabolics) == 6
    assert rep.fiber_dim == 0
    assert all(e.ok for e in rep.ledger)


def test_classify_su2su2():
    g = build(direct_sum(su(2), su(2)))
    rep = cx.classify(make_quotient(g, build_subalgebra(g, None, "zero")))
    assert rep.exists and len(rep.parabolics) == 4 and rep.fiber_dim == 2


def test_classify_odd_dimension():
    g = build(su(2))
    rep = cx.classify(make_quotient(g, build_subalgebra(g, None, "zero")))
    assert not rep.exists and rep.reason == "odd_dimension"


# ---------------------------------------------------------------------------
# verification ledger

def test_verify_ledger_s2_and_ce():
    for g, h, quot, J in (s2_instance(), calabi_eckmann_instance()):
        ledger = cx.verify_structure(J)
        assert ledger and all(e.ok for e in ledger)
        if h.dim == 0:
            assert any(e.name == "l_solvable" and e.ok for e in ledger)


def test_verify_ledger_su3_borel():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    J = cx.construct_J(quot, cx.classify(quot).parabolics[0])
    assert cx.plus_space(J).dim == 5
    assert all(e.ok for e in cx.verify_structure(J))


def test_perturbation_trials():
    g, h, quot, J = s2_instance()
    entry, evaluations = cx.nijenhuis_perturbation_trials(J, seed=3)
    assert entry.ok and evaluations >= 23


# ---------------------------------------------------------------------------
# symmetric pairs

def test_symmetric_s2():
    g, h, quot, J = s2_instance()
    v = cx.is_symmetric_pair(J)
    assert v.status == "symmetric"
    assert all(e.ok for e in v.checks)


def test_symmetric_cp2():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "block_u", k=2))
    J = cx.construct_J(quot, cx.classify(quot).parabolics[0])
    v = cx.is_symmetric_pair(J)
    assert v.status == "symmetric"


def test_symmetric_flag_not_applicable():
    g = build(su(3))
    quot = make_quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    J = cx.construct_J(quot, cx.classify(quot).parabolics[0])
    v = cx.is_symmetric_pair(J)
    assert v.status == "not_applicable"
    assert v.reason == "reducible_isotropy"
    assert cx.commutant_dimension(J) >= 3


def test_calabi_eckmann_not_symmetric_applicable():
    g, h, quot, J = calabi_eckmann_instance()
    v = cx.is_symmetric_pair(J)
    assert v.status == "not_applicable"


# ---------------------------------------------------------------------------
# randomized method agreement (small sample; the acceptance test runs more)

def test_method_agreement_on_random_invariant_structures():
    from conftest import random_torus_structure
    g, h, quot, J0 = calabi_eckmann_instance()
    rng = random.Random(11)
    outcomes = set()
    # generic conjugates of an integrable structure (mostly non-integrable)
    for J in random_invariant_structures(quot, J0.j, rng, 15):
        assert cx.is_invariant(J)
        outcomes.add(cx.is_integrable(J))  # asserts both methods agree
    # constructed structures with random torus parts (all integrable)
    rep = cx.classify(quot)
    for p in rep.parabolics[:2]:
        for _ in range(5):
            j1 = random_torus_structure(rep.m.u, rng)
            J = cx.construct_J(quot, p, j1)
            outcomes.add(cx.is_integrable(J))
    assert outcomes == {True, False}
