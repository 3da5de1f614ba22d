"""Invariant complex structures on quotients g/h of compact Lie algebras:
the Nijenhuis obstruction, integrability tests, the canonical subalgebra m,
the parabolic construction and decomposition of structures, classification,
and the Hermitian-symmetric detector.

Conventions.  A structure is a real matrix J on the canonical quotient
coordinates with J^2 = -id.  Its +i eigenspace on the complexified quotient
pulls back to the subalgebra l inside g_C; integrability of J and closure of
l are equivalent, and both are always computed and compared.
"""

from __future__ import annotations

from .exact import (
    I, Matrix, Subspace, ExactError,
    kernel, kernel_of, kernel_span, inverse, solve, lincomb, ivec,
    vunit, vadd, vsub, vneg, vscale, vconj, is_zero_vec, relative_complement,
    span_sum, real_points, take,
)
from .liealg import (
    LieAlgebra, Quotient,
    centralizer, normalizer, derived, center, own_algebra, radical,
    is_solvable, is_closed, is_abelian, require_closed,
    extend_to_maximal_abelian, pair_brackets,
)
from .roots import (
    Parabolic, root_decomposition, enumerate_positive_systems,
    build_parabolic, LeviMismatch,
)


class NotInvariant(ExactError):
    pass


class OddFiber(ExactError):
    pass


class TheoremViolation(ExactError):
    """A property the underlying theory guarantees unconditionally failed:
    an artifact bug or invalid input that slipped past validation."""


class LedgerEntry:
    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


class ComplexStructure:
    """A candidate structure J on g/h with J^2 = -id, with the actions
    ad-bar(x_i) of h's basis on g/h, the first nonzero (i, [ad-bar(x_i), J])
    or None, and V+, the +i eigenspace of J on the complexified quotient.
    is_integrable records the first basis pair (a, b) with N(e_a, e_b) != 0
    and its value, or None, as nijenhuis_witness."""

    def __init__(self, quot: Quotient, j: Matrix):
        q = quot.dim
        if j.nrows != q or j.ncols != q:
            raise ExactError(
                f"j has shape {j.nrows}x{j.ncols}, expected {q}x{q}")
        if not j.is_real():
            raise ExactError("J must be a real matrix")
        if j * j != -Matrix.identity(q):
            raise ExactError("J^2 != -id")
        self.quotient = quot
        self.j = j
        self.actions = [quot.induced_map(x) for x in quot.h.basis_vectors()]
        self.witness = next(((i, c) for i, a in enumerate(self.actions)
                             if not (c := a * j - j * a).is_zero()), None)
        self.vplus = kernel(j - Matrix.identity(q).scale(I))
        self.nijenhuis_witness = None
        self._integrable = None
        self._plus = None

    def __repr__(self):
        return f"ComplexStructure(on quotient of dim {self.quotient.dim})"


class TorusComplexStructure:
    """A structure on the fiber m/h, held on the canonical complement u of h
    in m; automatically integrable since m/h is abelian."""

    def __init__(self, u: Subspace, j1: Matrix):
        f = u.dim
        if j1.nrows != f or j1.ncols != f:
            raise ExactError(
                f"j1 has shape {j1.nrows}x{j1.ncols}, expected {f}x{f}")
        if f and j1 * j1 != -Matrix.identity(f):
            raise ExactError("J1^2 != -id")
        self.u = u             # complement of h inside m, ambient g coordinates
        self.j1 = j1           # on u-coordinates, j1^2 = -id


def default_torus_structure(u: Subspace) -> TorusComplexStructure:
    """Pair consecutive fiber coordinates: J1 e_{2k} = e_{2k+1}."""
    f = u.dim
    if f % 2:
        raise OddFiber(f"fiber dimension {f} is odd")
    cols = []
    for k in range(0, f, 2):
        cols.append(vunit(f, k + 1))
        cols.append(vneg(vunit(f, k)))
    return TorusComplexStructure(u, Matrix.from_columns(cols))


class MData:
    """m, the complement u of h in m, and center(m)."""

    def __init__(self, m: Subspace, u: Subspace, center_m: Subspace):
        self.m = m
        self.u = u
        self.center_m = center_m


class ClassificationReport:
    """classify's answer for g/h: the certificates checked, and either the
    reason no structure exists or the canonical m = t + h, the root datum of
    the Cartan through t, m's positive systems and their parabolics."""

    def __init__(self, ledger: list, reason: str = "", m: MData | None = None,
                 datum=None, systems=(), parabolics=()):
        self.ledger = ledger
        self.reason = reason
        self.exists = not reason
        self.m = m
        self.fiber_dim = m.u.dim if m else 0
        self.datum = datum
        self.systems = systems
        self.parabolics = list(parabolics)


# ---------------------------------------------------------------------------
# invariance and the Nijenhuis map

def is_invariant(J: ComplexStructure) -> bool:
    """[J, ad-bar(x)] = 0 for every x in h."""
    return J.witness is None


def _require_invariant(J):
    if not is_invariant(J):
        raise NotInvariant("J does not commute with the isotropy action")


def nijenhuis(J: ComplexStructure, u, v):
    """N(u, v) = p[x,y] + J(p[x',y] + p[x,y']) - p[x',y'] for any lifts
    x, y, x', y' of u, v, Ju, Jv; well defined exactly when J is invariant."""
    _require_invariant(J)
    lift = J.quotient.lift
    return _nijenhuis_of_lifts(J, lift(u), lift(v), lift(J.j.matvec(u)),
                               lift(J.j.matvec(v)))


def _nijenhuis_of_lifts(J, x, y, xp, yp):
    """N(u, v) from lifts x, y, x', y' of u, v, Ju, Jv."""
    q = J.quotient
    g = q.algebra
    t1 = q.project(g.bracket(x, y))
    t2 = J.j.matvec(vadd(q.project(g.bracket(xp, y)), q.project(g.bracket(x, yp))))
    t3 = q.project(g.bracket(xp, yp))
    return vsub(vadd(t1, t2), t3)


def plus_space(J: ComplexStructure) -> Subspace:
    """l = p^{-1} of the +i eigenspace of J, inside g_C (closure not asserted)."""
    _require_invariant(J)
    if J._plus is None:
        q = J.quotient
        J._plus = Subspace.from_vectors(q.algebra.dim, [
            *q.h.basis_vectors(), *map(q.lift, J.vplus.basis_vectors())])
    return J._plus


def is_integrable(J: ComplexStructure) -> bool:
    """Dual method: N = 0 on all basis pairs, and l bracket-closed.  The two
    are computed independently, once per J, and must agree; the first pair
    with N != 0 is kept as J.nijenhuis_witness."""
    _require_invariant(J)
    if J._integrable is None:
        q = J.quotient.dim
        J.nijenhuis_witness = next(
            ((a, b, n) for a in range(q) for b in range(a + 1, q)
             if not is_zero_vec(n := nijenhuis(J, vunit(q, a), vunit(q, b)))),
            None)
        by_nijenhuis = J.nijenhuis_witness is None
        by_closure = is_closed(J.quotient.algebra, plus_space(J))
        if by_nijenhuis != by_closure:
            raise TheoremViolation(
                f"integrability methods disagree: N==0 is {by_nijenhuis}, "
                f"closure is {by_closure}")
        J._integrable = by_nijenhuis
    return J._integrable


# ---------------------------------------------------------------------------
# the canonical subalgebra m

def compute_m(J: ComplexStructure) -> MData:
    """m = {x in g : [x, h] in h, [ad-bar(x), J] = 0}, with its certified
    properties: h in m, [m,m] = [h,h], m = C_g(center(m))."""
    if not is_integrable(J):
        raise ExactError("m is canonical only for integrable J")
    q = J.quotient
    g = q.algebra
    # the x in N_g(h) with [ad-bar(x), J] = 0
    m = kernel_of(normalizer(g, q.h),
                  lambda x: _commutator(J.j, q.induced_map(x)))
    q.fact(require_closed, g, m)
    if not m.contains_subspace(q.h):
        raise TheoremViolation("h is not contained in m")
    if not _derived_matches(q, m):
        raise TheoremViolation("[m,m] != [h,h]")
    cm = q.fact(center, g, m)
    if q.fact(centralizer, g, cm) != m:
        raise TheoremViolation("m is not the centralizer of its center")
    return MData(m, q.fact(relative_complement, m, q.h), cm)


def _derived_matches(q: Quotient, m: Subspace) -> bool:
    """[m, m] = [h, h] for an m that holds h."""
    g = q.algebra
    return m == q.h or q.fact(derived, g, m) == q.fact(derived, g, q.h)


# ---------------------------------------------------------------------------
# J(p, J1): construction and decomposition

def construct_J(quot: Quotient, p: Parabolic,
                j1: TorusComplexStructure | None = None) -> ComplexStructure:
    """The structure whose +i eigenspace is p(p^{-1}((m/h)_+) (+) n)."""
    g = quot.algebra
    h = quot.h
    m = p.levi_real
    if not m.contains_subspace(h):
        raise LeviMismatch("h is not contained in the Levi of p")
    if not _derived_matches(quot, m):
        raise LeviMismatch("[m,m] != [h,h]")
    u = quot.fact(relative_complement, m, h)
    if j1 is None:
        j1 = default_torus_structure(u)
    if j1.u != u:
        raise LeviMismatch("J1 lives on a different fiber complement")
    # V+ is the projection of h_C + (the +i space of J1, lifted from
    # u-coordinates into g_C) + n; h_C projects to 0
    lifted = kernel_span(j1.j1 - Matrix.identity(u.dim).scale(I), u)
    vplus = Subspace.from_vectors(quot.dim, [
        quot.project(b) for s in (lifted, p.nilradical)
        for b in s.basis_vectors()])
    if 2 * vplus.dim != quot.dim:
        raise TheoremViolation("the +i candidate has the wrong dimension")
    if real_points(vplus).dim != 0:
        raise TheoremViolation("the +i candidate meets the real quotient")
    J = ComplexStructure(quot, structure_with_plus_space(vplus))
    if not is_invariant(J):
        raise TheoremViolation("constructed J is not h-invariant")
    if not is_integrable(J):
        raise TheoremViolation("constructed J is not integrable")
    # p = N(l): the relation decompose_J recovers p by
    if normalizer(g, plus_space(J)) != p.space:
        raise TheoremViolation("p is not the normalizer of l")
    return J


def structure_with_plus_space(vplus: Subspace) -> Matrix:
    """The J with +i eigenspace V+ and -i eigenspace tau(V+), for V+ of half
    the dimension and meeting tau(V+) in 0: J = P diag(iI, -iI) P^-1 with
    P = [V+ | tau(V+)].  J is real because tau swaps the two eigenspaces."""
    vb = vplus.basis_vectors()
    p = Matrix.from_columns(list(vb) + [vconj(v) for v in vb])
    pd = Matrix.from_columns([vscale(I, v) for v in vb]
                             + [vconj(vscale(I, v)) for v in vb])
    return pd * inverse(p)


def decompose_J(J: ComplexStructure):
    """Recover (p, J1) with J = J(p, J1): p is the normalizer of l in g_C,
    rebuilt from root spaces (build_parabolic cross-checks the nilradical
    with the Killing-perpendicular one and p n tau(p) with m_C, so p n g = m
    with the canonical m), J1 is the restriction of J to the fiber m/h."""
    if not is_integrable(J):
        raise ExactError("decomposition requires an integrable J")
    quot = J.quotient
    g = quot.algebra
    p_space = normalizer(g, plus_space(J))
    md = compute_m(J)
    # the Cartan through center(m) in the certified m = C(center(m))
    a = quot.fact(extend_to_maximal_abelian, g, md.center_m, md.m)
    rd = quot.fact(root_decomposition, g, a)
    q_plus = tuple(sorted(
        i for i, r in enumerate(rd.roots)
        if p_space.contains_subspace(r.space)
        and not p_space.contains_subspace(rd.roots[rd.negative_of(i)].space)))
    parabolic = build_parabolic(rd, md.m, q_plus)
    if parabolic.space != p_space:
        raise TheoremViolation("rebuilt parabolic differs from the normalizer")
    return parabolic, fiber_structure(J, md.u)


def fiber_structure(J: ComplexStructure, u: Subspace) -> TorusComplexStructure:
    """J1: the restriction of J to the fiber m/h, in the coordinates of u,
    the canonical complement of h in m."""
    quot = J.quotient
    umat = Matrix.from_columns([quot.project(ub) for ub in u.basis_vectors()])
    j1cols = []
    for ub in u.basis_vectors():
        c = solve(umat, J.j.matvec(quot.project(ub)))
        if c is None:
            raise TheoremViolation("J does not preserve m/h")
        j1cols.append(c)
    return TorusComplexStructure(u, Matrix.from_columns(j1cols))


# ---------------------------------------------------------------------------
# classification

def canonical_m(quot: Quotient):
    """(m, t): classify's m = t + h, with t maximal abelian in C_g(h), read
    as the problem's fact quot.fact(canonical_m, quot).  The greedy
    extension of t is deterministic and stops on C(t) n C(h) = t = C(m), so
    t is center(m)."""
    g, h = quot.algebra, quot.h
    t = extend_to_maximal_abelian(g, Subspace.zero(g.dim),
                                  quot.fact(centralizer, g, h))
    m = span_sum(g.dim, [t, h])
    quot.fact(require_closed, g, m)
    return m, t


def levi_systems(quot: Quotient) -> ClassificationReport:
    """classify's report on g/h with no parabolic built yet, read by every
    command as the problem's fact quot.fact(levi_systems, quot)."""
    g, h = quot.algebra, quot.h
    n, hd = g.dim, h.dim
    ledger = []
    if (n - hd) % 2:
        ledger.append(LedgerEntry("even_codimension", False,
                                  f"dim g/h = {n - hd} is odd"))
        return ClassificationReport(ledger, "odd_dimension")
    ledger.append(LedgerEntry("even_codimension", True, f"dim g/h = {n - hd}"))
    m, t = quot.fact(canonical_m, quot)
    ok_derived = _derived_matches(quot, m)
    ledger.append(LedgerEntry("derived_match", ok_derived, "[m,m] = [h,h]"))
    ok_centralizer = quot.fact(centralizer, g, t) == m
    ledger.append(LedgerEntry("m_is_centralizer_of_its_center", ok_centralizer,
                              f"dim m = {m.dim}, dim center(m) = {t.dim}"))
    fiber = m.dim - hd
    ok_fiber = fiber % 2 == 0
    ledger.append(LedgerEntry("even_fiber", ok_fiber, f"dim m/h = {fiber}"))
    if not (ok_derived and ok_centralizer and ok_fiber):
        return ClassificationReport(ledger, "m_not_centralizer_of_its_center"
                                    if not ok_centralizer else
                                    ("derived_mismatch" if not ok_derived
                                     else "odd_fiber"))
    rd = quot.fact(root_decomposition, g,
                   quot.fact(extend_to_maximal_abelian, g, t, m))
    systems = enumerate_positive_systems(rd, m)
    ledger.append(LedgerEntry("parabolic_enumeration", True,
                              f"{len(systems)} parabolics with Levi m, "
                              "relative to the chosen Cartan"))
    return ClassificationReport(
        ledger, "", MData(m, quot.fact(relative_complement, m, h), t), rd,
        systems)


def classify(quot: Quotient) -> ClassificationReport:
    """Existence and parametrization of invariant integrable structures on
    g/h: canonical m = t + h for a maximal abelian t in C_g(h), then all
    parabolics with Levi m relative to one fixed Cartan."""
    levi = quot.fact(levi_systems, quot)
    return ClassificationReport(
        levi.ledger, levi.reason, levi.m, levi.datum, levi.systems,
        [build_parabolic(levi.datum, levi.m.m, qp) for qp in levi.systems])


def parabolic_index(quot: Quotient, p: Parabolic):
    """The index of p among classify's parabolics of g/h, or None when p's
    Levi is not classify's m; such a p is built on the problem's root datum,
    so the index is a lookup of p's positive set in its systems."""
    if p.levi_real != quot.fact(canonical_m, quot)[0]:
        return None
    try:
        return quot.fact(levi_systems, quot).systems.index(p.positive_set)
    except ValueError:
        raise TheoremViolation(
            "p's positive set is not a positive system of its Levi") from None


# ---------------------------------------------------------------------------
# the verification ledger

def verify_structure(J: ComplexStructure):
    """Machine checks of the structural identities attached to an integrable
    invariant J; returns a list of named pass/fail entries."""
    if not is_integrable(J):
        raise ExactError("verification ledger requires an integrable J")
    quot = J.quotient
    g = quot.algebra
    n, hd = g.dim, quot.h.dim
    l = plus_space(J)
    tau_l = l.conjugate()
    out = []

    def entry(name, ok, detail=""):
        out.append(LedgerEntry(name, ok, detail))

    l_plus_tau_l = span_sum(n, [l, tau_l])
    # g + l = g_C exactly when the real and imaginary parts of l span g
    entry("gc_equals_g_plus_l", real_points(l_plus_tau_l).dim == n,
          "g + l spans g_C over R")
    entry("gc_equals_l_plus_tau_l", l_plus_tau_l.dim == n,
          "l + tau(l) = g_C")
    w = l.intersect(tau_l)
    entry("hc_equals_l_cap_tau_l", w == quot.h, "l n tau(l) = h_C")
    # a real vector of l lies in tau(l) too, so l n g = w n g
    entry("l_cap_g_equals_h", real_points(w) == quot.h,
          "l n g = h")
    entry("dim_l", 2 * l.dim == n + hd, f"dim_C l = {l.dim}")
    md = compute_m(J)
    own_l = own_algebra(g, l)
    r = radical(own_l, l)
    ch = quot.fact(center, g, quot.h)
    entry("dim_r_prime", 2 * (r.dim - ch.dim) == n - hd,
          f"dim_C radical(l) = {r.dim}, dim center(h) = {ch.dim}")
    kc = quot.fact(derived, g, quot.h)
    levi_ok = span_sum(n, [r, kc]) == l and r.intersect(kc).dim == 0
    entry("levi_split", levi_ok, "l = radical(l) (+) [h,h]_C")
    r_solvable = is_solvable(own_l if r == l else own_algebra(g, r))
    entry("radical_solvable", r_solvable, "")
    # p = N(l), as decompose_J finds it, against the canonical m
    p = normalizer(g, l)
    entry("p_cap_tau_p_is_mc",
          (w if p == l else p.intersect(p.conjugate())) == md.m,
          "p n tau(p) = m_C")
    if hd == 0:
        # radical(l) = [l,l]^perp is l exactly when l is solvable (Cartan)
        entry("l_solvable", r == l and r_solvable,
              "h = 0: l is the solvable Samelson-type subalgebra")
    return out


PERTURBATION_TRIALS = 20


def nijenhuis_perturbation_trials(J: ComplexStructure, seed=0):
    """Check that N is well defined on g/h.  Each basis pair lifts e_a, e_b,
    Je_a and Je_b once; N from these lifts must be antisymmetric (lifts
    swapped), satisfy N(Je_a, e_b) = -J N(e_a, e_b) (lifts of Je_a, e_b,
    -e_a, Je_b) and stay bit-identical when the lifts move by h elements,
    PERTURBATION_TRIALS times.  The moves, integer coefficients in -9..9 on
    h's basis, are drawn from seed once per call and shared by every pair:
    a move changes N by a quadratic in its coefficients, so each trial
    misses a nonzero change with probability at most 2/19 (Schwartz-Zippel),
    whatever the other pairs draw."""
    import random
    _require_invariant(J)
    rng = random.Random(seed)
    quot = J.quotient
    q, hb, jmul = quot.dim, quot.h.basis_vectors(), J.j.matvec
    draws = rng.choices(range(-9, 10), k=4 * PERTURBATION_TRIALS * len(hb))
    moves = [lincomb(quot.algebra.dim, ivec(w), hb)
             for w in zip(*[iter(draws)] * len(hb))]
    trials = [moves[k:k + 4] for k in range(0, len(moves), 4)]
    failures = []
    evaluations = 0
    for a in range(q):
        for b in range(a + 1, q):
            ua, ub = vunit(q, a), vunit(q, b)
            lifts = x, y, xp, yp = [quot.lift(w) for w in
                                    (ua, ub, jmul(ua), jmul(ub))]
            base = _nijenhuis_of_lifts(J, *lifts)
            if _nijenhuis_of_lifts(J, y, x, yp, xp) != vneg(base):
                failures.append(f"antisymmetry fails at ({a},{b})")
            if _nijenhuis_of_lifts(J, xp, y, vneg(x), yp) != vneg(jmul(base)):
                failures.append(f"J-twist symmetry fails at ({a},{b})")
            evaluations += 3
            for moved in trials:
                evaluations += 1
                if _nijenhuis_of_lifts(J, *map(vadd, lifts, moved)) != base:
                    failures.append(
                        f"lift perturbation changes N at ({a},{b})")
                    break
    return LedgerEntry("nijenhuis_well_defined", not failures,
                       f"{evaluations} evaluations"
                       + ("" if not failures else "; " + failures[0])), evaluations


# ---------------------------------------------------------------------------
# Hermitian symmetric detection

class SymmetricVerdict:
    def __init__(self, status: str, reason: str, checks: list | None = None):
        self.status = status   # symmetric | not_symmetric | not_applicable
        self.reason = reason
        self.checks = [] if checks is None else checks


def largest_ideal_inside(g: LieAlgebra, h: Subspace) -> Subspace:
    """The maximal ad(g)-stable subspace of h: passes cut the current space
    by [e_j, x] in it for each basis vector e_j, until one keeps it."""
    cur = h
    while True:
        nxt = cur
        for e in Matrix.identity(g.dim).rows:
            nxt = kernel_of(nxt, lambda x: cur.reduce(g.bracket(e, x)))
        if nxt == cur:
            return cur
        cur = nxt


def _commutator(a: Matrix, b: Matrix):
    """vec(a b - b a), row by row."""
    return (a * b - b * a).flatten()


def commutant(q, gens):
    """A basis of the q x q matrices X with M X = X M for every M in gens:
    all of them, read row by row, cut by M X - X M = 0 one M at a time."""
    def square(x):
        return Matrix([x[i * q:(i + 1) * q] for i in range(q)], q)
    c = Subspace.full(q * q)
    for m in gens:
        c = kernel_of(c, lambda x: _commutator(m, square(x)))
    return [square(v) for v in c.basis_vectors()]


def commutant_dimension(J: ComplexStructure):
    """Dimension over C of the algebra of endomorphisms of g/h commuting
    with both the isotropy action and J: (g/h, J) is the h-module V+, so
    the commutant of the actions on V+, read at the pivots of its basis."""
    _require_invariant(J)
    vplus = J.vplus
    return len(commutant(vplus.dim, [
        Matrix.from_columns([take(a.matvec(v), vplus.pivots)
                             for v in vplus.basis_vectors()])
        for a in J.actions]))


def involution_is_automorphism(g: LieAlgebra, h: Subspace, v: Subspace):
    """Whether theta = id on h, -id on V is an automorphism of g = h (+) V
    for a subalgebra h: on basis pairs, [h,V] in V and [V,V] in h."""
    vb = v.basis_vectors()
    return (all(v.contains(g.bracket(a, b))
                for a in h.basis_vectors() for b in vb)
            and all(h.contains(c) for c in pair_brackets(g, vb)))


def is_symmetric_pair(J: ComplexStructure,
                      p: Parabolic | None = None) -> SymmetricVerdict:
    """Detect whether (g, h, J), g/h J's quotient, is an irreducible
    Hermitian symmetric pair: effective irreducible isotropy forces m = h,
    an abelian nilradical with [tau(n), n] in h_C, and the +/-1 involution
    is an automorphism.  p is the parabolic of J when the caller has it
    (construct_J certifies p = N(l)); otherwise decompose_J recovers it."""
    if not is_integrable(J):
        return SymmetricVerdict("not_applicable", "not_integrable")
    g, h = J.quotient.algebra, J.quotient.h
    checks = []
    ideal = largest_ideal_inside(g, h)
    cg = center(g, Subspace.full(g.dim))
    effective = ideal.dim == 0
    checks.append(LedgerEntry("effective", effective,
                              f"largest ideal of g in h has dim {ideal.dim}; "
                              f"h n c_g dim {h.intersect(cg).dim}"))
    if not effective:
        return SymmetricVerdict("not_applicable", "non_effective", checks)
    cdim = commutant_dimension(J)
    irreducible = cdim == 1
    checks.append(LedgerEntry(
        "irreducible_isotropy", irreducible,
        f"commutant dimension {cdim} over C (Schur criterion; isotropy "
        "action of the compact h is semisimple)"))
    if not irreducible:
        return SymmetricVerdict("not_applicable", "reducible_isotropy", checks)
    if p is None:
        p, _ = decompose_J(J)
    m_eq = p.levi_real == h
    checks.append(LedgerEntry("m_equals_h", m_eq, ""))
    nsp = p.nilradical
    n_ab = is_abelian(g, nsp)
    checks.append(LedgerEntry("nilradical_abelian", n_ab, ""))
    tau_n = nsp.conjugate()
    bracket_ok = all(h.contains(g.bracket(a, b))
                     for a in tau_n.basis_vectors()
                     for b in nsp.basis_vectors())
    checks.append(LedgerEntry("bracket_tau_n_n_in_hc", bracket_ok,
                              "[tau(n), n] in h_C"))
    v = real_points(span_sum(g.dim, [nsp, tau_n]))
    split_ok = (v.intersect(h).dim == 0
                and span_sum(g.dim, [v, h]).dim == g.dim)
    checks.append(LedgerEntry("cartan_split", split_ok, "g = h (+) V"))
    theta_ok = split_ok and involution_is_automorphism(g, h, v)
    checks.append(LedgerEntry("theta_automorphism", theta_ok,
                              "id on h, -id on V"))
    ok = m_eq and n_ab and bracket_ok and split_ok and theta_ok
    return SymmetricVerdict("symmetric" if ok else "not_symmetric",
                            "" if ok else "certificate_failed", checks)
