"""Exact root-space decompositions of complexified compact Lie algebras and
the parabolic subalgebras built from them.

Roots are recorded by their values on the canonical basis of a chosen
Cartan subalgebra; on real Cartan vectors these values are purely imaginary
with rational imaginary part, so the whole decomposition stays inside the
Gaussian rationals.
"""

from __future__ import annotations

import itertools

from .exact import (
    GQ, ZERO, I, Matrix, Subspace, ExactError,
    kernel, lincomb, vscale, rational_eigenvalues, span_sum,
)
from .liealg import (
    LieAlgebra, Subalgebra, centralizer, center, derived,
    extend_to_maximal_abelian, full_subalgebra, is_closed, is_nilpotent,
    restricted_ad,
)


class RootError(ExactError):
    pass


class NotCartan(RootError):
    pass


class NonSemisimpleAction(RootError):
    pass


class LeviMismatch(RootError):
    pass


class ClosureFailure(RootError):
    pass


class Root:
    """A root alpha, by its values alpha(a_j) on the Cartan basis, plus the
    root space g_alpha inside g_C."""

    def __init__(self, values: tuple, space: Subspace):
        self.values = values   # GQ, purely imaginary on the real Cartan basis
        self.space = space

    def negate_values(self):
        return tuple(-v for v in self.values)

    def value_at(self, cartan: Subalgebra, x):
        """alpha(x) for x in the complexified Cartan (complex-linear)."""
        coords = cartan.space.coords(x)
        s = ZERO
        for c, v in zip(coords, self.values, strict=True):
            s = s + c * v
        return s


class RootDatum:
    def __init__(self, algebra: LieAlgebra, cartan: Subalgebra, roots: list,
                 zero_space: Subspace):
        self.algebra = algebra         # the real compact algebra g
        self.cartan = cartan           # a, abelian and self-centralizing in g
        self.roots = roots             # Root, sorted deterministically
        self.zero_space = zero_space   # a_C (includes all central directions)
        self._index = {r.values: i for i, r in enumerate(roots)}

    def root_index(self, values):
        return self._index.get(values)

    def negative_of(self, i):
        return self.root_index(self.roots[i].negate_values())


def _power_combinations(n, basis):
    """The elements sum_j k^j basis[j] for k = 1, 2, 3, ..., in that order."""
    k = 1
    while True:
        yield lincomb(n, [GQ(k ** j) for j in range(len(basis))], basis)
        k += 1


def find_regular(g: LieAlgebra, a: Subalgebra):
    """First element of a with coefficient pattern (1, k, k^2, ...) whose
    centralizer is exactly a."""
    if centralizer(g, a.space).space != a.space:
        raise NotCartan("subalgebra is not self-centralizing")
    return next(h0 for h0 in _power_combinations(g.dim, a.basis_vectors())
                if centralizer(g, Subspace.from_vectors(g.dim, [h0])).space
                == a.space)


def _eigenspaces(g, op_vec, space):
    """Split an ad(op_vec)-stable subspace into eigenspaces of ad(op_vec);
    raises if the restricted spectrum is not rational or defective."""
    b = restricted_ad(g, op_vec, space)
    eigs = rational_eigenvalues(b)
    pieces = []
    total = 0
    for lam in sorted(set(eigs)):
        shifted = b - Matrix.identity(b.nrows).scale(GQ(lam))
        sub = Subspace.from_vectors(space.ambient_dim, [
            lincomb(space.ambient_dim, c, space.basis_vectors())
            for c in kernel(shifted).basis_vectors()])
        pieces.append((lam, sub))
        total += sub.dim
    if total != space.dim:
        raise NonSemisimpleAction("ad action is not diagonalizable on a piece")
    return pieces


def root_decomposition(g: LieAlgebra, a: Subalgebra) -> RootDatum:
    """Simultaneous eigen-decomposition of g_C under ad of the Cartan basis.

    Works one Cartan generator at a time (refining), so no single regular
    element needs to separate all roots.  Validates the dimension
    bookkeeping, the +/- pairing and tau(g_alpha) = g_{-alpha}."""
    if centralizer(g, a.space).space != a.space:
        raise NotCartan("subalgebra is not self-centralizing")
    pieces = [((), Subspace.full(g.dim))]
    for aj in a.basis_vectors():
        refined = []
        for values, sp in pieces:
            # eigenvalues of i*ad(a_j) are rational; alpha(a_j) = -i*lambda
            for lam, sub in _eigenspaces(g, vscale(I, aj), sp):
                refined.append((values + (-I * GQ(lam),), sub))
        pieces = refined
    zero_values = (ZERO,) * a.dim
    zero_parts = [sp for v, sp in pieces if v == zero_values]
    zero_space = span_sum(g.dim, zero_parts) if zero_parts else Subspace.zero(g.dim)
    roots = [Root(v, sp) for v, sp in pieces if v != zero_values]
    roots.sort(key=lambda r: tuple(x.sort_key() for x in r.values))
    rd = RootDatum(g, a, roots, zero_space)
    _validate_root_datum(rd)
    return rd


def _validate_root_datum(rd: RootDatum):
    g = rd.algebra
    n = g.dim
    total = rd.zero_space.dim + sum(r.space.dim for r in rd.roots)
    if total != n:
        raise RootError("root spaces do not fill g_C")  # pragma: no cover
    if not rd.zero_space.contains_subspace(rd.cartan.space):
        raise RootError("zero space does not contain the Cartan")  # pragma: no cover
    for i, r in enumerate(rd.roots):
        if all(v.is_zero() for v in r.values):
            raise RootError("zero root recorded as a root")  # pragma: no cover
        if any(v.re != 0 for v in r.values):
            raise RootError("root value not purely imaginary on the real Cartan")
        j = rd.negative_of(i)
        if j is None:
            raise RootError("roots do not come in +/- pairs")
        if r.space.conjugate() != rd.roots[j].space:
            raise RootError("tau(g_alpha) != g_{-alpha}")
        # scalar action check: ad(a_j) acts on g_alpha by alpha(a_j)
        for aj, val in zip(rd.cartan.basis_vectors(), r.values, strict=True):
            for b in r.space.basis_vectors():
                if g.bracket(aj, b) != vscale(val, b):
                    raise NonSemisimpleAction(
                        "ad does not act by the recorded scalar")


class Parabolic:
    """p = m_C (+) n inside g_C, with real Levi m and nilradical n."""

    def __init__(self, levi_real: Subalgebra, positive_set: tuple,
                 nilradical: Subalgebra, space: Subalgebra, datum: RootDatum):
        self.levi_real = levi_real         # m, subalgebra of the real g
        self.positive_set = positive_set   # indices into the ambient RootDatum
        self.nilradical = nilradical       # n, subalgebra of g_C
        self.space = space                 # p, subalgebra of g_C
        self.datum = datum

    def __eq__(self, o):
        if not isinstance(o, Parabolic):
            return NotImplemented
        return (self.space.space == o.space.space
                and self.levi_real.space == o.levi_real.space
                and self.nilradical.space == o.nilradical.space)

    def __repr__(self):
        return (f"Parabolic(dim {self.space.dim}, levi {self.levi_real.dim}, "
                f"nilradical {self.nilradical.dim})")


def _root_values_on(rd: RootDatum, root: Root, space: Subspace):
    """alpha evaluated on each basis vector of a subspace of the Cartan."""
    return tuple(root.value_at(rd.cartan, b) for b in space.basis_vectors())


def _levi_root_split(rd: RootDatum, m: Subalgebra):
    """Indices of roots vanishing on center(m) (the m-roots) and the rest."""
    g = rd.algebra
    cm = center(g, m).space
    if not rd.cartan.space.contains_subspace(cm):
        raise LeviMismatch("center(m) is not inside the chosen Cartan")
    m_roots, q = [], []
    for i, r in enumerate(rd.roots):
        if all(v.is_zero() for v in _root_values_on(rd, r, cm)):
            m_roots.append(i)
        else:
            q.append(i)
    # m must be zero_space plus exactly the vanishing root spaces
    expect = span_sum(g.dim, [rd.zero_space] + [rd.roots[i].space for i in m_roots])
    if expect != m.space:
        raise LeviMismatch(
            "m is not the span of the zero space and full root spaces")
    return m_roots, q


def enumerate_positive_systems(rd: RootDatum, m: Subalgebra):
    """All antisymmetric sign choices Q = Q+ u -Q+ on the roots outside the
    Levi that are closed under root addition and under adding Levi roots.

    Returned as sorted index tuples, in a deterministic order."""
    m_roots, q = _levi_root_split(rd, m)
    pairs = []
    seen = set()
    for i in q:
        if i in seen:
            continue
        j = rd.negative_of(i)
        if j is None or j not in q:  # pragma: no cover
            raise LeviMismatch("roots outside the Levi do not pair up")
        pairs.append((i, j))
        seen.update((i, j))

    def vsum(a, b):
        return tuple(x + y for x, y in zip(a, b, strict=True))

    q_set = set(q)
    systems = []
    for signs in itertools.product((0, 1), repeat=len(pairs)):
        qp = {p[s] for p, s in zip(pairs, signs)}
        # closed: no a + b with a in Q+ and b in Q+ or a Levi root lies in -Q+
        outside = q_set - qp
        if not any(rd.root_index(vsum(rd.roots[a].values,
                                      rd.roots[b].values)) in outside
                   for a in qp for b in itertools.chain(qp, m_roots)):
            systems.append(tuple(sorted(qp)))
    return systems


def derived_complex_span(g: LieAlgebra) -> Subspace:
    """[g, g], computed once per algebra."""
    if g._derived_span is None:
        g._derived_span = derived(g, full_subalgebra(g)).space
    return g._derived_span


def killing_perp_nilradical(g: LieAlgebra, p_space: Subspace) -> Subspace:
    """{x in p : kappa(x, p) = 0} intersected with [g_C, g_C]; the
    independent characterization of the nilradical of a parabolic."""
    gram = g.killing_gram()
    rows = [gram.matvec(b) for b in p_space.basis_vectors()]
    perp = kernel(Matrix(rows)) if rows else Subspace.full(g.dim)
    return perp.intersect(p_space).intersect(derived_complex_span(g))


def build_parabolic(rd: RootDatum, m: Subalgebra, q_plus) -> Parabolic:
    """p = m_C (+) (direct sum of the Q+ root spaces), fully validated."""
    g = rd.algebra
    n_space = span_sum(g.dim, [rd.roots[i].space for i in q_plus]) \
        if q_plus else Subspace.zero(g.dim)
    p_space = m.space.add(n_space)
    if not is_closed(g, p_space):
        raise ClosureFailure("p is not bracket-closed")
    p = Subalgebra(g, p_space, check=False)
    # n is closed once [p, n] in n is checked below, since n lies in p
    n = Subalgebra(g, n_space, check=False)
    # contains a Borel: the zero space plus one root space from each pair
    if not p_space.contains_subspace(rd.zero_space):
        raise ClosureFailure("p does not contain the Cartan's zero space")
    for i in range(len(rd.roots)):
        j = rd.negative_of(i)
        if not (p_space.contains_subspace(rd.roots[i].space)
                or p_space.contains_subspace(rd.roots[j].space)):
            raise ClosureFailure("p misses both root spaces of a +/- pair")
    # p n tau(p) = m_C, hence p n g = m because m is real
    if p_space.intersect(p_space.conjugate()) != m.space:
        raise ClosureFailure("p n tau(p) != m_C")
    # [p, n] in n, n nilpotent
    for a in p.basis_vectors():
        for b in n.basis_vectors():
            if not n_space.contains(g.bracket(a, b)):
                raise ClosureFailure("n is not an ideal of p")
    if n.dim and not is_nilpotent(n):
        raise ClosureFailure("n is not nilpotent")
    # independent oracle for the nilradical
    if killing_perp_nilradical(g, p_space) != n_space:
        raise ClosureFailure("Killing-perpendicular nilradical disagrees")
    return Parabolic(m, tuple(sorted(q_plus)), n, p, rd)


def parabolic_from_abelian(g: LieAlgebra, t: Subalgebra) -> Parabolic:
    """The parabolic of Levi m = C_g(t) cut out by a regular element of i*t."""
    if not t.is_abelian():
        raise RootError("t must be abelian")
    m = centralizer(g, t.space)
    a = extend_to_maximal_abelian(g, t)
    rd = root_decomposition(g, a)
    q = [i for i, r in enumerate(rd.roots)
         if any(not v.is_zero() for v in _root_values_on(rd, r, t.space))]
    if not q:
        return build_parabolic(rd, m, ())
    # deterministic search for h0 in i*t with alpha(h0) real nonzero on Q
    for h0 in _power_combinations(
            g.dim, [vscale(I, b) for b in t.basis_vectors()]):
        vals = {i: rd.roots[i].value_at(rd.cartan, h0) for i in q}
        if all(v.im == 0 and v.re != 0 for v in vals.values()):
            return build_parabolic(
                rd, m, tuple(sorted(i for i in q if vals[i].re > 0)))
