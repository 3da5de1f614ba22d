"""Exact root-space decompositions of complexified compact Lie algebras and
the parabolic subalgebras built from them.

Roots are recorded by their values on the canonical basis of a chosen
Cartan subalgebra; on real Cartan vectors these values are purely imaginary
with rational imaginary part, so the whole decomposition stays inside the
Gaussian rationals.
"""

from __future__ import annotations

from .exact import (
    I, Matrix, Subspace, ExactError,
    ivec, kernel_span, vadd, vcat, vneg, vscale, vzero, is_zero_vec,
    rational_eigenvalues, rref, span_sum,
)
from .liealg import LieAlgebra, is_abelian, is_nilpotent, restricted_ad


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
    """A root alpha, by its values alpha(a_j) on the Cartan basis (a Vec,
    purely imaginary on the real Cartan basis), plus the root space g_alpha
    inside g_C."""

    def __init__(self, values, space: Subspace):
        self.values = values
        self.space = space


class RootDatum:
    """The root decomposition g_C = zero space (+) the root spaces, certified
    when root_decomposition builds it: sums, the bracket of every root pair,
    and the Killing pairing are facts read afterwards.  Only the Levi roots
    of each m are recorded on demand."""

    def __init__(self, algebra: LieAlgebra, cartan: Subspace, roots: list,
                 zero_space: Subspace):
        self.algebra = algebra         # the real compact algebra g
        self.cartan = cartan           # a, abelian and self-centralizing in g
        self.roots = roots             # Root, sorted deterministically
        self.zero_space = zero_space   # a_C (includes all central directions)
        index = {r.values: i for i, r in enumerate(roots)}
        self._negatives = [index.get(vneg(r.values)) for r in roots]
        # sums[a][b]: the index of the root alpha_a + alpha_b, or None (also
        # when the sum is 0), by adding root values
        vals = [r.values for r in roots]
        self.sums = [[index.get(vadd(va, vb)) for vb in vals] for va in vals]
        self.zero_perp = None          # set when the datum is certified
        self._levi = {}                # m's space -> its Levi roots

    def negative_of(self, i):
        return self._negatives[i]

    def levi_roots(self, m: Subspace):
        """The roots whose spaces lie in m, once m is certified to be the
        zero space plus exactly those root spaces (once per m)."""
        if m not in self._levi:
            if not m.contains_subspace(self.zero_space):
                raise LeviMismatch("m does not contain the Cartan's zero space")
            levi = tuple(i for i, r in enumerate(self.roots)
                         if m.contains_subspace(r.space))
            if self.zero_space.dim + sum(self.roots[i].space.dim
                                         for i in levi) != m.dim:
                raise LeviMismatch(
                    "m is not the span of the zero space and full root spaces")
            self._levi[m] = levi
        return self._levi[m]


def _eigenspaces(g, op_vec, space):
    """Split an ad(op_vec)-stable subspace into eigenspaces of ad(op_vec);
    raises if the restricted spectrum is not rational or defective."""
    b = restricted_ad(g, op_vec, space)
    ev = rational_eigenvalues(b)
    pieces = [(lam, kernel_span(b - Matrix.identity(b.nrows).scale(lam), space))
              for lam in (ivec((y,), None, ev.den) for y in sorted(set(ev.re)))]
    if sum(sub.dim for _, sub in pieces) != space.dim:
        raise NonSemisimpleAction("ad action is not diagonalizable on a piece")
    return pieces


def root_decomposition(g: LieAlgebra, a: Subspace) -> RootDatum:
    """Simultaneous eigen-decomposition of g_C under ad of the Cartan basis.

    Works one Cartan generator at a time (refining), so no single regular
    element needs to separate all roots.  Validates the dimension
    bookkeeping, the +/- pairing and tau(g_alpha) = g_{-alpha}."""
    if not is_abelian(g, a):
        raise NotCartan("subalgebra is not abelian")
    pieces = [(vzero(0), Subspace.full(g.dim))]
    for aj in a.basis_vectors():
        refined = []
        for lams, sp in pieces:
            # eigenvalues lambda of i*ad(a_j) are rational
            for lam, sub in _eigenspaces(g, vscale(I, aj), sp):
                refined.append((vcat((lams, lam)), sub))
        pieces = refined
    zero_parts = [sp for lams, sp in pieces if is_zero_vec(lams)]
    zero_space = span_sum(g.dim, zero_parts)
    # the zero space is C_{g_C}(a), so a is a Cartan when it equals a_C
    if zero_space != a:
        raise NotCartan("subalgebra is not self-centralizing")
    # alpha(a_j) = -i*lambda; ordered by the values' imaginary parts, -lambda:
    # refined in increasing lambda, the pieces increase lexicographically
    pieces.reverse()
    roots = [Root(vneg(vscale(I, lams)), sp)
             for lams, sp in pieces if not is_zero_vec(lams)]
    rd = RootDatum(g, a, roots, zero_space)
    rd.zero_perp = _validate_root_datum(rd)
    return rd


def _validate_root_datum(rd: RootDatum) -> Subspace:
    """Certify the whole datum once and return zero_perp = {x in the zero
    space : kappa(x, zero space) = 0} n [g_C, g_C]."""
    g = rd.algebra
    n = g.dim
    total = rd.zero_space.dim + sum(r.space.dim for r in rd.roots)
    if total != n:
        raise RootError("root spaces do not fill g_C")  # pragma: no cover
    if not rd.zero_space.contains_subspace(rd.cartan):
        raise RootError("zero space does not contain the Cartan")  # pragma: no cover
    if rd.zero_space.conjugate() != rd.zero_space:
        raise RootError("tau does not fix the zero space")  # pragma: no cover
    for i, r in enumerate(rd.roots):
        if is_zero_vec(r.values):
            raise RootError("zero root recorded as a root")  # pragma: no cover
        if vscale(I, r.values).im is not None:
            raise RootError("root value not purely imaginary on the real Cartan")
        j = rd.negative_of(i)
        if j is None:
            raise RootError("roots do not come in +/- pairs")
        if r.space.conjugate() != rd.roots[j].space:
            raise RootError("tau(g_alpha) != g_{-alpha}")
        # scalar action check: ad(a_j) acts on g_alpha by alpha(a_j)
        for j, aj in enumerate(rd.cartan.basis_vectors()):
            for b in r.space.basis_vectors():
                if g.bracket(aj, b) != vscale(r.values[j:j + 1], b):
                    raise NonSemisimpleAction(
                        "ad does not act by the recorded scalar")
    # [g_a, g_b] lies in g_{a+b}, in the zero space when b = -a, else is 0
    for a, ra in enumerate(rd.roots):
        for b in range(a, len(rd.roots)):
            c = rd.sums[a][b]
            space = rd.roots[c].space if c is not None else \
                rd.zero_space if b == rd.negative_of(a) else None
            for u in ra.space.basis_vectors():
                for v in rd.roots[b].space.basis_vectors():
                    w = g.bracket(u, v)
                    if not (space.contains(w) if space else is_zero_vec(w)):
                        raise RootError("a root-space bracket misses the "
                                        "space of the sum of its roots")
    # kappa, read once in the basis (zero space, then each root space),
    # pairs g_a with g_-a alone and nonsingularly
    spaces = [rd.zero_space] + [r.space for r in rd.roots]
    basis = [b for sp in spaces for b in sp.basis_vectors()]
    gram = g.killing_gram()
    kappa = Matrix([gram.matvec(u) for u in basis]) \
        * Matrix.from_columns(basis)
    starts = [0]
    for sp in spaces:
        starts.append(starts[-1] + sp.dim)
    z = rd.zero_space.dim
    for k in range(len(spaces)):
        # the rows of g_a pair with the columns of g_-a, the zero space's
        # with its own
        j = 0 if k == 0 else rd.negative_of(k - 1) + 1
        lo, hi = starts[j], starts[j + 1]
        if not all(is_zero_vec(row[:lo]) and is_zero_vec(row[hi:])
                   for row in kappa.rows[starts[k]:starts[k + 1]]):
            raise RootError("kappa pairs g_alpha outside g_{-alpha}")
    if rref(Matrix([row[z:] for row in kappa.rows[z:]], n - z))[2] != n - z:
        raise RootError("kappa pairs g_alpha with g_{-alpha} singularly")
    # zero_perp from the kernel of the zero block
    return kernel_span(Matrix([row[:z] for row in kappa.rows[:z]], z),
                       rd.zero_space).intersect(g.derived_span())


class Parabolic:
    """p = m_C (+) n inside g_C, with real Levi m and nilradical n."""

    def __init__(self, levi_real: Subspace, positive_set: tuple,
                 nilradical: Subspace, space: Subspace, datum: RootDatum):
        self.levi_real = levi_real         # m, subalgebra of the real g
        self.positive_set = positive_set   # indices into the ambient RootDatum
        self.nilradical = nilradical       # n, subalgebra of g_C
        self.space = space                 # p, subalgebra of g_C
        self.datum = datum

    def __repr__(self):
        return (f"Parabolic(dim {self.space.dim}, levi {self.levi_real.dim}, "
                f"nilradical {self.nilradical.dim})")


def enumerate_positive_systems(rd: RootDatum, m: Subspace):
    """All antisymmetric sign choices Q = Q+ u -Q+ on the roots outside the
    Levi that are closed under root addition and under adding Levi roots.

    A depth-first search over the +/- pairs in order, taking the first root
    of a pair before the second, cuts a branch as soon as the roots it has
    assigned break closure; the systems, sorted index tuples, come out in
    the order of itertools.product over the signs."""
    levi_roots = rd.levi_roots(m)
    levi = set(levi_roots)
    q = [i for i in range(len(rd.roots)) if i not in levi]
    pairs = []
    seen = set()
    for i in q:
        if i in seen:
            continue
        j = rd.negative_of(i)
        if j is None or j in levi:  # pragma: no cover
            raise LeviMismatch("roots outside the Levi do not pair up")
        pairs.append((i, j))
        seen.update((i, j))
    sums = rd.sums
    # for each root c outside the Levi, the (a, b) with alpha_a + alpha_b =
    # alpha_c, a outside the Levi
    splits = {c: [] for c in q}
    for a in q:
        for b in q + list(levi_roots):
            c = sums[a][b]
            if c in splits:
                splits[c].append((a, b))
    positive = [False] * len(rd.roots)   # in Q+
    outside = [False] * len(rd.roots)    # in -Q+
    chosen = list(levi_roots)            # Q+ so far, after the Levi roots
    systems = []

    def breaks_closure(x, y):
        # x joined Q+ and y = -x left it: a + b in -Q+ with a in Q+ and b in
        # Q+ or the Levi, where x is a or b, or y is the sum
        return (any(outside[c] for b in chosen
                    if (c := sums[x][b]) is not None)
                or any(positive[a] and (positive[b] or b in levi)
                       for a, b in splits[y]))

    def search(k):
        if k == len(pairs):
            systems.append(tuple(sorted(chosen[len(levi):])))
            return
        for x, y in (pairs[k], pairs[k][::-1]):
            positive[x] = outside[y] = True
            chosen.append(x)
            if not breaks_closure(x, y):
                search(k + 1)
            chosen.pop()
            positive[x] = outside[y] = False

    search(0)
    return systems


def killing_perp_nilradical(rd: RootDatum, p_roots):
    """{x in p : kappa(x, p) = 0} n [g_C, g_C] for p = the zero space plus
    the root spaces of p_roots, on root indices: (its part in the zero
    space, the roots whose spaces it holds).  The datum certified that kappa
    pairs g_a with g_-a alone, so g_a is perpendicular to p exactly when -a
    is not in p; every root space lies in [g_C, g_C], as some Cartan element
    acts on it by a nonzero scalar."""
    p_roots = set(p_roots)
    return rd.zero_perp, frozenset(a for a in p_roots
                                   if rd.negative_of(a) not in p_roots)


def build_parabolic(rd: RootDatum, m: Subspace, q_plus) -> Parabolic:
    """p = m_C (+) (direct sum of the Q+ root spaces), fully validated.

    p is certified on root indices from the datum's certified sums (the
    zero space normalizes every root space); only n's nilpotency is checked
    on the subspace itself."""
    g = rd.algebra
    sums = rd.sums
    levi = rd.levi_roots(m)
    nil = frozenset(q_plus)
    in_p = nil.union(levi)
    p_roots = sorted(in_p)
    lands_in_p = in_p | {None}
    for k, a in enumerate(p_roots):
        for b in p_roots[k:]:
            if sums[a][b] not in lands_in_p:
                raise ClosureFailure("p is not bracket-closed")
    # contains a Borel: the zero space plus one root space from each pair
    if any(a not in in_p and rd.negative_of(a) not in in_p
           for a in range(len(rd.roots))):
        raise ClosureFailure("p misses both root spaces of a +/- pair")
    # p n tau(p) = m_C, hence p n g = m because m is real: tau fixes the
    # zero space and maps g_a onto g_-a
    if {a for a in in_p if rd.negative_of(a) in in_p} != set(levi):
        raise ClosureFailure("p n tau(p) != m_C")
    # [p, n] in n, n nilpotent; sums reads None for b = -a too, but
    # [g_-b, g_b] lands in the zero space
    lands_in_n = nil | {None}
    for a in p_roots:
        for b in nil:
            if b == rd.negative_of(a) or sums[a][b] not in lands_in_n:
                raise ClosureFailure("n is not an ideal of p")
    # n is closed, since n lies in p and [p, n] is in n
    n = span_sum(g.dim, [rd.roots[i].space for i in sorted(nil)])
    if n.dim and not is_nilpotent(g, n):
        raise ClosureFailure("n is not nilpotent")
    # the roots part of the Killing-perpendicular nilradical is Q+ by the
    # checks above, so only a nonzero zero-space part can refuse here
    zero_part, perp = killing_perp_nilradical(rd, p_roots)
    if zero_part.dim or perp != nil:
        raise ClosureFailure("Killing-perpendicular nilradical disagrees")
    p = span_sum(g.dim, [m, n])
    return Parabolic(m, tuple(sorted(q_plus)), n, p, rd)
