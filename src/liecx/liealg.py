"""Lie algebras given by rational structure constants, with the standard
constructions: centralizer, normalizer, derived algebra, center, quotients,
Killing form, radical and Cartan extension.

A compact Lie algebra here means one carrying a validated ad-invariant
positive definite inner product; that hypothesis is what every downstream
theorem check relies on.
"""

from __future__ import annotations

from math import lcm

from .exact import (
    Matrix, Subspace, ExactError, DimensionMismatch,
    combine, kernel_of, kernel_span, vec, ivec, vneg, vzero, is_zero_vec,
    nonzero_terms, take,
)


class LieAlgebraError(ExactError):
    pass


class NotClosed(LieAlgebraError):
    pass


class NotAbelian(LieAlgebraError):
    pass


class ValidationResult:
    def __init__(self, ok: bool, failures: list):
        self.ok = ok
        self.failures = failures

    def first_failure(self):
        return self.failures[0] if self.failures else None


class LieAlgebra:
    """A Lie algebra by its bracket table [e_i, e_j] = table[i][j].

    The same structure tensor serves the real algebra and its
    complexification: a vector with Gaussian-rational entries is a point of
    g_C, and tau is coordinate-wise conjugation (`vconj`).
    `int_terms[i][j]` lists the nonzero entries of table[i][j] as
    (k, re, im) integers over the common denominator `table_den`, so
    brackets, traces and the Jacobi sums accumulate in ints and skip zeros.
    """

    def __init__(self, table, inner_product=None, name=""):
        self.table = tuple(tuple(vec(v) for v in row) for row in table)
        self.dim = len(self.table)
        for row in self.table:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise DimensionMismatch("structure table must be dim x dim x dim")
        den = self.table_den = lcm(*(v.den for row in self.table for v in row))
        self.int_terms = tuple(tuple(
            [(k, a * (den // v.den), b * (den // v.den))
             for k, a, b in nonzero_terms(v)] for v in row)
            for row in self.table)
        self.inner_product = inner_product if inner_product is not None \
            else Matrix.identity(self.dim)
        self.name = name
        self._killing_gram = None
        self._validation = None

    # -- basic algebra ------------------------------------------------------

    def bracket(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("bracket operands must have ambient length")
        ys = nonzero_terms(y)
        re = [0] * self.dim
        im = [0] * self.dim
        for i, xr, xi in nonzero_terms(x):
            row = self.int_terms[i]
            for j, yr, yi in ys:
                terms = row[j]
                if not terms:
                    continue
                cr = xr * yr - xi * yi
                ci = xr * yi + xi * yr
                for k, tr, ti in terms:
                    if ti:
                        re[k] += cr * tr - ci * ti
                        im[k] += cr * ti + ci * tr
                    else:
                        re[k] += cr * tr
                        if ci:
                            im[k] += ci * tr
        return ivec(re, im, x.den * y.den * self.table_den)

    def killing_gram(self) -> Matrix:
        """Gram matrix of the Killing form kappa(e_i, e_j) = tr(ad e_i ad e_j)."""
        if self._killing_gram is None:
            n = self.dim
            entry = [[{k: (a, b) for k, a, b in ts} for ts in row]
                     for row in self.int_terms]
            re = [[0] * n for _ in range(n)]
            im = [[0] * n for _ in range(n)]
            for i in range(n):
                # kappa(e_i, e_j) = sum over the nonzero c_ik^l of c_ik^l c_jl^k
                nonzero = [(k, l, a, b) for k, ts in enumerate(self.int_terms[i])
                           for l, a, b in ts]
                for j in range(i, n):
                    sr = si = 0
                    for k, l, a, b in nonzero:
                        t = entry[j][l].get(k)
                        if t:
                            sr += a * t[0] - b * t[1]
                            si += a * t[1] + b * t[0]
                    re[i][j] = re[j][i] = sr
                    im[i][j] = im[j][i] = si
            den = self.table_den ** 2
            self._killing_gram = Matrix(
                [ivec(r, m, den) for r, m in zip(re, im)])
        return self._killing_gram

    def derived_span(self) -> Subspace:
        """[g, g], the span of the brackets [e_i, e_j] with i < j."""
        return Subspace.from_vectors(self.dim, [
            v for i, row in enumerate(self.table) for v in row[i + 1:]])

    # -- validation ---------------------------------------------------------

    def validate(self) -> ValidationResult:
        """Antisymmetry, Jacobi and an ad-invariant positive definite inner
        product.  The result is kept, so inner_product must be set before
        the first call."""
        if self._validation is not None:
            return self._validation
        failures = []
        n = self.dim
        terms = self.int_terms
        for i in range(n):
            for j in range(i, n):
                if terms[i][j] != [(k, -a, -b) for k, a, b in terms[j][i]]:
                    failures.append(f"antisymmetry fails on (e{i}, e{j})")
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    # [[e_a, e_b], e_c] = sum over l, m of c_ab^l c_lc^m e_m
                    re, im = [0] * n, [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, tr, ti in terms[a][b]:
                            for m, ur, ui in terms[l][c]:
                                re[m] += tr * ur - ti * ui
                                im[m] += tr * ui + ti * ur
                    if any(re) or any(im):
                        failures.append(f"Jacobi fails on (e{i}, e{j}, e{k})")
        ip = self.inner_product
        if n and (ip.nrows != n or ip.ncols != n):
            raise DimensionMismatch(
                f"inner product is {ip.nrows}x{ip.ncols}, expected {n}x{n}")
        if ip != ip.transpose():
            failures.append("inner product not symmetric")
        if not _positive_definite(ip):
            failures.append("inner product not positive definite")
        _, pre, pim = ip.integer_rows()
        _, tre, tim = ip.transpose().integer_rows()  # the same denominator
        for i in range(n):
            # <[e_i,e_j], e_k> + <e_j, [e_i,e_k]> is entry (j, k) of
            # A P + (A P^T)^T with row j of A the terms of [e_i, e_j]
            ap = [combine(n, ts, pre, pim) for ts in terms[i]]
            apt = [combine(n, ts, tre, tim) for ts in terms[i]]
            bad = next(((j, k) for j in range(n) for k in range(n)
                        if ap[j][0][k] + apt[k][0][j]
                        or ap[j][1][k] + apt[k][1][j]), None)
            if bad is not None:
                failures.append(
                    f"inner product not ad-invariant on (e{i}, e{bad[0]}, e{bad[1]})")
        self._validation = ValidationResult(not failures, failures)
        return self._validation

    def __repr__(self):
        return f"LieAlgebra({self.name or 'anon'}, dim {self.dim})"


def _positive_definite(m: Matrix) -> bool:
    # Sylvester: all leading principal minors positive (entries must be
    # real).  Bareiss elimination without row swaps leaves the k-th leading
    # minor of the integer rows, a positive multiple of m, as the k-th pivot.
    if not m.is_real():
        return False
    rows = [list(r) for r in m.integer_rows()[1]]
    prev = 1
    for c, pivot_row in enumerate(rows):
        pivot = pivot_row[c]
        if pivot <= 0:
            return False
        for r in rows[c + 1:]:
            f = r[c]
            for k in range(c + 1, len(r)):
                r[k] = (pivot * r[k] - f * pivot_row[k]) // prev
        prev = pivot
    return True


class Subalgebra:
    """A subspace of a LieAlgebra carrying a bracket-closure certificate:
    the h that the catalog builds and `quotient` takes."""

    def __init__(self, algebra: LieAlgebra, space: Subspace, check=True):
        if space.ambient_dim != algebra.dim:
            raise DimensionMismatch("subalgebra ambient mismatch")
        self.algebra = algebra
        self.space = space
        if check:
            require_closed(algebra, space)

    @classmethod
    def span(cls, algebra, vectors, check=True):
        return cls(algebra, Subspace.from_vectors(algebra.dim, vectors), check=check)

    def is_abelian(self):
        return is_abelian(self.algebra, self.space)


def pair_brackets(g, vectors):
    """[a, b] for every pair a before b of vectors, lazily and in order."""
    return (g.bracket(a, b) for i, a in enumerate(vectors)
            for b in vectors[i + 1:])


def is_closed(g, space: Subspace) -> bool:
    return all(space.contains(b)
               for b in pair_brackets(g, space.basis_vectors()))


def require_closed(g, space: Subspace):
    if not is_closed(g, space):
        raise NotClosed("subspace is not closed under the bracket")


def is_abelian(g, s: Subspace) -> bool:
    return all(is_zero_vec(b) for b in pair_brackets(g, s.basis_vectors()))


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [v, x] = 0 for each basis vector v of s}; bracket-closed."""
    c = Subspace.full(g.dim)
    for v in s.basis_vectors():
        c = kernel_of(c, lambda x: g.bracket(v, x))
    return c


def normalizer(g: LieAlgebra, h: Subspace) -> Subspace:
    """{x : [v, x] in h for each basis vector v of h}; contains h.  h may
    be a subalgebra of g_C."""
    c = Subspace.full(g.dim)
    for v in h.basis_vectors():
        c = kernel_of(c, lambda x: h.reduce(g.bracket(v, x)))
    return c


def derived(g: LieAlgebra, s: Subspace) -> Subspace:
    """[s, s], canonicalized."""
    return Subspace.from_vectors(g.dim, pair_brackets(g, s.basis_vectors()))


def center(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x in s : [v, x] = 0 for each basis vector v of s}."""
    c = s
    for v in s.basis_vectors():
        c = kernel_of(c, lambda x: g.bracket(v, x))
    return c


def own_algebra(g: LieAlgebra, s: Subspace) -> LieAlgebra:
    """The closed s as a Lie algebra in its own RREF basis: its structure
    constants are the brackets of basis pairs a before b, in s's
    coordinates."""
    bs, d = s.basis_vectors(), s.dim
    table = [[vzero(d)] * d for _ in range(d)]
    for i, a in enumerate(bs):
        for j in range(i + 1, d):
            c = s.coords(g.bracket(a, bs[j]))
            table[i][j], table[j][i] = c, vneg(c)
    return LieAlgebra(table)


def _series_reaches_zero(h: LieAlgebra, step) -> bool:
    """The series [h, h], step(h, [h, h]), ... in the algebra h reaches 0;
    it stalls, and never does, once a term keeps the dimension of the one
    before."""
    prev, cur = h.dim, h.derived_span()
    while cur.dim:
        if cur.dim == prev:
            return False
        prev, cur = cur.dim, Subspace.from_vectors(
            h.dim, step(h, cur.basis_vectors()))
    return True


def is_solvable(h: LieAlgebra) -> bool:
    """The derived series h, [h, h], ... of the algebra h reaches 0."""
    return _series_reaches_zero(h, pair_brackets)


def is_nilpotent(g: LieAlgebra, s: Subspace) -> bool:
    """The lower central series s, [s, s], [s, [s, s]], ... reaches 0."""
    return _series_reaches_zero(own_algebra(g, s), lambda h, bs: [
        h.bracket(a, b) for a in Matrix.identity(h.dim).rows for b in bs])


def restricted_ad(g: LieAlgebra, x, space: Subspace) -> Matrix:
    """Matrix of ad(x) on an ad(x)-stable subspace, in its coordinates."""
    return Matrix.from_columns([space.coords(g.bracket(x, b))
                                for b in space.basis_vectors()])


def radical(own_l: LieAlgebra, l: Subspace) -> Subspace:
    """Radical of the closed l by the Killing-perpendicularity criterion,
    from own_l = own_algebra(g, l): the x in l with kappa_l(x, [l, l]) = 0,
    kappa_l the Killing form of l in its own coordinates."""
    der = own_l.derived_span()
    if der.dim == 0:
        return l
    gram = own_l.killing_gram()
    rows = [gram.matvec(dv) for dv in der.basis_vectors()]  # symmetric gram
    return kernel_span(Matrix(rows), l)


def extend_to_maximal_abelian(g: LieAlgebra, t: Subspace,
                              within: Subspace) -> Subspace:
    """Greedy extension of t to a subalgebra a that is maximal abelian in
    the caller's bound.  `within` is C_g(t) intersected with that bound, so
    t lies in it exactly when t is abelian and inside the bound.  Each step
    adds the first basis vector v of C(a) n bound outside a, and cuts that
    space down by C(a + v) = C(a) n C(v), centralizing v alone.  Bounded by
    g itself, a is self-centralizing: a Cartan subalgebra of compact g."""
    if not within.contains_subspace(t):
        raise NotAbelian("starting subalgebra is not abelian inside its bound")
    a, c = t, within
    while c != a:
        # a lies in c, so c has a basis vector outside a
        v = next(v for v in c.basis_vectors() if not a.contains(v))
        a = Subspace.from_vectors(g.dim, a.basis.rows + (v,))
        c = kernel_of(c, lambda x: g.bracket(v, x))
    return a


class Quotient:
    """g / h with a deterministic section: the complement is the pivot
    complement of h, projection o section = id, kernel(projection) = h.

    Quotient coordinates are the non-pivot axes of h's RREF basis, in order:
    project reduces x by h and reads the residual there, lift scatters u
    onto those axes.

    It is also the problem g/h of one command: h is certified closed by the
    catalog, and `fact` keeps what the command derives of g/h (C(h), [h, h],
    classify's Levi), so each is derived once, for the Quotient's life."""

    def __init__(self, algebra: LieAlgebra, h: Subspace):
        self.algebra = algebra
        self.h = h
        self.complement = h.complement()
        self._facts = {(require_closed, (algebra, h)): None}

    def fact(self, fn, *args):
        """fn(*args), computed on first use and kept."""
        if (fn, args) not in self._facts:
            self._facts[fn, args] = fn(*args)
        return self._facts[fn, args]

    @property
    def dim(self):
        return self.algebra.dim - self.h.dim

    def project(self, x):
        if len(x) != self.algebra.dim:
            raise DimensionMismatch(f"project: {len(x)} != {self.algebra.dim}")
        return take(self.h.reduce(x), self.complement.pivots)

    def lift(self, u):
        if len(u) != self.dim:
            raise DimensionMismatch(f"lift: {len(u)} != {self.dim}")
        re, im = [0] * self.algebra.dim, [0] * self.algebra.dim
        for k, a, b in nonzero_terms(u):
            c = self.complement.pivots[k]
            re[c], im[c] = a, b
        return ivec(re, im, u.den)

    def induced_map(self, x) -> Matrix:
        """The action of ad(x) on g/h (x must normalize h for this to be
        well defined; callers check)."""
        return Matrix.from_columns(
            [self.project(self.algebra.bracket(x, self.lift(u)))
             for u in Matrix.identity(self.dim).rows])


def quotient(g: LieAlgebra, h: Subalgebra) -> Quotient:
    return Quotient(g, h.space)
