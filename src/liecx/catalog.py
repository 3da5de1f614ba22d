"""Constructors for the standard compact Lie algebras and named subalgebras.

Bases are fixed once and documented here because every report and test
refers to coordinates in these bases:

* su(2): e1, e2, e3 with [e_i, e_j] = eps_ijk e_k (e_k = -i sigma_k / 2).
* su(n), n >= 3: for each pair j < k (lexicographic) the two matrices
  E_jk - E_kj and i(E_jk + E_kj), followed by the diagonal matrices
  i(E_jj - E_{j+1,j+1}) for j = 0..n-2.  The maximal torus is spanned by
  the trailing n-1 diagonal generators.
* so(n): E_jk - E_kj for j < k, lexicographic.
* torus(k): k commuting generators.
* u(n) = torus(1) (+) su(n); sums are block diagonal in general.

The invariant inner product is -kappa on each semisimple factor and the
identity on central factors.
"""

from __future__ import annotations

from .exact import (
    GQ, ONE, ZERO, I, Matrix, Subspace, ExactError,
    vec, vunit, vzero, rref, inverse, int_vectors, from_ints,
)
from .liealg import LieAlgebra, Subalgebra, center, full_subalgebra


class InvalidSpec(ExactError):
    pass


class AlgebraSpec:
    def __init__(self, kind: str, n: int = 0, parts: tuple = ()):
        self.kind = kind           # su | so | u | torus | sum
        self.n = n                 # for su/so/u: matrix size; for torus: rank
        self.parts = parts         # for sum

    def validate(self):
        if self.kind in ("su", "so", "u"):
            if self.n < 2:
                raise InvalidSpec(f"{self.kind}({self.n}): need n >= 2")
        elif self.kind == "torus":
            if self.n < 1:
                raise InvalidSpec(f"torus({self.n}): need k >= 1")
        elif self.kind == "sum":
            if not self.parts:
                raise InvalidSpec("empty direct sum")
            for p in self.parts:
                p.validate()
        else:
            raise InvalidSpec(f"unknown algebra kind {self.kind!r}")

    def label(self):
        if self.kind == "sum":
            return "+".join(p.label() for p in self.parts)
        if self.kind == "torus":
            return f"torus({self.n})"
        return f"{self.kind}({self.n})"


def su(n):
    return AlgebraSpec("su", n)


def so(n):
    return AlgebraSpec("so", n)


def u(n):
    return AlgebraSpec("u", n)


def torus(k):
    return AlgebraSpec("torus", k)


def direct_sum(*parts):
    return AlgebraSpec("sum", parts=tuple(parts))


# ---------------------------------------------------------------------------
# matrix realizations

def _elem(n, j, k, val):
    m = [[ZERO] * n for _ in range(n)]
    m[j][k] = GQ.coerce(val)
    return m


def _mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _su2_basis():
    half = GQ(1, 0) / GQ(2)
    ihalf = I / GQ(2)
    # e_k = -i sigma_k / 2 gives [e_i, e_j] = eps_ijk e_k
    e1 = [[ZERO, -ihalf], [-ihalf, ZERO]]
    e2 = [[ZERO, -half], [half, ZERO]]
    e3 = [[-ihalf, ZERO], [ZERO, ihalf]]
    return [e1, e2, e3]


def _su_basis(n):
    if n == 2:
        return _su2_basis()
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            basis.append(_mat_add(_elem(n, j, k, ONE), _elem(n, k, j, -ONE)))
            basis.append(_mat_add(_elem(n, j, k, I), _elem(n, k, j, I)))
    for j in range(n - 1):
        basis.append(_mat_add(_elem(n, j, j, I), _elem(n, j + 1, j + 1, -I)))
    return basis


def _so_basis(n):
    return [_mat_add(_elem(n, j, k, ONE), _elem(n, k, j, -ONE))
            for j in range(n) for k in range(j + 1, n)]


def _real_ints(mats):
    """(D, coordinates): each n x n matrix read row by row and realified,
    re and im of entry (r, c) at positions 2(rn + c) and 2(rn + c) + 1, as
    a dict of its nonzero positions to D times their value, with D the
    least common denominator of all the matrices."""
    den, entries = int_vectors([tuple(x for row in m for x in row)
                                for m in mats])
    out = []
    for e in entries:
        t = {}
        for i, a, b in e:
            if a:
                t[2 * i] = a
            if b:
                t[2 * i + 1] = b
        out.append(t)
    return den, out


def _commutator(n, x, y):
    """XY - YX for n x n matrices given as realified integer coordinates
    (see _real_ints), in the same form over the product of the scales."""
    out = {}
    for p, q, sign in ((x, y, 1), (y, x, -1)):
        for i, a in p.items():
            r, m = divmod(i >> 1, n)
            for j, b in q.items():
                m2, c = divmod(j >> 1, n)
                if m == m2:
                    # a i^(i&1) * b i^(j&1), and i^2 = -1
                    s = (i & 1) + (j & 1)
                    pos = 2 * (r * n + c) + (s & 1)
                    out[pos] = out.get(pos, 0) + (sign if s < 2 else -sign) * a * b
    return {pos: v for pos, v in out.items() if v}


def _coordinates(den, basis):
    """Coordinates in a linearly independent matrix basis, given as
    _real_ints over den.

    The returned function maps a matrix given the same way, t over t_den,
    to its coefficient tuple, or to None if the matrix is not in the real
    span.  The basis is factored once: d independent real coordinates (the
    pivots) are located and the inverse of that d x d block held as A / D
    with A an integer matrix, so each call is one integer matvec on the
    pivots plus an exact re-expansion check in integers."""
    used = sorted(set().union(*basis))
    _, cols, _ = rref(Matrix([from_ints([b.get(pos, 0) for pos in used],
                                        None, 1) for b in basis]))
    pivots = [used[c] for c in cols]
    block = Matrix([from_ints([b.get(pos, 0) for b in basis], None, 1)
                    for pos in pivots])
    big_d, a_rows = int_vectors(inverse(block).rows)
    # column r of A, for the pivot pivots[r]
    a_cols = {pos: [] for pos in pivots}
    for k, row in enumerate(a_rows):
        for r, a, _ in row:
            a_cols[pivots[r]].append((k, a))

    def coords(t_den, t):
        c = [0] * len(basis)
        for pos, x in t.items():
            for k, a in a_cols.get(pos, ()):
                c[k] += a * x
        # sum_k c_k b_k == t, both sides times D t_den
        expanded = {}
        for ck, b in zip(c, basis):
            if ck:
                for pos, x in b.items():
                    expanded[pos] = expanded.get(pos, 0) + ck * x
        if {pos: v for pos, v in expanded.items() if v} != \
                {pos: big_d * x for pos, x in t.items()}:
            return None
        return from_ints([den * x for x in c], None, big_d * t_den)
    return coords


def _structure_from_matrices(basis):
    """Expand commutators of a matrix basis exactly in that basis."""
    n = len(basis[0])
    den, ints = _real_ints(basis)
    coords = _coordinates(den, ints)
    table = []
    for a in ints:
        row = []
        for b in ints:
            coeffs = coords(den * den, _commutator(n, a, b))
            if coeffs is None:  # pragma: no cover
                raise InvalidSpec("matrix basis is not bracket-closed")
            row.append(coeffs)
        table.append(row)
    return table


def _from_matrices(basis, name):
    g = LieAlgebra(_structure_from_matrices(basis), name=name)
    g.inner_product = -g.killing_gram()
    return g


def _torus_algebra(k):
    table = [[vzero(k) for _ in range(k)] for _ in range(k)]
    return LieAlgebra(table, inner_product=Matrix.identity(k), name=f"torus({k})")


def _block_sum(algebras, name):
    dims = [g.dim for g in algebras]
    n = sum(dims)
    offs = [sum(dims[:i]) for i in range(len(dims))]
    table = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    ip = [[ZERO] * n for _ in range(n)]
    for g, off in zip(algebras, offs):
        for i in range(g.dim):
            for j in range(g.dim):
                for k in range(g.dim):
                    table[off + i][off + j][off + k] = g.table[i][j][k]
                ip[off + i][off + j] = g.inner_product[i, j]
    return LieAlgebra(table, inner_product=Matrix(ip), name=name)


def build(spec: AlgebraSpec) -> LieAlgebra:
    spec.validate()
    if spec.kind == "su":
        return _from_matrices(_su_basis(spec.n), spec.label())
    if spec.kind == "so":
        return _from_matrices(_so_basis(spec.n), spec.label())
    if spec.kind == "torus":
        return _torus_algebra(spec.n)
    if spec.kind == "u":
        g = _block_sum([_torus_algebra(1),
                        _from_matrices(_su_basis(spec.n), f"su({spec.n})")],
                       spec.label())
        return g
    if spec.kind == "sum":
        return _block_sum([build(p) for p in spec.parts], spec.label())
    raise InvalidSpec(spec.kind)  # pragma: no cover


# ---------------------------------------------------------------------------
# named subalgebras

def _maximal_torus_indices(spec):
    """Basis indices of the standard maximal torus, per factor."""
    if spec.kind == "torus":
        return list(range(spec.n))
    if spec.kind == "su":
        if spec.n == 2:
            return [2]
        d = spec.n * spec.n - 1
        return list(range(d - (spec.n - 1), d))
    if spec.kind == "so":
        # commuting rotations in the planes (0,1), (2,3), ...
        idx = []
        pos = 0
        for j in range(spec.n):
            for k in range(j + 1, spec.n):
                if j % 2 == 0 and k == j + 1:
                    idx.append(pos)
                pos += 1
        return idx
    if spec.kind == "u":
        return [0] + [1 + i for i in _maximal_torus_indices(su(spec.n))]
    if spec.kind == "sum":
        idx, off = [], 0
        for p in spec.parts:
            idx.extend(off + i for i in _maximal_torus_indices(p))
            off += _spec_dim(p)
        return idx
    raise InvalidSpec(spec.kind)  # pragma: no cover


def _spec_dim(spec):
    if spec.kind == "su":
        return spec.n * spec.n - 1
    if spec.kind == "so":
        return spec.n * (spec.n - 1) // 2
    if spec.kind == "u":
        return spec.n * spec.n
    if spec.kind == "torus":
        return spec.n
    if spec.kind == "sum":
        return sum(_spec_dim(p) for p in spec.parts)
    raise InvalidSpec(spec.kind)  # pragma: no cover


def _block_u_space(spec, g, k):
    """block_u(k) inside su(n): anti-Hermitian matrices diag(A, c I) with
    A in u(k) and the trace balanced on the complement."""
    if spec.kind != "su":
        raise InvalidSpec("block_u is only defined for su(n)")
    n = spec.n
    if not 1 <= k < n:
        raise InvalidSpec(f"block_u({k}) needs 1 <= k < {n}")
    coords = _coordinates(*_real_ints(_su_basis(n)))
    # su(k)-block plus its compensated center, expanded in catalog coordinates
    block = []
    if k >= 2:
        block.extend(_su_basis(k))
    scalar_k = [[ZERO] * k for _ in range(k)]
    for j in range(k):
        scalar_k[j][j] = I * GQ(n - k)
    block.append(scalar_k)
    fulls = []
    for bm in block:
        full = [[ZERO] * n for _ in range(n)]
        for r in range(k):
            for c in range(k):
                full[r][c] = bm[r][c]
        if bm is scalar_k:
            for j in range(k, n):
                full[j][j] = -I * GQ(k)
        fulls.append(full)
    den, ints = _real_ints(fulls)
    vectors = []
    for t in ints:
        coeffs = coords(den, t)
        if coeffs is None:  # pragma: no cover
            raise InvalidSpec("block_u generator is not in su(n)")
        vectors.append(coeffs)
    return vectors


def build_subalgebra(g: LieAlgebra, spec: AlgebraSpec, name, k=None,
                     span=None) -> Subalgebra:
    """Named subalgebras: maximal_torus | zero | center | block_u (with k,
    su(n) only) | span (explicit vectors, validated for closure)."""
    if name == "zero":
        return Subalgebra(g, Subspace.zero(g.dim), check=False)
    if name == "center":
        return center(g, full_subalgebra(g))
    if name == "maximal_torus":
        idx = _maximal_torus_indices(spec)
        return Subalgebra.span(g, [vunit(g.dim, i) for i in idx], check=False)
    if name == "block_u":
        if k is None:
            raise InvalidSpec("block_u needs k")
        return Subalgebra.span(g, _block_u_space(spec, g, k), check=True)
    if name == "span":
        if span is None:
            raise InvalidSpec("span subalgebra needs explicit vectors")
        return Subalgebra.span(g, [vec(v) for v in span], check=True)
    raise InvalidSpec(f"unknown subalgebra name {name!r}")
