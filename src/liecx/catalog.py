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

from dataclasses import dataclass

from .exact import (
    GQ, ONE, ZERO, I, Matrix, Subspace, ExactError,
    vec, vunit, vzero, rref, inverse, realify_vector,
)
from .liealg import LieAlgebra, Subalgebra, center, full_subalgebra


class InvalidSpec(ExactError):
    pass


@dataclass(frozen=True)
class AlgebraSpec:
    kind: str                      # su | so | u | torus | sum
    n: int = 0                     # for su/so/u: matrix size; for torus: rank
    parts: tuple = ()              # for sum

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


def _commutator(a, b):
    n = len(a)
    out = [[ZERO] * n for _ in range(n)]
    for x, y, sign in ((a, b, ONE), (b, a, -ONE)):
        for r in range(n):
            for m in range(n):
                if x[r][m]:
                    f = sign * x[r][m]
                    for c in range(n):
                        if y[m][c]:
                            out[r][c] = out[r][c] + f * y[m][c]
    return out


def _flatten_real(mat):
    return realify_vector(tuple(x for row in mat for x in row))


def _coordinates(basis):
    """Coordinates in a linearly independent matrix basis.

    The returned function maps a matrix to its coefficient tuple, or to None
    if the matrix is not in the real span.  The basis is factored once: d
    independent real coordinates of the expansion matrix are located and
    that d x d block inverted, so each call is one matvec plus an exact
    re-expansion check."""
    expand = Matrix.from_columns([_flatten_real(m) for m in basis])
    _, rows, _ = rref(expand.transpose())
    block_inv = inverse(Matrix([expand.rows[r] for r in rows]))

    def coords(mat):
        target = _flatten_real(mat)
        c = block_inv.matvec(tuple(target[r] for r in rows))
        return c if expand.matvec(c) == target else None
    return coords


def _structure_from_matrices(basis):
    """Expand commutators of a matrix basis exactly in that basis."""
    coords = _coordinates(basis)
    table = []
    for a in basis:
        row = []
        for b in basis:
            coeffs = coords(_commutator(a, b))
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
    coords = _coordinates(_su_basis(n))
    vectors = []
    # su(k)-block plus its compensated center, expanded in catalog coordinates
    block = []
    if k >= 2:
        block.extend(_su_basis(k))
    scalar_k = [[ZERO] * k for _ in range(k)]
    for j in range(k):
        scalar_k[j][j] = I * GQ(n - k)
    block.append(scalar_k)
    for bm in block:
        full = [[ZERO] * n for _ in range(n)]
        for r in range(k):
            for c in range(k):
                full[r][c] = bm[r][c]
        if bm is scalar_k:
            for j in range(k, n):
                full[j][j] = -I * GQ(k)
        coeffs = coords(full)
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
