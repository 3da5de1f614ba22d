"""Constructors for the standard compact Lie algebras and named subalgebras.

Bases are fixed once and documented here because every report and test
refers to coordinates in these bases:

* su(2): e1, e2, e3 with [e_i, e_j] = eps_ijk e_k (e_k = -i sigma_k / 2).
* su(n), n >= 3: for each pair j < k (lexicographic) the two matrices
  E_jk - E_kj and i(E_jk + E_kj), followed by the diagonal matrices
  i(E_jj - E_{j+1,j+1}) for j = 0..n-2.  The maximal torus is spanned by
  the trailing n-1 diagonal generators.
* so(n): E_jk - E_kj for j < k, lexicographic.
* torus(k): k commuting generators; so(2) is abelian too.
* u(n) = torus(1) (+) su(n); sums are block diagonal in general.

Each basis is held as realified integer matrices over one denominator.  A
build flattens the spec into its su, so and torus factors, places their
tables block-diagonally into one table and makes one LieAlgebra of it.  The
invariant inner product is -kappa on each semisimple factor and the
identity on the abelian ones, tori and so(2).
"""

from __future__ import annotations

from .exact import (
    Matrix, Subspace, ExactError, ivec, vcat, vunit, vzero, rref,
    inverse,
)
from .liealg import LieAlgebra, Subalgebra, center


class InvalidSpec(ExactError):
    pass


# the largest dim g that build accepts: su(14) has dim 195, su(15) 224
MAX_DIM = 200


class AlgebraSpec:
    def __init__(self, kind: str, n: int = 0, parts: tuple = ()):
        self.kind = kind           # su | so | u | torus | sum
        self.n = n                 # for su/so/u: matrix size; for torus: rank
        # for sum: the parts of a nonempty inner sum are spliced in, so no
        # part is a nonempty sum and every walk over a spec goes one level
        self.parts = tuple(q for p in parts for q in (
            p.parts if p.kind == "sum" and p.parts else (p,)))

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

    def dim(self):
        """dim g by arithmetic, without building a basis."""
        n = self.n
        return {"su": n * n - 1, "so": n * (n - 1) // 2, "u": n * n,
                "torus": n, "sum": sum(p.dim() for p in self.parts)}[self.kind]

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
# matrix realizations: an n x n matrix read row by row and realified, the re
# and im parts of entry (r, c) at positions 2(rn + c) and 2(rn + c) + 1, held
# as a dict of its nonzero positions to integers; a basis is (D, dicts) over
# one denominator D

def _pos(size, r, c, im=0):
    return 2 * (r * size + c) + im


def _su_basis(n):
    """(D, basis) of su(n) in the documented order."""
    if n == 2:
        # e_k = -i sigma_k / 2 gives [e_i, e_j] = eps_ijk e_k
        return 2, [{_pos(n, 0, 1, 1): -1, _pos(n, 1, 0, 1): -1},
                   {_pos(n, 0, 1): -1, _pos(n, 1, 0): 1},
                   {_pos(n, 0, 0, 1): -1, _pos(n, 1, 1, 1): 1}]
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            basis.append({_pos(n, j, k): 1, _pos(n, k, j): -1})
            basis.append({_pos(n, j, k, 1): 1, _pos(n, k, j, 1): 1})
    basis.extend({_pos(n, j, j, 1): 1, _pos(n, j + 1, j + 1, 1): -1}
                 for j in range(n - 1))
    return 1, basis


def _so_basis(n):
    return 1, [{_pos(n, j, k): 1, _pos(n, k, j): -1}
               for j in range(n) for k in range(j + 1, n)]


def _commutator(n, x, y):
    """XY - YX for n x n matrices given as realified integer coordinates,
    in the same form over the product of the scales."""
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
    """Coordinates in a linearly independent matrix basis, realified
    integer matrices over den.

    The returned function maps a matrix given the same way, t over t_den,
    to its coefficient tuple, or to None if the matrix is not in the real
    span.  The basis is factored once: d independent real coordinates (the
    pivots) are located and the inverse of that d x d block held as A / D
    with A an integer matrix, so each call is one integer matvec on the
    pivots plus an exact re-expansion check in integers."""
    used = sorted(set().union(*basis))
    _, cols, _ = rref(Matrix([ivec([b.get(pos, 0) for pos in used])
                              for b in basis]))
    pivots = [used[c] for c in cols]
    block = Matrix([ivec([b.get(pos, 0) for b in basis]) for pos in pivots])
    big_d, a_rows, _ = inverse(block).integer_rows()
    # column r of A, for the pivot pivots[r]
    a_cols = {pos: [] for pos in pivots}
    for k, row in enumerate(a_rows):
        for r, a in enumerate(row):
            if a:
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
        return ivec([den * x for x in c], None, big_d * t_den)
    return coords


def _structure_from_matrices(n, den, basis, coords):
    """Expand commutators of a basis of n x n matrices, realified integer
    matrices over den, exactly in that basis; coords is the basis's
    _coordinates."""
    table = []
    for a in basis:
        row = []
        for b in basis:
            coeffs = coords(den * den, _commutator(n, a, b))
            if coeffs is None:  # pragma: no cover
                raise InvalidSpec("matrix basis is not bracket-closed")
            row.append(coeffs)
        table.append(row)
    return table


def _flatten(spec):
    if spec.kind == "sum":
        return [f for p in spec.parts for f in _flatten(p)]
    if spec.kind == "u":
        return [torus(1), su(spec.n)]
    return [spec]


def _factors(spec):
    """(factors, dim): each su, so and torus factor of spec in basis order
    as (offset, factor, basis), basis None for a torus; u(n) is
    torus(1) + su(n), and sums flatten."""
    factors, dim = [], 0
    for f in _flatten(spec):
        basis = None if f.kind == "torus" else \
            (_su_basis if f.kind == "su" else _so_basis)(f.n)
        factors.append((dim, f, basis))
        dim += f.dim()
    return factors, dim


def build(spec: AlgebraSpec) -> LieAlgebra:
    """One block-diagonal table of the factors and one LieAlgebra; the inner
    product is -kappa with identity rows on the coordinates of the abelian
    factors, tori and so(2) (kappa of the sum restricts to each simple
    factor's own and vanishes on the abelian ones)."""
    spec.validate()
    if spec.dim() > MAX_DIM:
        raise InvalidSpec(f"dim g = {spec.dim()} exceeds the limit {MAX_DIM}")
    factors, d = _factors(spec)
    zero = vzero(d)
    table = [[zero] * d for _ in range(d)]
    central = set()
    for off, f, basis in factors:
        size = f.dim()
        if basis is None or size == 1:
            # abelian factors, torus(k) and so(2), on which kappa vanishes
            central.update(range(off, off + size))
            continue
        block = _structure_from_matrices(f.n, *basis, _coordinates(*basis))
        end = off + len(block)
        left, right = zero[:off], zero[end:]
        for i, row in enumerate(block):
            table[off + i][off:end] = [vcat((left, v, right)) for v in row]
    g = LieAlgebra(table, name=spec.label())
    g.inner_product = Matrix([vunit(d, i) if i in central else r
                              for i, r in enumerate((-g.killing_gram()).rows)])
    return g


# ---------------------------------------------------------------------------
# named subalgebras

def _maximal_torus_indices(spec):
    """Basis indices of the standard maximal torus, factor by factor."""
    idx = []
    for off, f, basis in _factors(spec)[0]:
        n = f.n
        if basis is None:
            local = range(n)
        elif f.kind == "su":
            # the trailing n - 1 diagonal generators
            local = range(len(basis[1]) - (n - 1), len(basis[1]))
        else:
            # commuting rotations in the planes (0,1), (2,3), ...
            pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
            local = [pairs.index((j, j + 1)) for j in range(0, n - 1, 2)]
        idx.extend(off + i for i in local)
    return idx


def _block_u_space(spec, k):
    """block_u(k) inside su(n), the anti-Hermitian diag(A, c I) with A in
    u(k) and the trace balanced, on catalog indices: the pairs j < l < k
    (the pair at lexicographic position p sits at 2p and 2p + 1), the
    H_j = e_(n(n - 1) + j) with j < k - 1, and the center
    diag(i(n - k) I_k, -ik I_(n-k)), whose coordinate on H_j is the partial
    sum of its diagonal (on su(2), e3 = -H_0 / 2)."""
    if spec.kind != "su":
        raise InvalidSpec("block_u is only defined for su(n)")
    n = spec.n
    if not 1 <= k < n:
        raise InvalidSpec(f"block_u({k}) needs 1 <= k < {n}")
    ends = [l for j in range(n) for l in range(j + 1, n)]  # pairs (j, l)
    idx = [2 * p + s for p, l in enumerate(ends) if l < k for s in (0, 1)]
    idx += [n * (n - 1) + j for j in range(k - 1)]
    diag = [(j + 1) * (n - k) if j < k else k * (n - 1 - j)
            for j in range(n - 1)]
    return ([vunit(n * n - 1, i) for i in idx]
            + [ivec([0] * (n * (n - 1)) + diag)])


def build_subalgebra(g: LieAlgebra, spec: AlgebraSpec, name, k=None,
                     span=None) -> Subalgebra:
    """Named subalgebras: maximal_torus | zero | center | block_u (with k,
    su(n) only) | span (explicit vectors, validated for closure).  spec is
    None for an algebra given by its table, which has neither a maximal
    torus nor a block_u by name."""
    if name == "zero":
        return Subalgebra(g, Subspace.zero(g.dim), check=False)
    if name == "center":
        return Subalgebra(g, center(g, Subspace.full(g.dim)), check=False)
    if name == "block_u" and k is None:
        raise InvalidSpec("block_u needs k")
    if name in ("maximal_torus", "block_u") and spec is None:
        raise InvalidSpec(f"{name} needs a catalog algebra")
    if name == "maximal_torus":
        idx = _maximal_torus_indices(spec)
        return Subalgebra.span(g, [vunit(g.dim, i) for i in idx], check=False)
    if name == "block_u":
        return Subalgebra.span(g, _block_u_space(spec, k), check=True)
    if name == "span":
        if span is None:
            raise InvalidSpec("span subalgebra needs explicit vectors")
        return Subalgebra.span(g, span, check=True)
    raise InvalidSpec(f"unknown subalgebra name {name!r}")
