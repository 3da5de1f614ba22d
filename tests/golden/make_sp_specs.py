"""Write the compact symplectic algebras sp(2) and sp(3) as explicit-table
specs for tests/test_atlas.py.

    python3 tests/golden/make_sp_specs.py

Stdlib only, and independent of liecx: the brackets are matrix commutators
computed with Fractions.  sp(n) is the algebra of complex 2n x 2n matrices
X = [[A, B], [-conj(B), conj(A)]] with A in u(n) and B complex symmetric,
that is u(2n) intersected with sp(2n, C); its dimension is n(2n + 1).  The
basis, all Gaussian-integer matrices, in this order:

- i(E_jj - E_{n+j,n+j}), j < n: the maximal torus t, the first n vectors;
- for j < k, A = E_jk - E_kj and A = i(E_jk + E_kj) on both diagonal
  blocks: with t, the first n^2 vectors span u(n), the Levi of the Siegel
  parabolic, whose quotient is the Hermitian symmetric space of type CI;
- for j <= k, B = S and B = iS with S = E_jk + E_kj (E_jj when j = k).

The basis is orthogonal for the trace form <X, Y> = Re tr(X* Y) =
-Re tr(XY), which is ad-invariant, so each bracket's coordinates are its
inner products with the basis over their norms; the script checks that
they reproduce the bracket exactly.  The trace form is the spec's
inner_product.  Each spec goes to tests/golden/sp<n>.json, holding the
algebra alone; the test adds the subalgebra.  Run it only to record a
deliberate change; the test never regenerates these files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def unit(entries):
    """The complex matrix with the given {(row, column): (re, im)} entries,
    held as such a dict of its nonzero entries."""
    return {rc: (Fraction(a), Fraction(b)) for rc, (a, b) in entries.items()
            if a or b}


def product(x, y):
    out = {}
    for (i, k), (a, b) in x.items():
        for (k2, j), (c, d) in y.items():
            if k == k2:
                re, im = out.get((i, j), (0, 0))
                out[i, j] = (re + a * c - b * d, im + a * d + b * c)
    return {rc: v for rc, v in out.items() if v != (0, 0)}


def combine(terms):
    """sum c * x over (c, x) in terms, c rational."""
    out = {}
    for c, x in terms:
        for rc, (a, b) in x.items():
            re, im = out.get(rc, (0, 0))
            out[rc] = (re + c * a, im + c * b)
    return {rc: v for rc, v in out.items() if v != (0, 0)}


def commutator(x, y):
    return combine([(1, product(x, y)), (-1, product(y, x))])


def pairing(x, y):
    """Re tr(x* y): the sum of re re' + im im' over the entries."""
    return sum(a * y[rc][0] + b * y[rc][1] for rc, (a, b) in x.items()
               if rc in y)


def sp_basis(n):
    basis = [unit({(j, j): (0, 1), (n + j, n + j): (0, -1)})
             for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            for re, im in ((1, 0), (0, 1)):
                # A = E_jk - E_kj, then A = i(E_jk + E_kj) and conj(A) = -A
                basis.append(unit({(j, k): (re, im), (k, j): (-re, im),
                                   (n + j, n + k): (re, -im),
                                   (n + k, n + j): (-re, -im)}))
    for j in range(n):
        for k in range(j, n):
            cells = {(j, k), (k, j)}
            # B = S: X = [[0, S], [-S, 0]]; B = iS: X = [[0, iS], [iS, 0]]
            basis.append(unit({**{(r, n + c): (1, 0) for r, c in cells},
                               **{(n + r, c): (-1, 0) for r, c in cells}}))
            basis.append(unit({**{(r, n + c): (0, 1) for r, c in cells},
                               **{(n + r, c): (0, 1) for r, c in cells}}))
    assert len(basis) == n * (2 * n + 1)
    return basis


def check_in_sp(n, x):
    """x* = -x and x^T J + J x = 0 for J = [[0, I], [-I, 0]]."""
    for (i, j), (a, b) in x.items():
        assert x.get((j, i)) == (-a, b), "not skew-Hermitian"
    omega = unit({**{(j, n + j): (1, 0) for j in range(n)},
                  **{(n + j, j): (-1, 0) for j in range(n)}})
    transpose = {(j, i): v for (i, j), v in x.items()}
    assert not combine([(1, product(transpose, omega)),
                        (1, product(omega, x))]), "not symplectic"


def sp_spec(n):
    basis = sp_basis(n)
    for x in basis:
        check_in_sp(n, x)
    norms = [pairing(x, x) for x in basis]
    assert all(pairing(x, y) == 0 for i, x in enumerate(basis)
               for y in basis[i + 1:]), "basis not orthogonal"
    table = []
    for x in basis:
        row = []
        for y in basis:
            z = commutator(x, y)
            coords = [pairing(z, e) / nrm for e, nrm in zip(basis, norms)]
            assert combine(zip(coords, basis)) == z, "bracket leaves sp(n)"
            row.append([str(c) for c in coords])
        table.append(row)
    inner = [[str(norms[i]) if i == j else "0" for j in range(len(basis))]
             for i in range(len(basis))]
    return {"algebra": {"table": table, "inner_product": inner}}


def main():
    for n in (2, 3):
        path = HERE / f"sp{n}.json"
        path.write_text(json.dumps(sp_spec(n)) + "\n")
        print(f"wrote {path.name}: dim {n * (2 * n + 1)}")


if __name__ == "__main__":
    main()
