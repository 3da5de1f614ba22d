"""Seeded inputs for the liecx benchmark.

Everything here is stdlib only and never imports liecx, so generating the
inputs costs the same whatever the program under test does, and the
generators double as independent oracles:

* catalog structure tables rebuilt from the documented matrix bases
  (su(n), so(n), sums), with the inner product -Killing;
* those tables rewritten in a random integer basis P ("dense" specs);
* sign-pattern complex structures on su(n)/t and friends, with the
  tournament rule that says which of them are integrable;
* Weyl-group orders |W| (Humphreys, GTM 9, section 10.3 and 12.1).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# exact linear algebra over Q (lists of Fractions)

def rref(rows):
    """Reduced row-echelon form of a list of Fraction rows: (rows, pivots)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def inverse(m):
    """Inverse of a square Fraction matrix, or None when it is singular."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def transpose(m):
    return [list(c) for c in zip(*m)]


# ---------------------------------------------------------------------------
# catalog algebras, rebuilt from the documented bases

def _su2_table():
    """e_k = -i sigma_k / 2, so [e_i, e_j] = eps_ijk e_k."""
    t = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        t[i][j][k] = Fraction(1)
        t[j][i][k] = Fraction(-1)
    return t


def _matrix_basis(kind, n):
    """Basis of su(n) (n >= 3) or so(n) as pairs (A, B) of integer matrices,
    meaning A + iB, in the catalog order."""
    def zero():
        return [[0] * n for _ in range(n)]
    basis = []
    for j in range(n):
        for k in range(j + 1, n):
            a = zero()
            a[j][k], a[k][j] = 1, -1
            basis.append((a, zero()))
            if kind == "su":
                b = zero()
                b[j][k] = b[k][j] = 1
                basis.append((zero(), b))
    if kind == "su":
        for j in range(n - 1):
            b = zero()
            b[j][j], b[j + 1][j + 1] = 1, -1
            basis.append((zero(), b))
    return basis


def _coords(kind, n, a, b):
    """Catalog coordinates of the skew-Hermitian matrix A + iB."""
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            out.append(Fraction(a[j][k]))
            if kind == "su":
                out.append(Fraction(b[j][k]))
    if kind == "su":
        acc = 0
        for j in range(n - 1):
            acc += b[j][j]
            out.append(Fraction(acc))
    return out


def _imul(x, y):
    n = len(x)
    return [[sum(x[i][l] * y[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)]


def _matrix_table(kind, n):
    basis = _matrix_basis(kind, n)
    table = []
    for a1, b1 in basis:
        row = []
        for a2, b2 in basis:
            # (A1 + iB1)(A2 + iB2) - (A2 + iB2)(A1 + iB1)
            re = [[p - q - r + s for p, q, r, s in zip(*rows)] for rows in zip(
                _imul(a1, a2), _imul(b1, b2), _imul(a2, a1), _imul(b2, b1))]
            im = [[p + q - r - s for p, q, r, s in zip(*rows)] for rows in zip(
                _imul(a1, b2), _imul(b1, a2), _imul(a2, b1), _imul(b2, a1))]
            row.append(_coords(kind, n, re, im))
        table.append(row)
    return table


def _torus_indices(kind, n):
    if kind == "su":
        return [2] if n == 2 else list(range(n * n - 1 - (n - 1), n * n - 1))
    idx, pos = [], 0
    for j in range(n):
        for k in range(j + 1, n):
            if j % 2 == 0 and k == j + 1:
                idx.append(pos)
            pos += 1
    return idx


def algebra_table(parts):
    """Structure table and maximal-torus indices of a direct sum of simple
    catalog algebras, given as [("su", 3), ("so", 5), ...]."""
    blocks = []
    for kind, n in parts:
        t = _su2_table() if (kind, n) == ("su", 2) else _matrix_table(kind, n)
        blocks.append((t, _torus_indices(kind, n)))
    d = sum(len(t) for t, _ in blocks)
    table = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    torus, off = [], 0
    for t, idx in blocks:
        k = len(t)
        for i in range(k):
            for j in range(k):
                table[off + i][off + j][off:off + k] = t[i][j]
        torus.extend(off + i for i in idx)
        off += k
    return table, torus


def minus_killing(table):
    """-kappa(e_i, e_j) = -tr(ad e_i ad e_j), the catalog inner product on a
    semisimple algebra."""
    d = len(table)
    return [[-sum(table[i][k][l] * table[j][l][k]
                  for k in range(d) for l in range(d))
             for j in range(d)] for i in range(d)]


# ---------------------------------------------------------------------------
# the same algebra in a random integer basis

def random_basis(rng, d):
    """A random invertible d x d integer matrix with entries in [-2, 2]."""
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
             for _ in range(d)]
        pinv = inverse(p)
        if pinv is not None:
            return p, pinv


def rotate(table, ip, torus, p, pinv):
    """Rewrite (table, inner product, torus) in the basis f_a = sum_i P_ia e_i:
    [f_a, f_b] in f coordinates, P^T B P, and the torus as P^-1 e_t."""
    d = len(table)
    # s[a][j] = [f_a, e_j] in e coordinates
    s = [[[sum(p[i][a] * table[i][j][k] for i in range(d) if p[i][a])
           for k in range(d)] for j in range(d)] for a in range(d)]
    new = []
    for a in range(d):
        row = []
        for b in range(d):
            e_vec = [sum(p[j][b] * s[a][j][k] for j in range(d) if p[j][b])
                     for k in range(d)]
            row.append([sum(pinv[c][k] * e_vec[k] for k in range(d))
                        for c in range(d)])
        new.append(row)
    new_ip = matmul(matmul(transpose(p), ip), p)
    tvecs = [[pinv[c][t] for c in range(d)] for t in torus]
    return new, new_ip, tvecs


def fmt(x):
    return str(Fraction(x))


def dense_spec(parts, rng):
    """Explicit {"table", "inner_product"} spec of a catalog algebra in a
    seeded random integer basis, with h the rotated maximal torus."""
    table, torus = algebra_table(parts)
    ip = minus_killing(table)
    p, pinv = random_basis(rng, len(table))
    new, new_ip, tvecs = rotate(table, ip, torus, p, pinv)
    return {"algebra": {"table": [[[fmt(x) for x in v] for v in row]
                                  for row in new],
                        "inner_product": [[fmt(x) for x in r]
                                          for r in new_ip]},
            "subalgebra": {"name": "span",
                           "vectors": [[fmt(x) for x in v] for v in tvecs]}}


# ---------------------------------------------------------------------------
# complex structures on quotient coordinates

def rotation_j(q, pairs):
    """J on q quotient coordinates with J e_a = e_b and J e_b = -e_a for each
    (a, b) in pairs, as a report-style matrix of rational strings."""
    m = [["0"] * q for _ in range(q)]
    for a, b in pairs:
        m[b][a], m[a][b] = "1", "-1"
    return m


def sign_pattern_j(signs):
    """J e_2p = s_p e_2p+1 on the consecutive root-plane pairs of the
    quotient coordinates."""
    return rotation_j(2 * len(signs), [(2 * k, 2 * k + 1) if s > 0 else
                                       (2 * k + 1, 2 * k)
                                       for k, s in enumerate(signs)])


def sign_patterns(planes):
    return list(itertools.product((1, -1), repeat=planes))


def su_t_integrable(n, signs):
    """On su(n)/t the plane of the pair j < k carries the roots +-(e_j - e_k);
    a sign pattern orients every such edge, and J is integrable exactly when
    the chosen roots are closed under addition, i.e. the tournament is
    acyclic."""
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    wins = [0] * n
    for (j, k), s in zip(pairs, signs, strict=True):
        wins[j if s > 0 else k] += 1
    # a tournament is transitive iff its score sequence is 0, 1, ..., n-1
    return sorted(wins) == list(range(n))


# su(2)+su(2)/0: J(e1,0) = (e2,0), J(0,e1) = (0,e2), J(e3,0) = (0,e3)
CALABI_ECKMANN_J = rotation_j(6, [(0, 1), (3, 4), (2, 5)])
# the non-integrable control J(x, y) = (-y, x)
SWAP_J = rotation_j(6, [(0, 3), (1, 4), (2, 5)])


def j_squared_is_minus_identity(j):
    """J^2 = -I, checked in Fractions on a report matrix."""
    m = [[Fraction(x) for x in row] for row in j]
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    sq = matmul(m, m)
    return all(sq[i][k] == (-1 if i == k else 0)
               for i in range(n) for k in range(n))


# ---------------------------------------------------------------------------
# Weyl-group orders

def weyl_order(kind, n):
    """|W| of a compact simple algebra (or a torus, where W is trivial)."""
    if kind == "su":
        return math.factorial(n)
    if kind == "so" and n % 2:
        k = n // 2
        return 2 ** k * math.factorial(k)
    if kind == "so":
        k = n // 2
        return 2 ** (k - 1) * math.factorial(k)
    if kind == "torus":
        return 1
    raise ValueError(f"no Weyl group for {kind}({n})")


def weyl_order_of_sum(parts):
    return math.prod(weyl_order(kind, n) for kind, n in parts)
