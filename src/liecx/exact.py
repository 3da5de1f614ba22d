"""Exact linear algebra over the rationals and Gaussian rationals.

`GQ`, a Gaussian rational a + b*i with a, b in lowest terms as
fractions.Fraction, is the type of every scalar that crosses a function
boundary.  Inside, elimination (`rref`, and through it `kernel`, `solve`
and `inverse`), `Subspace.reduce` and matrix products run on rows of
Gaussian integers over a common denominator (`int_entries` and
`int_vectors` convert; `from_ints` converts back, one Fraction per nonzero
part).  Everything here is pure and deterministic: re-running any operation
yields bit-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class ExactError(Exception):
    pass


class DimensionMismatch(ExactError):
    pass


class AmbientMismatch(ExactError):
    pass


class IrrationalSpectrum(ExactError):
    pass


def parse_rational(s):
    """Parse what fractions.Fraction parses, given as str(s), into a
    Fraction; "1/0" and other malformed literals raise ExactError."""
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ExactError(f"bad rational literal {s!r}: {e}") from None


def format_rational(x: Fraction) -> str:
    return str(x)


class GQ:
    """Gaussian rational a + b*i."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fractions are immutable: share them instead of copying
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def coerce(x):
        if isinstance(x, GQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GQ(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GQ")

    def __add__(self, o):
        o = GQ.coerce(o)
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def __sub__(self, o):
        o = GQ.coerce(o)
        return GQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return GQ.coerce(o) - self

    def __mul__(self, o):
        o = GQ.coerce(o)
        if not (self.im or o.im):  # skip the products with a zero factor
            return GQ(self.re * o.re)
        return GQ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = GQ.coerce(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * o.re + self.im * o.im) / d,
                  (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, o):
        return GQ.coerce(o) / self

    def conjugate(self):
        return GQ(self.re, -self.im)

    def is_zero(self):
        return not (self.re or self.im)

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            return self.re == o and self.im == 0
        if not isinstance(o, GQ):
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*i"

    def sort_key(self):
        return (self.re, self.im)


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)
_F0 = ZERO.re


# ---------------------------------------------------------------------------
# Gaussian-integer rows: the one conversion from GQ vectors and back

def int_entries(v):
    """(D, [(i, D re v_i, D im v_i) for the nonzero v_i]) with D the least
    common denominator of v's entries."""
    nonzero = [(i, x.re, x.im) for i, x in enumerate(v) if x is not ZERO and x]
    den = 1
    for _, a, b in nonzero:
        if a.denominator != 1 or b.denominator != 1:
            den = lcm(den, a.denominator, b.denominator)
    if den == 1:
        return 1, [(i, a.numerator, b.numerator) for i, a, b in nonzero]
    return den, [(i, a.numerator * (den // a.denominator),
                  b.numerator * (den // b.denominator)) for i, a, b in nonzero]


def int_vectors(vectors):
    """(D, entries): int_entries of every vector over one common
    denominator D, the least common multiple of theirs."""
    conv = [int_entries(v) for v in vectors]
    den = lcm(*(d for d, _ in conv))
    return den, [e if d == den else
                 [(i, a * (den // d), b * (den // d)) for i, a, b in e]
                 for d, e in conv]


def _dense(n, entries):
    """Sparse (i, re, im) rows as dense integer rows (re, im); im is None
    when every entry is real."""
    re, im = [], []
    for e in entries:
        r, m = [0] * n, [0] * n
        for i, a, b in e:
            r[i], m[i] = a, b
        re.append(r)
        im.append(m)
    return re, (im if any(b for e in entries for _, _, b in e) else None)


def from_ints(re, im, den):
    """The GQ vector (re + i*im) / den of integer lists (im may be None);
    zeros are the shared ZERO."""
    if im is None:
        im = (0,) * len(re)
    if den == 1:
        return tuple(GQ(r, m) if r or m else ZERO for r, m in zip(re, im))
    return tuple(GQ(Fraction(r, den), Fraction(m, den) if m else _F0)
                 if r or m else ZERO for r, m in zip(re, im))


def _combine(n, coeffs, re_rows, im_rows):
    """sum (a + b i)(re_k + i im_k) over the coefficients (k, a, b), as
    integer lists (re, im); im_rows is None for real rows."""
    re, im = [0] * n, [0] * n
    for k, a, b in coeffs:
        xr = re_rows[k]
        xi = im_rows[k] if im_rows else None
        if a:
            re = [s + a * x for s, x in zip(re, xr)]
            if xi:
                im = [s + a * x for s, x in zip(im, xi)]
        if b:
            im = [s + b * x for s, x in zip(im, xr)]
            if xi:
                re = [s - b * x for s, x in zip(re, xi)]
    return re, im


# ---------------------------------------------------------------------------
# vectors: plain tuples of GQ

def vec(entries):
    return tuple(GQ.coerce(x) for x in entries)


def vzero(n):
    return (ZERO,) * n


def vunit(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(a, b):
    return tuple(x + y if y else x for x, y in zip(a, b, strict=True))


def vsub(a, b):
    return tuple(x - y if y else x for x, y in zip(a, b, strict=True))


def vneg(a):
    return tuple(-x for x in a)


def vscale(c, a):
    c = GQ.coerce(c)
    return tuple(c * x if x else x for x in a)


def vconj(a):
    return tuple(x.conjugate() for x in a)


def lincomb(n, coeffs, vectors):
    """sum_k coeffs[k] * vectors[k], a vector of length n."""
    dc, cs = int_entries(coeffs)
    den, entries = int_vectors([vectors[k] for k, _, _ in cs])
    re, im = _dense(n, entries)
    return from_ints(*_combine(
        n, [(j, a, b) for j, (_, a, b) in enumerate(cs)], re, im), dc * den)


def is_zero_vec(a):
    return all(x.is_zero() for x in a)


def is_real_vec(a):
    return all(x.im == 0 for x in a)


class Matrix:
    """Dense matrix of Gaussian rationals; dimensions fixed at construction."""

    __slots__ = ("rows", "nrows", "ncols", "_ints", "_columns")

    def __init__(self, rows):
        self._ints = self._columns = None
        self.rows = tuple(vec(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([vunit(n, i) for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        if r == 0:
            m = cls([])
            m.ncols = c
            return m
        return cls([vzero(c) for _ in range(r)])

    @classmethod
    def from_columns(cls, cols):
        return cls(cols).transpose()

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def column(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        t = Matrix([self.column(j) for j in range(self.ncols)])
        t.ncols = self.nrows  # an n x 0 matrix turns into a 0 x n one
        return t

    def __add__(self, o):
        return Matrix([vadd(a, b) for a, b in zip(self.rows, o.rows, strict=True)])

    def __sub__(self, o):
        return Matrix([vsub(a, b) for a, b in zip(self.rows, o.rows, strict=True)])

    def __neg__(self):
        return Matrix([vneg(r) for r in self.rows])

    def scale(self, c):
        return Matrix([vscale(c, r) for r in self.rows])

    def _integer_rows(self):
        """(D, re, im): the rows as dense integer lists over their least
        common denominator D (im is None for a real matrix); built once."""
        if self._ints is None:
            den, entries = int_vectors(self.rows)
            self._ints = (den, *_dense(self.ncols, entries))
        return self._ints

    def __mul__(self, o):
        if isinstance(o, Matrix):
            if self.ncols != o.nrows:
                raise DimensionMismatch(f"{self.ncols} != {o.nrows}")
            # row i of the product combines o's rows with row i's entries
            den, re, im = o._integer_rows()
            out = []
            for r in self.rows:
                d, cs = int_entries(r)
                out.append(from_ints(*_combine(o.ncols, cs, re, im), d * den))
            product = Matrix(out)
            product.ncols = o.ncols
            return product
        return NotImplemented

    def matvec(self, v):
        if len(v) != self.ncols:
            raise DimensionMismatch(f"matvec: {len(v)} != {self.ncols}")
        # m v combines m's columns with v's entries
        if self._columns is None:
            self._columns = self.transpose()
        den, re, im = self._columns._integer_rows()
        d, cs = int_entries(v)
        return from_ints(*_combine(self.nrows, cs, re, im), d * den)

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionMismatch("trace of non-square matrix")
        s = ZERO
        for i in range(self.nrows):
            s = s + self.rows[i][i]
        return s

    def conjugate(self):
        return Matrix([vconj(r) for r in self.rows])

    def is_zero(self):
        return all(is_zero_vec(r) for r in self.rows)

    def is_real(self):
        return all(is_real_vec(r) for r in self.rows)

    def flatten(self):
        return tuple(x for r in self.rows for x in r)

    def __eq__(self, o):
        if not isinstance(o, Matrix):
            return NotImplemented
        return self.rows == o.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(str(list(r)) for r in self.rows) + "])"


def rref(m: Matrix):
    """Reduced row-echelon form.  Returns (rref matrix with zero rows dropped,
    pivot column tuple, rank).

    Each row is eliminated as a row of Gaussian integers (its scale does not
    matter): the pivot p is removed from another row by cross-multiplication
    with a real factor, row <- |p|^2 row - (c conj(p)) pivot_row (p row -
    c pivot_row when p is real), and a changed row is divided by the gcd of
    its entries.  Each pivot row is divided by its pivot at the end."""
    nr, nc = m.nrows, m.ncols
    re, im = _dense(nc, [int_entries(r)[1] for r in m.rows])
    pivots = []
    pr = 0
    for pc in range(nc):
        pr_row = next((r for r in range(pr, nr)
                       if re[r][pc] or (im and im[r][pc])), None)
        if pr_row is None:
            continue
        re[pr], re[pr_row] = re[pr_row], re[pr]
        if im:
            im[pr], im[pr_row] = im[pr_row], im[pr]
        _eliminate(re, im, pr, pc)
        pivots.append(pc)
        pr += 1
        if pr == nr:
            break
    rows = []
    for r, pc in enumerate(pivots):
        # (x + y i) / (a + b i) = ((x a + y b) + (y a - x b) i) / (a^2 + b^2)
        a, b = re[r][pc], (im[r][pc] if im else 0)
        if not b:
            rows.append(from_ints(re[r], im[r] if im else None, a))
            continue
        rows.append(from_ints([x * a + y * b for x, y in zip(re[r], im[r])],
                              [y * a - x * b for x, y in zip(re[r], im[r])],
                              a * a + b * b))
    return Matrix(rows) if pr else Matrix.zeros(0, nc), tuple(pivots), pr


def _eliminate(re, im, pr, pc):
    """Clear column pc of every row but pr by cross-multiplication with the
    pivot row pr, in place; im is None when every row is real.

    A Gaussian pivot p = a + b i is cleared with its real norm, row <-
    (a^2 + b^2) row - (c conj(p)) pivot_row: multiplying by p itself leaves
    Gaussian common factors that the integer gcd cannot remove, and the bit
    size then doubles with every pivot."""
    a = re[pr][pc]
    b = im[pr][pc] if im else 0
    pre = re[pr]
    pim = im[pr] if im else None
    for r in range(len(re)):
        if r == pr:
            continue
        cr = re[r][pc]
        ci = im[r][pc] if im else 0
        if not (cr or ci):
            continue
        xr = re[r]
        if pim is None:  # real rows
            row = [a * x - cr * y for x, y in zip(xr, pre)]
            g = gcd(*row)
            re[r] = [x // g for x in row] if g > 1 else row
            continue
        xi = im[r]
        # n (xr + xi i) - (er + ei i)(pre + pim i) with (n, er + ei i) =
        # (|p|^2, c conj(p)), or (a, c) for a real pivot: column pc becomes
        # |p|^2 c - c conj(p) p = 0
        if b:
            n, er, ei = a * a + b * b, cr * a + ci * b, ci * a - cr * b
        else:
            n, er, ei = a, cr, ci
        nre = [n * x - er * u + ei * w for x, u, w in zip(xr, pre, pim)]
        nim = [n * y - er * w - ei * u for y, u, w in zip(xi, pre, pim)]
        g = gcd(*nre, *nim)
        if g > 1:
            nre = [x // g for x in nre]
            nim = [x // g for x in nim]
        re[r], im[r] = nre, nim


def kernel(m: Matrix) -> "Subspace":
    """Full solution space of m x = 0 as a canonical subspace of dim ncols."""
    red, pivots, rank = rref(m)
    nc = m.ncols
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * nc
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(v)
    return Subspace.from_vectors(nc, basis)


def solve(m: Matrix, b):
    """One exact solution of m x = b (free variables set to 0), or None."""
    aug = Matrix([list(r) + [bv] for r, bv in zip(m.rows, b, strict=True)])
    red, pivots, rank = rref(aug)
    if m.ncols in pivots:
        return None
    x = [ZERO] * m.ncols
    for r, p in enumerate(pivots):
        x[p] = red[r, m.ncols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of non-square matrix")
    n = m.nrows
    aug = Matrix([list(m.rows[i]) + list(vunit(n, i)) for i in range(n)])
    red, pivots, rank = rref(aug)
    if rank < n or pivots[:n] != tuple(range(n)):
        raise ExactError("matrix is singular")
    return Matrix([r[n:] for r in red.rows])


class Subspace:
    """A subspace held as a reduced row-echelon basis; equality is syntactic.

    The RREF basis is the canonical representative, so two subspaces are
    equal iff their basis matrices are identical.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis: Matrix, pivots):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        vectors = list(vectors)
        if not vectors:
            return cls(ambient_dim, Matrix.zeros(0, ambient_dim), ())
        for v in vectors:
            if len(v) != ambient_dim:
                raise AmbientMismatch(f"vector of length {len(v)} in ambient {ambient_dim}")
        red, pivots, rank = rref(Matrix(vectors))
        return cls(ambient_dim, red, pivots)

    @classmethod
    def zero(cls, ambient_dim):
        return cls.from_vectors(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim):
        return cls.from_vectors(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def dim(self):
        return self.basis.nrows

    def basis_vectors(self):
        return self.basis.rows

    def reduce(self, v):
        """Residual of v after eliminating the pivot coordinates; zero iff v is a member."""
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"{len(v)} != {self.ambient_dim}")
        # the basis is in RREF, so the residual is v - sum_k v[p_k] b_k
        dv, vs = int_entries(v)
        at = {i: (a, b) for i, a, b in vs}
        cs = [(k, -at[p][0], -at[p][1])
              for k, p in enumerate(self.pivots) if p in at]
        if not cs:
            return tuple(v)
        den, re, im = self.basis._integer_rows()
        sr, si = _combine(self.ambient_dim, cs, re, im)
        for i, a, b in vs:
            sr[i] += den * a
            si[i] += den * b
        return from_ints(sr, si, dv * den)

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other):
        return all(self.contains(b) for b in other.basis_vectors())

    def coords(self, v):
        """Coordinates of a member vector in the RREF basis (its pivot entries)."""
        if not self.contains(v):
            raise ExactError("vector not in subspace")
        return tuple(v[p] for p in self.pivots)

    def add(self, other):
        self._check(other)
        return Subspace.from_vectors(
            self.ambient_dim, list(self.basis.rows) + list(other.basis.rows))

    def intersect(self, other):
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # x = A^T a = B^T b  <=>  (A^T | -B^T)(a;b) = 0
        at = self.basis.transpose()
        bt = other.basis.transpose()
        stacked = Matrix([list(ar) + list(vneg(br))
                          for ar, br in zip(at.rows, bt.rows)])
        return Subspace.from_vectors(self.ambient_dim, [
            lincomb(self.ambient_dim, k[:self.dim], self.basis.rows)
            for k in kernel(stacked).basis_vectors()])

    def complement(self):
        """The coordinate subspace spanned by the non-pivot axes."""
        axes = [vunit(self.ambient_dim, c)
                for c in range(self.ambient_dim) if c not in self.pivots]
        return Subspace.from_vectors(self.ambient_dim, axes)

    def conjugate(self):
        return Subspace.from_vectors(
            self.ambient_dim, [vconj(b) for b in self.basis_vectors()])

    def is_real(self):
        return self.basis.is_real()

    def _check(self, other):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch(f"{self.ambient_dim} != {other.ambient_dim}")

    def __eq__(self, o):
        if not isinstance(o, Subspace):
            return NotImplemented
        return self.ambient_dim == o.ambient_dim and self.basis == o.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def span_sum(ambient_dim, subspaces):
    vecs = []
    for s in subspaces:
        vecs.extend(s.basis_vectors())
    return Subspace.from_vectors(ambient_dim, vecs)


def relative_complement(outer: Subspace, inner: Subspace) -> Subspace:
    """Deterministic complement of inner within outer, spanned by the first
    outer basis rows that extend inner's span."""
    if not outer.contains_subspace(inner):
        raise ExactError("inner is not contained in outer")
    chosen = []
    cur_space = inner
    for row in outer.basis_vectors():
        if not cur_space.contains(row):
            chosen.append(row)
            cur_space = cur_space.add(Subspace.from_vectors(outer.ambient_dim, [row]))
    return Subspace.from_vectors(outer.ambient_dim, chosen)


# ---------------------------------------------------------------------------
# the real points of a complex span

def real_points(s: Subspace) -> Subspace:
    """The rational subspace of real vectors contained in the complex span s."""
    w = s.intersect(s.conjugate())
    vecs = []
    for b in w.basis_vectors():
        vecs.append(vadd(b, vconj(b)))
        ib = vscale(I, b)
        vecs.append(vadd(ib, vconj(ib)))
    out = Subspace.from_vectors(s.ambient_dim, vecs)
    if not out.is_real():
        raise ExactError("real_points produced a non-real basis")  # pragma: no cover
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial and rational eigenvalues

def charpoly(m: Matrix):
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of
    det(x I - m), by the Faddeev-LeVerrier recursion (exact)."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("charpoly of non-square matrix")
    n = m.nrows
    coeffs = [ONE]
    nmat = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m * nmat
        ck = -(mk.trace() / GQ(k))
        coeffs.append(ck)
        nmat = mk + Matrix.identity(n).scale(ck)
    return coeffs


def _primitive(coeffs):
    """The primitive integer polynomial that is a positive multiple of coeffs
    (rationals, highest degree first, not all zero)."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def _remainder(a, b):
    """A positive multiple of the remainder of a by b, both integer
    polynomials, as a primitive integer polynomial ([] when b divides a)."""
    lead = abs(b[0])
    sign = 1 if b[0] > 0 else -1
    a = list(a)
    while len(a) >= len(b):
        f = sign * a[0]
        a = [lead * x - f * y for x, y in
             zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
        while a and not a[0]:
            a.pop(0)
    return _primitive(a) if a else []


def _quotient(a, b):
    """a / b for integer polynomials where b divides a, made primitive."""
    a = [Fraction(x) for x in a]
    out = []
    while len(a) >= len(b):
        f = a[0] / b[0]
        out.append(f)
        a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * (len(a) - len(b)))]
    return _primitive(out)


def _derivative(p):
    n = len(p) - 1
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _sturm_chain(p):
    """Sturm sequence p, p', -rem(p, p'), ... of a square-free integer
    polynomial, each term a primitive integer polynomial."""
    chain = [p, _primitive(_derivative(p))]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    return chain


def _variations(chain, x):
    """Sign changes along the chain evaluated at the integer x, zeros dropped."""
    count, last = 0, 0
    for p in chain:
        v = 0
        for c in p:
            v = v * x + c
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def _integer_root_candidates(p):
    """Every integer root of the monic integer polynomial p, and possibly
    more: the right end hi of each interval (hi - 1, hi] that holds a real
    root.  Sturm's theorem counts the distinct real roots in (lo, hi] as
    V(lo) - V(hi) for the chain of the square-free part, so intervals are
    bisected from a root bound down to width 1 without factoring any
    coefficient (Collins and Loos, "Real zeros of polynomials", 1982)."""
    sqf = p
    if len(p) > 2:
        d, r = p, _primitive(_derivative(p))
        while r:
            d, r = r, _remainder(d, r)
        if len(d) > 1:
            sqf = _quotient(p, d)
    chain = _sturm_chain(sqf)
    # Fujiwara: every root has |y| <= 2 max_k |c_k|^(1/k) < bound
    bound = 2 ** (1 + max(-(-abs(c).bit_length() // k)
                          for k, c in enumerate(p[1:], 1)))
    out = []
    stack = [(-bound, _variations(chain, -bound), bound, _variations(chain, bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            out.append(hi)
            continue
        mid = (lo + hi) // 2
        vmid = _variations(chain, mid)
        stack.append((lo, vlo, mid, vmid))
        stack.append((mid, vmid, hi, vhi))
    return out


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _synthetic_div(coeffs, root):
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + out[-1] * root)
    assert out[-1] == 0
    return out[:-1]


def rational_eigenvalues(m: Matrix):
    """All eigenvalues of m, with multiplicity, as exact rationals.

    The characteristic polynomial must have rational coefficients and split
    over Q; otherwise IrrationalSpectrum is raised.  Entries may be Gaussian
    rationals (the use case is i * ad(h) acting on a complexified algebra).
    """
    n = m.nrows
    cg = charpoly(m)
    if any(c.im != 0 for c in cg):
        raise IrrationalSpectrum("characteristic polynomial is not rational")
    coeffs = [c.re for c in cg]
    roots = []
    # zero eigenvalues: strip trailing zero coefficients
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
        roots.append(Fraction(0))
    if len(coeffs) > 1:
        # a root p/q of a0 x^n + ... + an has q | a0, so y = a0 x turns it
        # into an integer root of the monic y^n + a1 y^(n-1) + ... + an a0^(n-1)
        ints = _primitive(coeffs)
        a0 = ints[0]
        monic = [1] + [c * a0 ** k for k, c in enumerate(ints[1:])]
        cands = {Fraction(y, a0) for y in _integer_root_candidates(monic)}
        fr = [Fraction(c) for c in coeffs]
        for cand in sorted(cands):
            while len(fr) > 1 and _poly_eval(fr, cand) == 0:
                roots.append(cand)
                fr = _synthetic_div(fr, cand)
        if len(fr) > 1:
            raise IrrationalSpectrum(
                f"only {len(roots)} of {n} eigenvalues are rational")
    return sorted(roots)
