"""Exact linear algebra over the rationals and Gaussian rationals.

A vector is a `Vec`: one immutable value (re + i im) / den, with re and im
tuples of integers (im None when every entry is real) over one positive
denominator.  It is stored reduced, the gcd of den and every part being 1,
so equal vectors have equal fields: == and hash are exact and cheap, and
`Subspace` equality stays syntactic.  A `Matrix` is a tuple of Vec rows.
Elimination (`rref`, and through it `kernel`, `solve` and `inverse`),
`Subspace.reduce`, the products, `lincomb` and `charpoly` run on the
integer parts and never build a Fraction.

`GQ`, a Gaussian rational a + b*i with Fraction parts, is the scalar at the
boundary: the public constructors accept sequences of GQ, int or Fraction,
and indexing or iterating a Vec yields GQ.  A scalar argument (`vscale`,
`Matrix.scale`) may be a GQ, an int, a Fraction or a Vec of length 1.
Everything here is pure and deterministic: re-running any operation yields
bit-identical output.
"""

from __future__ import annotations

import sys
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
    Fraction; "1/0" and other malformed literals raise ExactError, and so
    does a decimal exponent beyond the bound the interpreter puts on the
    digits of an integer literal, before Fraction builds 10**exp."""
    text = str(s)
    _, mark, exp = text.lower().partition("e")
    try:
        if mark and abs(int(exp)) > sys.int_info.default_max_str_digits:
            raise ValueError("decimal exponent out of range")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ExactError(f"bad rational literal {s!r}: {e}") from None


def parse_vector(literals):
    """The Vec of rational literals, each read by parse_rational."""
    parts = [parse_rational(s) for s in literals]
    den = lcm(*(x.denominator for x in parts))
    return ivec([x.numerator * (den // x.denominator) for x in parts],
                None, den)


class GQ:
    """Gaussian rational a + b*i, the boundary scalar; arithmetic runs on
    Vec."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fractions are immutable: share them instead of copying
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

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
        return f"{self.re}" if not self.im else f"({self.re})+({self.im})*i"


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)


# ---------------------------------------------------------------------------
# vectors

class Vec:
    """An immutable vector (re + i im) / den of Gaussian rationals, reduced."""

    __slots__ = ("re", "im", "den")

    def __len__(self):
        return len(self.re)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ivec(self.re[k], self.im[k] if self.im else None, self.den)
        return GQ(Fraction(self.re[k], self.den),
                  Fraction(self.im[k] if self.im else 0, self.den))

    def __eq__(self, o):
        if type(o) is Vec:
            return self.den == o.den and self.re == o.re and self.im == o.im
        if isinstance(o, (tuple, list)):
            raise TypeError("compare a Vec with a Vec, not a sequence")
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im, self.den))

    def __repr__(self):
        return f"vec({list(self)!r})"


def ivec(re, im=None, den=1):
    """The reduced Vec (re + i im) / den of integer sequences, den != 0 (im
    None when real)."""
    if im is not None and not any(im):
        im = None
    g = gcd(den, *re, *im) if im else gcd(den, *re)
    if den < 0:
        g = -g
    if g != 1:
        re = [x // g for x in re]
        if im:
            im = [x // g for x in im]
        den //= g
    v = Vec.__new__(Vec)
    v.re, v.im, v.den = tuple(re), (tuple(im) if im else None), den
    return v


def vec(entries):
    """The Vec of a sequence of GQ, int or Fraction (a Vec as it is)."""
    if type(entries) is Vec:
        return entries
    parts = []
    for x in entries:
        if isinstance(x, GQ):
            parts.append((x.re.numerator, x.re.denominator,
                          x.im.numerator, x.im.denominator))
        elif isinstance(x, (int, Fraction)):
            parts.append((x.numerator, x.denominator, 0, 1))
        else:
            raise TypeError(
                f"cannot read {type(x).__name__} as a Gaussian rational")
    den = lcm(*(p[1] for p in parts), *(p[3] for p in parts))
    return ivec([a * (den // b) for a, b, _, _ in parts],
                [c * (den // d) for _, _, c, d in parts], den)


def nonzero_terms(v):
    """(k, re_k, im_k) for the nonzero entries of v, integers over v.den."""
    if v.im is None:
        return [(k, a, 0) for k, a in enumerate(v.re) if a]
    return [(k, a, b) for k, (a, b) in enumerate(zip(v.re, v.im)) if a or b]


def _over(vectors):
    """(D, re rows, im rows): the vectors as integer rows over their least
    common denominator D; im rows is None when every vector is real."""
    den = lcm(*(v.den for v in vectors))
    re = [v.re if v.den == den else [x * (den // v.den) for x in v.re]
          for v in vectors]
    if all(v.im is None for v in vectors):
        return den, re, None
    im = [(v.im if v.den == den else [x * (den // v.den) for x in v.im])
          if v.im else (0,) * len(v.re) for v in vectors]
    return den, re, im


def combine(n, coeffs, re_rows, im_rows):
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


def vzero(n):
    return ivec((0,) * n)


def vunit(n, i):
    return ivec([int(j == i) for j in range(n)])


def vadd(a, b):
    a, b = vec(a), vec(b)
    if len(a) != len(b):
        raise ValueError("vectors of different lengths")
    den, re, im = _over([a, b])
    return ivec([x + y for x, y in zip(*re)],
                im and [x + y for x, y in zip(*im)], den)


def vsub(a, b):
    return vadd(a, vneg(b))


def vneg(a):
    a = vec(a)
    return ivec([-x for x in a.re], a.im and [-x for x in a.im], a.den)


def vscale(c, a):
    a, c = vec(a), (c if type(c) is Vec else vec([c]))
    cr, ci, cd = c.re[0], (c.im[0] if c.im else 0), c.den
    ai = a.im or (0,) * len(a)
    return ivec([cr * x - ci * y for x, y in zip(a.re, ai)],
               [cr * y + ci * x for x, y in zip(a.re, ai)], cd * a.den)


def vconj(a):
    a = vec(a)
    return ivec(a.re, a.im and [-x for x in a.im], a.den)


def vcat(vectors):
    """The concatenation of the vectors, one Vec."""
    vs = [vec(v) for v in vectors]
    den, re, im = _over(vs)
    return ivec([x for r in re for x in r],
               im and [x for r in im for x in r], den)


def take(v, idx):
    """The entries of v at the indices idx, in that order."""
    return ivec([v.re[i] for i in idx], v.im and [v.im[i] for i in idx], v.den)


def lincomb(n, coeffs, vectors):
    """sum_k coeffs[k] * vectors[k], a vector of length n."""
    c = vec(coeffs)
    cs = nonzero_terms(c)
    den, re, im = _over([vec(vectors[k]) for k, _, _ in cs])
    return ivec(*combine(n, [(j, a, b) for j, (_, a, b) in enumerate(cs)],
                         re, im), c.den * den)


def is_zero_vec(a):
    a = vec(a)
    return a.im is None and not any(a.re)


def entry_strings(v):
    """(re, im): the entries of v as reduced "p/q" or "p" strings, im None
    when v is real; what str(Fraction) writes."""
    def fmt(x):
        g = gcd(x, v.den)
        return str(x // g) if g == v.den else f"{x // g}/{v.den // g}"
    return [fmt(x) for x in v.re], (v.im and [fmt(x) for x in v.im])


class Matrix:
    """Dense matrix of Gaussian rationals, a tuple of Vec rows; dimensions
    fixed at construction."""

    __slots__ = ("rows", "nrows", "ncols", "_ints", "_cols")

    def __init__(self, rows, ncols=0):
        self._ints = self._cols = None
        self.rows = tuple(vec(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionMismatch("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([vunit(n, i) for i in range(n)])

    @classmethod
    def zeros(cls, r, c):
        return cls([vzero(c)] * r, c)

    @classmethod
    def from_columns(cls, cols):
        return cls(cols).transpose()

    def integer_rows(self):
        """(D, re, im): the rows as integer rows over their least common
        denominator D (im is None for a real matrix); built once."""
        if self._ints is None:
            self._ints = _over(self.rows)
        return self._ints

    def transpose(self):
        if not self.rows:
            return Matrix([vzero(0)] * self.ncols)
        den, re, im = self.integer_rows()
        if im is None:
            return Matrix([ivec(c, None, den) for c in zip(*re)], self.nrows)
        return Matrix([ivec(c, d, den) for c, d in zip(zip(*re), zip(*im))],
                      self.nrows)

    def __add__(self, o):
        return Matrix([vadd(a, b) for a, b in zip(self.rows, o.rows,
                                                  strict=True)], self.ncols)

    def __sub__(self, o):
        return self + -o

    def __neg__(self):
        return Matrix([vneg(r) for r in self.rows], self.ncols)

    def scale(self, c):
        return Matrix([vscale(c, r) for r in self.rows], self.ncols)

    def __mul__(self, o):
        if isinstance(o, Matrix):
            if self.ncols != o.nrows:
                raise DimensionMismatch(f"{self.ncols} != {o.nrows}")
            # row i of the product combines o's rows with row i's entries
            den, re, im = o.integer_rows()
            return Matrix([ivec(*combine(o.ncols, nonzero_terms(r), re, im),
                               r.den * den) for r in self.rows], o.ncols)
        return NotImplemented

    def matvec(self, v):
        v = vec(v)
        if len(v) != self.ncols:
            raise DimensionMismatch(f"matvec: {len(v)} != {self.ncols}")
        # m v combines m's columns with v's entries
        if self._cols is None:
            self._cols = self.transpose().integer_rows()
        den, re, im = self._cols
        return ivec(*combine(self.nrows, nonzero_terms(v), re, im),
                    den * v.den)

    def is_zero(self):
        return all(is_zero_vec(r) for r in self.rows)

    def is_real(self):
        return all(r.im is None for r in self.rows)

    def flatten(self):
        return vcat(self.rows)

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
    re = [list(r.re) for r in m.rows]
    im = [list(r.im) if r.im else [0] * nc for r in m.rows] \
        if any(r.im for r in m.rows) else None
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
            rows.append(ivec(re[r], im[r] if im else None, a))
            continue
        rows.append(ivec([x * a + y * b for x, y in zip(re[r], im[r])],
                        [y * a - x * b for x, y in zip(re[r], im[r])],
                        a * a + b * b))
    return Matrix(rows, nc), tuple(pivots), pr


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
    """Full solution space of m x = 0 as a canonical subspace of dim ncols:
    one elimination of m with its columns reversed, whose free column f
    gives a null vector that leads with 1 at nc - 1 - f and is zero on the
    other free columns, so these vectors, last f first, are in RREF."""
    nc = m.ncols
    red, pivots, _ = rref(Matrix([r[::-1] for r in m.rows], nc))
    den, re, im = red.integer_rows()
    free = [f for f in reversed(range(nc)) if f not in pivots]
    basis = []
    for f in free:
        # x_f = 1 and x_p = -red[r, f] for the pivot p of row r, over den
        xr, xi = [0] * nc, [0] * nc
        xr[f] = den
        for r, p in enumerate(pivots):
            xr[p], xi[p] = -re[r][f], (-im[r][f] if im else 0)
        basis.append(ivec(xr[::-1], xi[::-1], den))
    return Subspace(nc, Matrix(basis, nc), [nc - 1 - f for f in free])


def kernel_span(m: Matrix, space: "Subspace") -> "Subspace":
    """The vectors sum_k c_k b_k with m c = 0, b the RREF basis of space.
    b has the unit vectors on its pivot columns, so it maps the kernel's
    RREF basis to an RREF basis led at b's pivots: no elimination is left."""
    k = kernel(m)
    return Subspace(space.ambient_dim, k.basis * space.basis,
                    [space.pivots[c] for c in k.pivots])


def kernel_of(space: "Subspace", f) -> "Subspace":
    """The x in space with f(x) = 0, f linear on vectors: one kernel_span of
    the columns f(b) over space's RREF basis b."""
    if not space.dim:
        return space
    return kernel_span(Matrix.from_columns(
        [f(b) for b in space.basis_vectors()]), space)


def solve(m: Matrix, b):
    """One exact solution of m x = b (free variables set to 0), or None."""
    b = vec(b)
    if len(b) != m.nrows:
        raise DimensionMismatch(f"solve: {len(b)} != {m.nrows}")
    red, pivots, rank = rref(Matrix([vcat((r, b[k:k + 1]))
                                     for k, r in enumerate(m.rows)]))
    if m.ncols in pivots:
        return None
    # x_p is the last entry of the row whose pivot is p
    return lincomb(m.ncols, vcat([r[-1:] for r in red.rows]),
                   [vunit(m.ncols, p) for p in pivots])


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise DimensionMismatch("inverse of non-square matrix")
    n = m.nrows
    aug = Matrix([vcat((m.rows[i], vunit(n, i))) for i in range(n)])
    red, pivots, rank = rref(aug)
    if rank < n or pivots[:n] != tuple(range(n)):
        raise ExactError("matrix is singular")
    return Matrix([r[n:] for r in red.rows], n)


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
        vectors = [vec(v) for v in vectors]
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
        return cls(ambient_dim, Matrix.identity(ambient_dim),
                   range(ambient_dim))

    @property
    def dim(self):
        return self.basis.nrows

    def basis_vectors(self):
        return self.basis.rows

    def reduce(self, v):
        """Residual of v after eliminating the pivot coordinates; zero iff v is a member."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise AmbientMismatch(f"{len(v)} != {self.ambient_dim}")
        # the basis is in RREF, so the residual is v - sum_k v[p_k] b_k
        vr, vi = v.re, v.im
        cs = [(k, -vr[p], -vi[p] if vi else 0)
              for k, p in enumerate(self.pivots) if vr[p] or (vi and vi[p])]
        if not cs:
            return v
        den, re, im = self.basis.integer_rows()
        sr, si = combine(self.ambient_dim, cs, re, im)
        sr = [s + den * x for s, x in zip(sr, vr)]
        if vi:
            si = [s + den * x for s, x in zip(si, vi)]
        return ivec(sr, si, v.den * den)

    def contains(self, v):
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other):
        return all(self.contains(b) for b in other.basis_vectors())

    def coords(self, v):
        """Coordinates of a member vector in the RREF basis (its pivot entries)."""
        v = vec(v)
        if not self.contains(v):
            raise ExactError("vector not in subspace")
        return take(v, self.pivots)

    def intersect(self, other):
        """Zassenhaus: (a | a) and (b | 0) reduce to rows whose first half
        is zero below rank(A + B); their second halves are A n B's RREF."""
        self._check(other)
        n = self.ambient_dim
        red, pivots, _ = rref(Matrix(
            [vcat((a, a)) for a in self.basis.rows]
            + [vcat((b, vzero(n))) for b in other.basis.rows], 2 * n))
        k = sum(p < n for p in pivots)
        return Subspace(n, Matrix([r[n:] for r in red.rows[k:]], n),
                        [p - n for p in pivots[k:]])

    def complement(self):
        """The coordinate subspace spanned by the non-pivot axes."""
        n = self.ambient_dim
        axes = [c for c in range(n) if c not in self.pivots]
        return Subspace(n, Matrix([vunit(n, c) for c in axes], n), axes)

    def conjugate(self):
        # the pivots are real 1s, so the conjugate rows are still in RREF
        return Subspace(self.ambient_dim, Matrix(
            [vconj(b) for b in self.basis.rows], self.ambient_dim), self.pivots)

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
    """The sum of the subspaces: one elimination of their bases, stacked in
    order; the zero space for an empty list."""
    return Subspace.from_vectors(
        ambient_dim, [b for s in subspaces for b in s.basis_vectors()])


def relative_complement(outer: Subspace, inner: Subspace) -> Subspace:
    """Deterministic complement of inner within outer: the outer basis rows
    that extend the span of inner and the rows before them, at the pivot
    columns of one elimination of [inner | outer], are an RREF basis."""
    outer._check(inner)
    _, pivots, rank = rref(Matrix.from_columns(
        inner.basis.rows + outer.basis.rows))
    if rank != outer.dim:
        raise ExactError("inner is not contained in outer")
    chosen = [p - inner.dim for p in pivots if p >= inner.dim]
    return Subspace(outer.ambient_dim, Matrix(
        [outer.basis.rows[c] for c in chosen], outer.ambient_dim),
        [outer.pivots[c] for c in chosen])


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
    """Monic characteristic polynomial coefficients (1, c1, ..., cn) of
    det(x I - m) as a Vec, by the Faddeev-LeVerrier recursion on integer
    rows: with m = A / D and N_0 = I, P_k = A N_(k-1), B_k = -tr(P_k) / k
    (an exact division) and N_k = P_k + B_k I, c_k = B_k / D^k."""
    if m.nrows != m.ncols:
        raise DimensionMismatch("charpoly of non-square matrix")
    n = m.nrows
    den = lcm(*(r.den for r in m.rows))
    # A's rows as terms over den
    terms = [[(k, a * (den // r.den), b * (den // r.den))
              for k, a, b in nonzero_terms(r)] for r in m.rows]
    nre = [[int(i == j) for j in range(n)] for i in range(n)]
    nim = None
    cre, cim = [den ** n], [0]
    for k in range(1, n + 1):
        nre, nim = map(list, zip(*[combine(n, t, nre, nim) for t in terms]))
        br = -sum(r[i] for i, r in enumerate(nre)) // k
        bi = -sum(r[i] for i, r in enumerate(nim)) // k
        cre.append(br * den ** (n - k))
        cim.append(bi * den ** (n - k))
        for i in range(n):
            nre[i][i] += br
            nim[i][i] += bi
        if not any(map(any, nim)):
            nim = None
    return ivec(cre, cim, den ** n)


def _primitive(ints):
    """The primitive integer polynomial that is a positive multiple of the
    integer polynomial ints (highest degree first, not all zero)."""
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
    """a / b for integer polynomials where b divides a, made primitive: the
    pseudo-quotient of |lead(b)|^(deg a - deg b + 1) a, exact in integers."""
    lead = b[0]
    a = [x * abs(lead) ** (len(a) - len(b) + 1) for x in a]
    out = []
    while len(a) >= len(b):
        f = a[0] // lead
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


def _divide_root(c, p, q):
    """c / (q x - p) for an integer polynomial c, or None when p/q (in
    lowest terms, q > 0) is not a root; by Gauss's lemma the quotient of a
    primitive c is a primitive integer polynomial."""
    acc, qk = 0, 1
    for x in c:
        # Horner on the homogenized polynomial: acc ends as q^n c(p/q)
        acc = acc * p + x * qk
        qk *= q
    if acc:
        return None
    quo = [c[0] // q]
    for x in c[1:-1]:
        quo.append((x + p * quo[-1]) // q)
    return quo


def rational_eigenvalues(m: Matrix):
    """All eigenvalues of m, with multiplicity, as exact rationals.

    The characteristic polynomial must have rational coefficients and split
    over Q; otherwise IrrationalSpectrum is raised.  Entries may be Gaussian
    rationals (the use case is i * ad(h) acting on a complexified algebra).
    """
    cg = charpoly(m)
    if cg.im is not None:
        raise IrrationalSpectrum("characteristic polynomial is not rational")
    coeffs = list(cg.re)   # a positive multiple of the monic polynomial
    roots = []
    # zero eigenvalues: strip trailing zero coefficients
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
        roots.append(Fraction(0))
    if len(coeffs) > 1:
        # a root p/q of a0 x^n + ... + an has q | a0, so y = a0 x turns it
        # into an integer root of the monic y^n + a1 y^(n-1) + ... + an a0^(n-1)
        ints = _primitive(coeffs)
        a0 = ints[0]
        monic = [1] + [c * a0 ** k for k, c in enumerate(ints[1:])]
        cands = {Fraction(y, a0) for y in _integer_root_candidates(monic)}
        for cand in sorted(cands):
            while len(ints) > 1:
                quo = _divide_root(ints, cand.numerator, cand.denominator)
                if quo is None:
                    break
                roots.append(cand)
                ints = quo
        if len(ints) > 1:
            raise IrrationalSpectrum(
                f"only {len(roots)} of {m.nrows} eigenvalues are rational")
    return sorted(roots)
