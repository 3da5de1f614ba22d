"""Shared builders for the test corpus, a call counter, a repeat counter,
and the acceptance summary hook."""

import cProfile
import functools
import json
import pstats
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from liecx.exact import (
    GQ, Matrix, Subspace, inverse, ivec, nonzero_terms, vec,
)
from liecx.catalog import build, build_subalgebra, su, u, torus, direct_sum
from liecx.liealg import quotient as make_quotient
from liecx import cli, cx


# the boundary scalars 0 and 1, for building test inputs
ZERO = GQ(0)
ONE = GQ(1)

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def profiled(fn, *args):
    """(fn(*args), calls): the result of one run under cProfile, and a count
    of that run's calls by function."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    stats = pstats.Stats(prof).stats

    def calls(f):
        c = f.__code__
        return sum(v[1] for (file, line, name), v in stats.items()
                   if (file, line, name)
                   == (c.co_filename, c.co_firstlineno, c.co_name))
    return result, calls


class RepeatCounter:
    """Counts, per run, the calls of some liecx functions that repeat an
    earlier call of the same function: each call is keyed on its Subspace
    and Matrix arguments.  Each function is wrapped at every liecx module
    binding of it, since modules import what they call by name."""

    def __init__(self, monkeypatch, *fns):
        self.seen = Counter()
        for fn in fns:
            def wrapped(*args, _fn=fn, **kw):
                self.seen[_fn.__name__, tuple(
                    a for a in args if isinstance(a, (Subspace, Matrix)))] += 1
                return _fn(*args, **kw)
            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "liecx" \
                        and getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapped)

    def run(self, fn, *args):
        """(fn(*args), repeats): repeats maps (function name, key) to the
        number of calls with that key after the first, in this run."""
        self.seen.clear()
        result = fn(*args)
        return result, {k: c - 1 for k, c in self.seen.items() if c > 1}


def ad(g, x):
    """Matrix of ad(x), entry (k, j) = [x, e_j]_k, read off the structure
    table's integer terms; the library cuts subspaces by brackets instead."""
    x = vec(x)
    n = g.dim
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for i, xr, xi in nonzero_terms(x):
        for j, terms in enumerate(g.int_terms[i]):
            for k, tr, ti in terms:
                re[k][j] += xr * tr - xi * ti
                im[k][j] += xr * ti + xi * tr
    den = x.den * g.table_den
    return Matrix([ivec(r, m, den) for r, m in zip(re, im)], n)


# ---------------------------------------------------------------------------
# standard instances

def flag_spec(kind, n, sub="maximal_torus", **kw):
    """The CLI spec of kind(n) over a named subalgebra."""
    return {"algebra": {"kind": kind, "n": n},
            "subalgebra": dict(kw, name=sub)}


@functools.lru_cache(maxsize=None)
def _classified(spec_json):
    quot = cli._resolve_problem(cli.parse_obj(json.loads(spec_json)))
    return quot.algebra, quot.h, cx.classify(quot)


def classified(spec):
    """(g, h, classify(g, h)) for a CLI spec (its j, if any, is ignored),
    computed once per test session: the |W| counts and the parabolic
    oracles share the large flag manifolds."""
    spec = {k: v for k, v in spec.items() if k in ("algebra", "subalgebra")}
    return _classified(json.dumps(spec, sort_keys=True))


def parabolic_spaces(p):
    """p, its real Levi m and its nilradical n: what makes two parabolics
    the same."""
    return p.space, p.levi_real, p.nilradical


def s2_instance():
    """su(2) / u(1): the sphere S^2 with J e1 = e2."""
    g = build(su(2))
    quot = make_quotient(g, build_subalgebra(g, su(2), "span",
                                             span=[[0, 0, 1]]))
    h = quot.h
    j = Matrix([[ZERO, GQ(-1)], [ONE, ZERO]])
    return g, h, quot, cx.ComplexStructure(quot, j)


def calabi_eckmann_instance():
    """su(2)+su(2) / 0 with J(e1,0)=(e2,0), J(0,e1)=(0,e2), J(e3,0)=(0,e3)."""
    g = build(direct_sum(su(2), su(2)))
    quot = make_quotient(g, build_subalgebra(g, None, "zero"))
    h = quot.h
    m = [[ZERO] * 6 for _ in range(6)]
    for src, dst in ((0, 1), (3, 4), (2, 5)):
        m[dst][src] = ONE
        m[src][dst] = GQ(-1)
    return g, h, quot, cx.ComplexStructure(quot, Matrix(m))


def swap_structure():
    """The non-integrable control on su(2)+su(2): J(x, y) = (-y, x)."""
    g = build(direct_sum(su(2), su(2)))
    quot = make_quotient(g, build_subalgebra(g, None, "zero"))
    h = quot.h
    m = [[ZERO] * 6 for _ in range(6)]
    for k in range(3):
        m[3 + k][k] = ONE
        m[k][3 + k] = GQ(-1)
    return g, h, quot, cx.ComplexStructure(quot, Matrix(m))


def acceptance_pairs():
    """The catalog quotients used by the construction-soundness criteria."""
    g3 = build(su(3))
    g22 = build(direct_sum(su(2), su(2)))
    gs = build(su(2))
    gu2 = build(u(2))
    gst = build(direct_sum(su(2), torus(1)))
    return [
        ("su(2)/u(1)", gs, build_subalgebra(gs, su(2), "span", span=[[0, 0, 1]])),
        ("su(3)/t", g3, build_subalgebra(g3, su(3), "maximal_torus")),
        ("su(3)/u(2)", g3, build_subalgebra(g3, su(3), "block_u", k=2)),
        ("su(2)+su(2)/0", g22, build_subalgebra(g22, None, "zero")),
        ("u(2)/0", gu2, build_subalgebra(gu2, None, "zero")),
        ("su(2)+torus(1)/0", gst, build_subalgebra(gst, None, "zero")),
    ]


# ---------------------------------------------------------------------------
# randomized invariant structures

def random_torus_structure(u, rng):
    """A random rational complex structure on an even-dim fiber, built from
    2x2 blocks [[a, b], [c, -a]] with a^2 + bc = -1."""
    f = u.dim
    m = [[ZERO] * f for _ in range(f)]
    for k in range(0, f, 2):
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        c = Fraction(rng.randint(1, 5))
        b = -(1 + a * a) / c
        m[k][k] = GQ(a)
        m[k][k + 1] = GQ(b)
        m[k + 1][k] = GQ(c)
        m[k + 1][k + 1] = GQ(-a)
    return cx.TorusComplexStructure(u, Matrix(m))


def random_invariant_structures(quot, j0, rng, count):
    """Invariant J candidates: conjugates S j0 S^-1 of a known invariant j0
    by random invertible elements of the isotropy commutant."""
    # the S with [S, ad-bar(x)] = 0 for all x in h
    basis = cx.commutant(
        quot.dim, [quot.induced_map(x) for x in quot.h.basis_vectors()])
    q = quot.dim
    out = []
    while len(out) < count:
        s = Matrix.zeros(q, q)
        for b in basis:
            s = s + b.scale(vec([rng.randint(-3, 3)]))
        try:
            sinv = inverse(s)
        except Exception:
            continue
        j = s * j0 * sinv
        if not j.is_real():
            continue
        out.append(cx.ComplexStructure(quot, j))
    return out
