"""Golden reports re-checked by code that shares nothing with liecx.

For every golden case whose spec carries a j, the Nijenhuis tensor is
computed here from the spec and the report alone, in Fractions:

- the structure table comes from perfbench/specs.algebra_table, with u(n)
  as a zero 1-dimensional block before su(n);
- h is the report's h_basis, in RREF, and the quotient coordinates are its
  non-pivot columns: lift scatters onto them, project reduces by h and
  reads them;
- N(e_a, e_b) = p[x, y] + J(p[x', y] + p[x, y']) - p[x', y'] for the lifts
  x, y, x', y' of e_a, e_b, Je_a, Je_b, over all basis pairs.

The report's verdict must agree: check's invariant (J commutes with the
action of h on g/h) and integrable, symmetric's not_integrable, and N = 0
wherever m, decompose or verify exits 0.

Every file-held classify report is re-checked the same way, with the table
from its spec when the spec carries one: each parabolic's Levi is the
report's real m and contains h, its nilradical n has [n, n] and [m, n]
inside n, dim m + 2 dim n = dim g, and m + n + n-bar spans g_C.  On su(n)/t
the permutations of S_n, acting on the catalog basis by conjugation, must
permute the reported nilradicals, and move parabolic 0 to n! distinct ones:
the Weyl group acts simply transitively on the Borels that contain t.
No liecx module is imported; the su(4)/t report comes from the CLI run as
a process.
"""

import functools
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
J_CASES = [c for c in MANIFEST if "j" in c["spec"]]
CLASSIFY_CASES = [c for c in MANIFEST
                  if c["command"] == "classify" and "sha256" not in c]

_spec = importlib.util.spec_from_file_location(
    "report_oracle_specs", ROOT / "perfbench" / "specs.py")
specs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(specs)


def blocks(algebra):
    """The simple or 1-dimensional blocks of a catalog algebra spec, in
    basis order: (kind, n), or None for u(n)'s center."""
    if algebra["kind"] == "sum":
        return [b for part in algebra["parts"] for b in blocks(part)]
    if algebra["kind"] == "u":
        return [None, ("su", algebra["n"])]
    return [(algebra["kind"], algebra["n"])]


@functools.cache
def sparse_table(algebra_json):
    """table[i][j]: the nonzero (k, c) of [e_i, e_j], block by block."""
    tables = [[[[Fraction(0)]]] if b is None else specs.algebra_table([b])[0]
              for b in blocks(json.loads(algebra_json))]
    d = sum(map(len, tables))
    out, off = [], 0
    for t in tables:
        out += [[[] for _ in range(off)]
                + [[(off + k, c) for k, c in enumerate(v) if c] for v in row]
                + [[] for _ in range(d - off - len(t))] for row in t]
        off += len(t)
    return out


def bracket(table, x, y):
    out = [0] * len(table)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                if b:
                    for k, c in table[i][j]:
                        out[k] += a * b * c
    return out


class Quotient:
    """g/h with h from a report's RREF h_basis."""

    def __init__(self, table, h_basis):
        self.table = table
        self.h = [[Fraction(x) for x in row] for row in h_basis]
        self.pivots = [next(i for i, x in enumerate(r) if x) for r in self.h]
        for r, p in zip(self.h, self.pivots):
            assert [s[p] for s in self.h] == [int(s is r) for s in self.h]
        self.axes = [i for i in range(len(table)) if i not in self.pivots]

    def lift(self, u):
        x = [Fraction(0)] * len(self.table)
        for i, c in zip(self.axes, u):
            x[i] = c
        return x

    def project(self, x):
        for r, p in zip(self.h, self.pivots):
            if x[p]:
                x = [a - x[p] * b for a, b in zip(x, r)]
        return [x[i] for i in self.axes]

    def pbracket(self, x, y):
        return self.project(bracket(self.table, x, y))


def matvec(m, v):
    return [sum(a * b for a, b in zip(row, v)) for row in m]


def unit(q, a):
    return [Fraction(int(i == a)) for i in range(q)]


def is_invariant(quot, j):
    """J commutes with the action of each h basis vector on g/h."""
    q = len(quot.axes)
    for x in quot.h:
        act = [quot.pbracket(x, quot.lift(unit(q, a))) for a in range(q)]
        for a in range(q):
            if matvec(j, act[a]) != quot.pbracket(
                    x, quot.lift(matvec(j, unit(q, a)))):
                return False
    return True


def nijenhuis_vanishes(quot, j):
    """N(e_a, e_b) = 0 for every basis pair."""
    q = len(quot.axes)
    lifts = [(quot.lift(unit(q, a)), quot.lift(matvec(j, unit(q, a))))
             for a in range(q)]
    for a in range(q):
        x, xp = lifts[a]
        for b in range(a + 1, q):
            y, yp = lifts[b]
            twist = [s + t for s, t in zip(quot.pbracket(xp, y),
                                           quot.pbracket(x, yp))]
            n = [s + t - u for s, t, u in zip(
                quot.pbracket(x, y), matvec(j, twist), quot.pbracket(xp, yp))]
            if any(n):
                return False
    return True


def test_every_case_with_a_j_is_checked():
    assert len(J_CASES) == 40
    assert {c["command"] for c in J_CASES} \
        == {"check", "m", "decompose", "verify", "symmetric"}


@pytest.mark.parametrize("case", J_CASES, ids=[c["file"] for c in J_CASES])
def test_report_verdict_matches_the_nijenhuis_tensor(case):
    report = json.loads((GOLDEN / case["file"]).read_text())
    spec = case["spec"]
    quot = Quotient(sparse_table(json.dumps(spec["algebra"])),
                    report["h_basis"])
    j = [[Fraction(x) for x in row] for row in spec["j"]]
    invariant = is_invariant(quot, j)
    command = case["command"]
    if command == "check":
        assert report["invariant"] is invariant
        if invariant:
            assert report["integrable"] is nijenhuis_vanishes(quot, j)
        return
    assert invariant
    if command == "symmetric":
        assert (report["reason"] == "not_integrable") \
            is not nijenhuis_vanishes(quot, j)
    elif case["exit_code"] == 0:
        assert nijenhuis_vanishes(quot, j)


# ---------------------------------------------------------------------------
# classify: the parabolics of each report.  A Gaussian-rational vector is
# held as (re, im), two integer lists over a dropped common denominator, and
# a table over its dropped common denominator: a span does not see either.

def integral(vectors):
    """Rational lists times their common denominator, as ints."""
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return [[int(x * den) for x in v] for v in vectors]


def table_of(algebra):
    """The sparse table of a catalog algebra, or of the table a spec
    carries, in integers."""
    if "table" in algebra:
        table = [[[(k, c) for k, c in enumerate(map(Fraction, v)) if c]
                  for v in row] for row in algebra["table"]]
    else:
        table = sparse_table(json.dumps(algebra))
    den = math.lcm(*(c.denominator for row in table for v in row
                     for _, c in v))
    return [[[(k, int(c * den)) for k, c in v] for v in row] for row in table]


def gaussian(row):
    """A report row, of strings or of {"re", "im"} entries, as (re, im)."""
    if row and isinstance(row[0], dict):
        return tuple(integral([[Fraction(x["re"]) for x in row],
                               [Fraction(x["im"]) for x in row]]))
    return integral([[Fraction(x) for x in row]])[0], [0] * len(row)


def span(vectors):
    """The complex span of Gaussian-rational vectors, pinned down as the
    RREF, in Fractions, of its realification: the real span of (a, b) and
    (-b, a), the vectors a + ib and i(a + ib), over every vector given."""
    rows = [r for a, b in vectors for r in (a + b, [-x for x in b] + a)]
    return tuple(map(tuple, specs.rref(
        [[Fraction(x) for x in r] for r in rows])[0]))


def cbracket(table, x, y):
    (a, b), (c, d) = x, y
    return ([s - t for s, t in zip(bracket(table, a, c), bracket(table, b, d))],
            [s + t for s, t in zip(bracket(table, a, d), bracket(table, b, c))])


def test_every_file_held_classify_case_is_checked():
    assert len(CLASSIFY_CASES) == 9
    assert sum("table" in c["spec"]["algebra"] for c in CLASSIFY_CASES) == 3


@pytest.mark.parametrize("case", CLASSIFY_CASES,
                         ids=[c["file"] for c in CLASSIFY_CASES])
def test_classify_parabolics_are_parabolic(case):
    report = json.loads((GOLDEN / case["file"]).read_text())
    table = table_of(case["spec"]["algebra"])
    d = report["dim_g"]
    assert len(table) == d
    h = [gaussian(r) for r in report["h_basis"]]
    assert report["parabolics"]
    for p in report["parabolics"]:
        assert p["levi_basis"] == report["m_basis"]
        m = [gaussian(r) for r in p["levi_basis"]]
        n = [gaussian(r) for r in p["nilradical_basis"]]
        assert not any(x for _, b in m for x in b)
        assert span(m + h) == span(m)
        assert (p["dim_levi"], p["dim_nilradical"], p["dim_p"]) \
            == (len(m), len(n), len(m) + len(n))
        assert len(m) + 2 * len(n) == d
        n_span = span(n)
        assert span(n + [cbracket(table, x, y)
                         for x, y in itertools.combinations(n, 2)]) == n_span
        assert span(n + [cbracket(table, x, y) for x in m for y in n]) \
            == n_span
        n_bar = [(a, [-x for x in b]) for a, b in n]
        assert len(span(m + n + n_bar)) == 2 * d


def permutation_action(n, sigma):
    """The integer matrix, by columns, of X -> P X P^-1 on the su(n)
    catalog basis, P the permutation matrix of sigma, so that E_jk goes to
    E_sigma(j)sigma(k)."""
    cols = []
    for a, b in specs._matrix_basis("su", n):
        moved = [[[0] * n for _ in range(n)] for _ in (a, b)]
        for src, dst in zip((a, b), moved):
            for j in range(n):
                for k in range(n):
                    dst[sigma[j]][sigma[k]] = src[j][k]
        cols.append([int(x) for x in specs._coords("su", n, *moved)])
    return cols


def moved(cols, vectors):
    """sigma(n) for n spanned by vectors, as its span."""
    return span([tuple([sum(c[i] * x for c, x in zip(cols, part) if x)
                        for i in range(len(cols))] for part in v)
                 for v in vectors])


def flag_classify(n, tmp_path):
    """classify's report on su(n)/t: the golden file for n = 3, the CLI
    run as a process otherwise."""
    if n == 3:
        return json.loads((GOLDEN / "su3_t__classify.json").read_text())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"algebra": {"kind": "su", "n": n},
                                "subalgebra": {"name": "maximal_torus"}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "liecx.cli", "--spec", str(spec),
         "--command", "classify"], env=env, capture_output=True, text=True,
        check=True, timeout=120)
    return json.loads(out.stdout)


@pytest.mark.parametrize("n", [3, 4])
def test_permutations_permute_the_flag_nilradicals(n, tmp_path):
    # the adjacent transpositions generate S_n: each permutes the reported
    # nilradicals, and every sigma moves parabolic 0 to a different one
    nilradicals = [[gaussian(r) for r in p["nilradical_basis"]]
                   for p in flag_classify(n, tmp_path)["parabolics"]]
    index = {span(v): k for k, v in enumerate(nilradicals)}
    assert len(index) == len(nilradicals) == math.factorial(n)
    for j in range(n - 1):
        sigma = list(range(n))
        sigma[j], sigma[j + 1] = j + 1, j
        cols = permutation_action(n, sigma)
        assert sorted(index[moved(cols, v)] for v in nilradicals) \
            == list(range(len(index))), sigma
    images = {index[moved(permutation_action(n, sigma), nilradicals[0])]
              for sigma in itertools.permutations(range(n))}
    assert len(images) == math.factorial(n)
