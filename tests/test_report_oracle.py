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
wherever m, decompose or verify exits 0.  No liecx module is imported.
"""

import functools
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
J_CASES = [c for c in json.loads((GOLDEN / "manifest.json").read_text())
           if "j" in c["spec"]]

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
    out = [Fraction(0)] * len(table)
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
