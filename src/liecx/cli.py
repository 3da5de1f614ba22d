"""Command-line pipeline: parse a problem spec (JSON), run one command from
the library, emit a deterministic JSON report.

Exit codes: 0 = success / yes-verdict, 1 = clean no-verdict, 2 = input error,
3 = internal theorem violation, 4 = any other unexpected error (a bug).

Problem spec format (strict; unknown fields rejected):

    {
      "algebra": {"kind": "su", "n": 3}
                 | {"kind": "sum", "parts": [...]}
                 | {"table": [[[rat, ...], ...], ...],
                    "inner_product": [[rat, ...], ...]?},   # explicit
      "subalgebra": {"name": "maximal_torus" | "zero" | "center"}
                    | {"name": "block_u", "k": 2}
                    | {"name": "span", "vectors": [[rat, ...], ...]},
      "j": [[rat, ...], ...]?,          # on quotient coordinates
      "parabolic_index": 0?,
      "j1": "default" | [[rat, ...], ...]?
    }

A rational is a string fractions.Fraction parses ("p/q", "-3/4", "1.5e0",
"1_000", " 3 ") or a bare JSON number, read through str; "1/0", "1/-2",
"inf", "nan", true, null and lists are input errors, and so are a dim g
above catalog.MAX_DIM = 200, sums nested more than MAX_NESTING = 32 deep
and a file nested too deeply for the JSON reader.  Reports write rationals
as "p/q" or "p", complex entries as objects {"re": "p/q", "im": "p/q"}.
All matrices row-major.
"""

from __future__ import annotations

import argparse
import json
import sys

from .exact import Matrix, Subspace, ExactError, parse_vector, entry_strings
from .liealg import LieAlgebra, Quotient, quotient as make_quotient
from .catalog import (
    AlgebraSpec, build, build_subalgebra, InvalidSpec, MAX_DIM,
)
from .roots import build_parabolic
from . import cx
from .cx import ComplexStructure, TorusComplexStructure, TheoremViolation


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4

# the deepest nesting of sums an algebra spec may have: far beyond any
# algebra worth writing, and far inside the interpreter's recursion limit,
# which this module's recursive parser of specs would otherwise run into
MAX_NESTING = 32


# ---------------------------------------------------------------------------
# parsing

def _require_keys(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    for k in obj:
        if k not in allowed:
            raise ParseError(f"{where}: unknown field {k!r}")
    for k in required:
        if k not in obj:
            raise ParseError(f"{where}: missing field {k!r}")


def _lists(x):
    return isinstance(x, list) and all(isinstance(r, list) for r in x)


def _require_int(x, what):
    if type(x) is not int:  # a JSON true/false is not an integer here
        raise ParseError(f"{what} must be an integer")
    return x


def _parse_vec(v, where):
    try:
        return parse_vector(v)
    except ExactError as e:
        raise ParseError(f"{where}: {e}") from None


def _parse_matrix(rows, where):
    if not _lists(rows):
        raise ParseError(f"{where}: expected a list of rows")
    out = []
    for i, r in enumerate(rows):
        out.append(_parse_vec(r, f"{where}[{i}]"))
        if len(r) != len(rows[0]):
            raise ParseError(f"{where}: ragged rows")
    return Matrix(out)


def _parse_algebra_spec(obj, where="algebra", depth=0):
    """The parsed algebra of obj, which depth sums enclose."""
    if isinstance(obj, dict) and "table" in obj:
        if depth:
            raise ParseError("explicit tables cannot nest inside a sum")
        _require_keys(obj, {"table", "inner_product"}, {"table"}, where)
        table = obj["table"]
        if not _lists(table):
            raise ParseError(f"{where}.table: expected a list of rows")
        n = len(table)
        if n > MAX_DIM:
            raise ParseError(
                f"{where}.table: dim g = {n} exceeds the limit {MAX_DIM}")
        parsed = []
        for i, row in enumerate(table):
            if len(row) != n or not _lists(row):
                raise ParseError(f"{where}.table: expected {n}x{n} of vectors")
            parsed.append([_parse_vec(v, f"{where}.table[{i}][{j}]")
                           for j, v in enumerate(row)])
        ip = None
        if "inner_product" in obj:
            ip = _parse_matrix(obj["inner_product"], f"{where}.inner_product")
        return ("table", parsed, ip)
    _require_keys(obj, {"kind", "n", "parts"}, {"kind"}, where)
    kind = obj["kind"]
    if kind == "sum":
        if depth == MAX_NESTING:
            raise ParseError(
                f"algebra: sums nest more than {MAX_NESTING} deep")
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ParseError(f"{where}: sum needs a nonempty parts list")
        return ("spec", AlgebraSpec("sum", parts=tuple(
            _parse_algebra_spec(p, f"{where}.parts", depth + 1)[1]
            for p in parts)), None)
    if "n" not in obj:
        raise ParseError(f"{where}: {kind} needs n")
    return ("spec", AlgebraSpec(kind, _require_int(obj["n"], f"{where}: n")),
            None)


class ProblemSpec:
    def __init__(self, algebra_mode, algebra_payload, inner, sub, j,
                 parabolic_index, j1):
        self.algebra_mode = algebra_mode
        self.algebra_payload = algebra_payload
        self.inner = inner
        self.sub = sub
        self.j = j
        self.parabolic_index = parabolic_index
        self.j1 = j1


def parse(path) -> ProblemSpec:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read spec file: {e}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("spec file nests too deeply to read") from None
    return parse_obj(raw)


def parse_obj(raw) -> ProblemSpec:
    _require_keys(raw, {"algebra", "subalgebra", "j", "parabolic_index", "j1"},
                  {"algebra"}, "spec")
    mode, payload, inner = _parse_algebra_spec(raw["algebra"])
    sub = raw.get("subalgebra", {"name": "zero"})
    _require_keys(sub, {"name", "k", "vectors"}, {"name"}, "subalgebra")
    if "k" in sub:
        _require_int(sub["k"], "subalgebra: k")
    if sub["name"] == "span":
        if "vectors" not in sub:
            raise ParseError("subalgebra: span needs vectors")
        if not _lists(sub["vectors"]):
            raise ParseError("subalgebra: vectors must be a list of vectors")
        sub = dict(sub, vectors=[
            _parse_vec(v, "subalgebra.vectors")
            for v in sub["vectors"]])
    j = None
    if raw.get("j") is not None:
        j = _parse_matrix(raw["j"], "j")
    j1 = raw.get("j1")
    if j1 is not None and j1 != "default":
        j1 = _parse_matrix(j1, "j1")
    pk = raw.get("parabolic_index")
    if pk is not None:
        _require_int(pk, "parabolic_index")
    return ProblemSpec(mode, payload, inner, sub, j, pk, j1)


def _build_algebra(ps: ProblemSpec, validate=True):
    if ps.algebra_mode == "spec":
        try:
            return build(ps.algebra_payload), ps.algebra_payload
        except InvalidSpec as e:
            raise ValidationError(str(e)) from None
    g = LieAlgebra(ps.algebra_payload, inner_product=ps.inner, name="explicit")
    if validate:
        res = g.validate()
        if not res.ok:
            raise ValidationError(
                f"explicit table invalid: {res.first_failure()}")
    return g, None


def _resolve_problem(ps: ProblemSpec) -> Quotient:
    """The problem g/h over the catalog's certified h."""
    g, aspec = _build_algebra(ps)
    sub = ps.sub
    try:
        h = build_subalgebra(g, aspec, sub["name"], k=sub.get("k"),
                             span=sub.get("vectors"))
    except ExactError as e:
        raise ValidationError(str(e)) from None
    return make_quotient(g, h)


def _structure(ps, quot) -> ComplexStructure:
    if ps.j is None:
        raise ValidationError("this command needs a j matrix in the spec")
    q = quot.dim
    if ps.j.nrows != q or ps.j.ncols != q:
        raise ValidationError(
            f"j has shape {ps.j.nrows}x{ps.j.ncols}, expected {q}x{q}")
    try:
        return ComplexStructure(quot, ps.j)
    except ExactError as e:
        raise ValidationError(str(e)) from None


def _integrable_structure(ps, quot, why) -> ComplexStructure:
    """The spec's J, required invariant and then integrable."""
    J = _structure(ps, quot)
    if not cx.is_invariant(J):
        raise ValidationError("j is not invariant under the isotropy action")
    if not cx.is_integrable(J):
        raise ValidationError(f"j is not integrable; {why}")
    return J


# ---------------------------------------------------------------------------
# serialization

def _ser_vec(v):
    re, im = entry_strings(v)
    return re if im is None else [{"re": a, "im": b} for a, b in zip(re, im)]


def _ser_matrix(m: Matrix):
    return [_ser_vec(r) for r in m.rows]


def _ser_space(s: Subspace):
    return [_ser_vec(b) for b in s.basis_vectors()]


def _ser_ledger(entries):
    return [{"name": e.name, "ok": e.ok, "detail": e.detail} for e in entries]


def _ser_parabolic(i, p):
    return {
        "index": i,
        "positive_set": list(p.positive_set),
        "dim_p": p.space.dim,
        "dim_levi": p.levi_real.dim,
        "dim_nilradical": p.nilradical.dim,
        "levi_basis": _ser_space(p.levi_real),
        "nilradical_basis": _ser_space(p.nilradical),
    }


_CONVENTIONS = ("canonical bases as documented in the catalog module; "
                "subspaces reported as RREF basis rows; quotient coordinates "
                "are the pivot complement of h in the catalog basis")


def _base_report(command, g, h=None):
    rep = {
        "command": command,
        "algebra": g.name,
        "dim_g": g.dim,
        "conventions": _CONVENTIONS,
    }
    if h is not None:
        rep["dim_h"] = h.dim
        rep["h_basis"] = _ser_space(h)
    return rep


# ---------------------------------------------------------------------------
# commands

def cmd_catalog(ps, args):
    quot = _resolve_problem(ps)
    rep = _base_report("catalog", quot.algebra, quot.h)
    rep["dim_quotient"] = quot.dim
    rep["validation_ok"] = quot.algebra.validate().ok
    rep["inner_product"] = _ser_matrix(quot.algebra.inner_product)
    return rep, EXIT_YES


def cmd_validate(ps, args):
    g, aspec = _build_algebra(ps, validate=False)
    res = g.validate()
    rep = _base_report("validate", g)
    rep["ok"] = res.ok
    rep["failures"] = [str(f) for f in res.failures]
    return rep, EXIT_YES if res.ok else EXIT_NO


def cmd_check(ps, args):
    quot = _resolve_problem(ps)
    J = _structure(ps, quot)
    rep = _base_report("check", quot.algebra, quot.h)
    inv = cx.is_invariant(J)
    rep["invariant"] = inv
    if not inv:
        i, res = J.witness
        rep["invariance_witness"] = {
            "h_basis_index": i, "commutator": _ser_matrix(res)}
        return rep, EXIT_NO
    integ = cx.is_integrable(J)
    rep["integrable"] = integ
    if not integ:
        a, b, n = J.nijenhuis_witness
        rep["nijenhuis_witness"] = {
            "basis_pair": [a, b], "value": _ser_vec(n)}
        return rep, EXIT_NO
    return rep, EXIT_YES


def cmd_m(ps, args):
    quot = _resolve_problem(ps)
    J = _integrable_structure(ps, quot, "m is canonical only then")
    md = cx.compute_m(J)
    rep = _base_report("m", quot.algebra, quot.h)
    rep["dim_m"] = md.m.dim
    rep["m_basis"] = _ser_space(md.m)
    rep["fiber_dim"] = md.u.dim
    rep["fiber_basis"] = _ser_space(md.u)
    rep["center_m_basis"] = _ser_space(md.center_m)
    return rep, EXIT_YES


def cmd_classify(ps, args):
    quot = _resolve_problem(ps)
    report = cx.classify(quot)
    rep = _base_report("classify", quot.algebra, quot.h)
    rep["exists"] = report.exists
    rep["reason"] = report.reason
    rep["ledger"] = _ser_ledger(report.ledger)
    if report.exists:
        rep["dim_m"] = report.m.m.dim
        rep["m_basis"] = _ser_space(report.m.m)
        rep["fiber_dim"] = report.fiber_dim
        rep["parabolics"] = [_ser_parabolic(i, p)
                             for i, p in enumerate(report.parabolics)]
        rep["structure_count_note"] = (
            f"{len(report.parabolics)} parabolics (relative to one fixed "
            "Cartan) x continuous moduli of torus structures on a fiber of "
            f"dim {report.fiber_dim}")
    return rep, EXIT_YES if report.exists else EXIT_NO


def _construct(ps, quot, command):
    """(p, J): classify's parabolic number parabolic_index, built alone, and
    J(p, J1) with the spec's J1 on the fiber of classify's m."""
    levi = quot.fact(cx.levi_systems, quot)
    if levi.reason:
        raise ValidationError(f"no structures exist: {levi.reason}")
    k = ps.parabolic_index
    if k is None:
        raise ValidationError(f"{command} needs parabolic_index")
    if not 0 <= k < len(levi.systems):
        raise ValidationError(
            f"parabolic_index {k} out of range 0..{len(levi.systems) - 1}")
    p = build_parabolic(levi.datum, levi.m.m, levi.systems[k])
    u, j1 = levi.m.u, None
    if ps.j1 is not None and ps.j1 != "default":
        if ps.j1.nrows != u.dim or ps.j1.ncols != u.dim:
            raise ValidationError(
                f"j1 has shape {ps.j1.nrows}x{ps.j1.ncols}, expected "
                f"{u.dim}x{u.dim}")
        try:
            j1 = TorusComplexStructure(u, ps.j1)
        except ExactError as e:
            raise ValidationError(str(e)) from None
    return p, cx.construct_J(quot, p, j1)


def cmd_construct(ps, args):
    quot = _resolve_problem(ps)
    p, J = _construct(ps, quot, "construct")
    j1 = cx.fiber_structure(J, quot.fact(cx.levi_systems, quot).m.u)
    rep = _base_report("construct", quot.algebra, quot.h)
    rep["parabolic_index"] = ps.parabolic_index
    rep["parabolic"] = _ser_parabolic(ps.parabolic_index, p)
    rep["j"] = _ser_matrix(J.j)
    rep["j1"] = _ser_matrix(j1.j1)
    rep["fiber_basis"] = _ser_space(j1.u)
    return rep, EXIT_YES


def cmd_decompose(ps, args):
    quot = _resolve_problem(ps)
    J = _integrable_structure(ps, quot, "nothing to decompose")
    p, j1 = cx.decompose_J(J)
    index = cx.parabolic_index(quot, p)
    rep = _base_report("decompose", quot.algebra, quot.h)
    rep["parabolic_index"] = index
    rep["parabolic"] = _ser_parabolic(index, p)
    rep["j1"] = _ser_matrix(j1.j1)
    rep["fiber_basis"] = _ser_space(j1.u)
    return rep, EXIT_YES


def cmd_verify(ps, args):
    quot = _resolve_problem(ps)
    J = _integrable_structure(ps, quot, "ledger undefined")
    ledger = cx.verify_structure(J)
    trials, evaluations = cx.nijenhuis_perturbation_trials(J, seed=args.seed)
    ledger.append(trials)
    rep = _base_report("verify", quot.algebra, quot.h)
    rep["seed"] = args.seed
    rep["nijenhuis_evaluations"] = evaluations
    rep["ledger"] = _ser_ledger(ledger)
    ok = all(e.ok for e in ledger)
    rep["all_ok"] = ok
    return rep, EXIT_YES if ok else EXIT_VIOLATION


def cmd_symmetric(ps, args):
    quot = _resolve_problem(ps)
    if ps.j is None:
        p, J = _construct(ps, quot, "symmetric")
    else:
        p, J = None, _structure(ps, quot)
    if not cx.is_invariant(J):
        raise ValidationError("j is not invariant under the isotropy action")
    verdict = cx.is_symmetric_pair(J, p)
    rep = _base_report("symmetric", quot.algebra, quot.h)
    rep["status"] = verdict.status
    rep["reason"] = verdict.reason
    rep["checks"] = _ser_ledger(verdict.checks)
    return rep, EXIT_YES if verdict.status == "symmetric" else EXIT_NO


COMMANDS = {
    "catalog": cmd_catalog,
    "validate": cmd_validate,
    "check": cmd_check,
    "m": cmd_m,
    "classify": cmd_classify,
    "construct": cmd_construct,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "symmetric": cmd_symmetric,
}


# ---------------------------------------------------------------------------
# entry point

def _argparser():
    ap = argparse.ArgumentParser(
        prog="liecx",
        description="Invariant integrable complex structures on quotients "
                    "of compact Lie algebras: classification, construction, "
                    "verification.")
    ap.add_argument("--spec", required=True, help="problem spec JSON file")
    ap.add_argument("--command", required=True, choices=sorted(COMMANDS))
    ap.add_argument("--parabolic-index", type=int, default=None)
    ap.add_argument("--j1", default=None,
                    help="'default' or a JSON file with a rational matrix")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized trials in verify")
    ap.add_argument("--out", default=None, help="report path (default stdout)")
    return ap


def _emit(report, out_path, code):
    """Write the report and return code; EXIT_INPUT, with one line on
    stderr, when out_path cannot be written."""
    text = json.dumps(report, indent=2, sort_keys=False)
    if not out_path:
        print(text)
        return code
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as e:
        print(f"liecx: cannot write the report: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code


def main(argv=None):
    args = _argparser().parse_args(argv)
    try:
        ps = parse(args.spec)
        if args.parabolic_index is not None:
            ps.parabolic_index = args.parabolic_index
        if args.j1 is not None:
            if args.j1 == "default":
                ps.j1 = "default"
            else:
                try:
                    with open(args.j1) as fh:
                        ps.j1 = _parse_matrix(json.load(fh), "j1")
                except (OSError, json.JSONDecodeError, RecursionError) as e:
                    raise ParseError(f"cannot read j1 file: {e}") from None
        report, code = COMMANDS[args.command](ps, args)
    except TheoremViolation as e:
        return _emit({"command": args.command, "error": "TheoremViolation",
                      "message": str(e)}, args.out, EXIT_VIOLATION)
    except (ParseError, ValidationError, ExactError) as e:
        return _emit({"command": args.command, "error": type(e).__name__,
                      "message": str(e)}, args.out, EXIT_INPUT)
    except Exception as e:  # a bug; SIGTERM-style BaseExceptions pass through
        return _emit({"command": args.command, "error": "InternalError",
                      "message": f"{type(e).__name__}: {e}"}, args.out,
                     EXIT_INTERNAL)
    return _emit(report, args.out, code)


if __name__ == "__main__":
    sys.exit(main())
