"""Command-line pipeline: parse a problem spec (JSON), run one command from
the library, emit a deterministic JSON report.

Each input has one route and one spelling: data (g, h, j, j1) in the spec,
a UTF-8 JSON file, and the selector --parabolic-index and the run options
--seed and --out as flags, read in one pass over argv, each once as --flag
VALUE or --flag=VALUE (-h prints the usage).  Input errors include a spec
field parabolic_index, a j1 "default", a null j or j1, a --j1 or abbreviated
flag, an integer flag not in ASCII decimal digits after an optional minus, a
JSON key given twice in one object, a subalgebra k or vectors on a name that
takes none, and a flag or spec field that READS says the command does not
read; a flag error's report goes to the --out argv names, else stdout.

Exit codes: 0 = success / yes-verdict, 1 = clean no-verdict, 2 = input error
or a report that cannot be written, to a closed stdout too (one stderr line),
3 = internal theorem violation, 4 = any other unexpected error (a bug).

Problem spec format (strict; unknown fields rejected):

    {
      "algebra": {"kind": "su", "n": 3}               # n off a sum only
                 | {"kind": "sum", "parts": [...]}   # parts on a sum only
                 | {"table": [[[rat, ...], ...], ...],
                    "inner_product": [[rat, ...], ...]?},   # explicit
      "subalgebra": {"name": "maximal_torus" | "zero" | "center"}
                    | {"name": "block_u", "k": 2}        # k for block_u only
                    | {"name": "span", "vectors": [[rat, ...], ...]},
      "j": [[rat, ...], ...]?,          # on quotient coordinates
      "j1": [[rat, ...], ...]?          # construct: on the fiber m/h
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

import json
import os
import sys
from collections import namedtuple
from contextlib import nullcontext

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


def _object(pairs):
    """A JSON object whose keys are distinct, for json.load."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"field {key!r} is given twice in one object")
        obj[key] = value
    return obj


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
    """The AlgebraSpec of obj, which depth sums enclose, or the LieAlgebra
    of an explicit table."""
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
        return LieAlgebra(parsed, inner_product=ip, name="explicit")
    _require_keys(obj, {"kind", "n", "parts"}, {"kind"}, where)
    kind = obj["kind"]
    if kind == "sum" and "n" in obj:
        raise ParseError(f"{where}: n is not for sum")
    if kind != "sum" and "parts" in obj:
        raise ParseError(f"{where}: parts is only for sum")
    if kind == "sum":
        if depth == MAX_NESTING:
            raise ParseError(
                f"algebra: sums nest more than {MAX_NESTING} deep")
        parts = obj.get("parts")
        if not isinstance(parts, list) or not parts:
            raise ParseError(f"{where}: sum needs a nonempty parts list")
        return AlgebraSpec("sum", parts=tuple(
            _parse_algebra_spec(p, f"{where}.parts", depth + 1)
            for p in parts))
    if "n" not in obj:
        raise ParseError(f"{where}: {kind} needs n")
    return AlgebraSpec(kind, _require_int(obj["n"], f"{where}: n"))


# algebra is an AlgebraSpec, or an explicit LieAlgebra
ProblemSpec = namedtuple("ProblemSpec", "algebra sub j j1")


def parse(path) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}: {e.msg}") from None
    except (OSError, ValueError) as e:  # also non-UTF-8 bytes, and integer
        # literals longer than sys.get_int_max_str_digits()
        raise ParseError(f"cannot read spec file: {e}") from None
    except RecursionError:
        raise ParseError("spec file nests too deeply to read") from None
    return parse_obj(raw)


def parse_obj(raw) -> ProblemSpec:
    _require_keys(raw, {"algebra", "subalgebra", "j", "j1"}, {"algebra"},
                  "spec")
    algebra = _parse_algebra_spec(raw["algebra"])
    sub = raw.get("subalgebra", {"name": "zero"})
    _require_keys(sub, {"name", "k", "vectors"}, {"name"}, "subalgebra")
    for field, name in (("k", "block_u"), ("vectors", "span")):
        if field in sub and sub["name"] != name:
            raise ParseError(f"subalgebra: {field} is only for {name}")
    if "k" in sub:
        _require_int(sub["k"], "subalgebra: k")
    if sub["name"] == "span":
        if "vectors" not in sub:
            raise ParseError("subalgebra: span needs vectors")
        if not _lists(sub["vectors"]):
            raise ParseError("subalgebra: vectors must be a list of vectors")
        sub = dict(sub, vectors=[_parse_vec(v, "subalgebra.vectors")
                                 for v in sub["vectors"]])
    j, j1 = (_parse_matrix(raw[f], f) if f in raw else None
             for f in ("j", "j1"))
    return ProblemSpec(algebra, sub, j, j1)


def _build_algebra(ps: ProblemSpec):
    """(g, its AlgebraSpec), the spec None for an explicit table."""
    if isinstance(ps.algebra, AlgebraSpec):
        try:
            return build(ps.algebra), ps.algebra
        except InvalidSpec as e:
            raise ValidationError(str(e)) from None
    return ps.algebra, None


def _resolve_problem(ps: ProblemSpec) -> Quotient:
    """The problem g/h over the catalog's certified h, on a valid g."""
    g, aspec = _build_algebra(ps)
    if aspec is None and not (res := g.validate()).ok:
        raise ValidationError(f"explicit table invalid: {res.first_failure()}")
    return make_quotient(g, _subalgebra(ps, g, aspec))


def _subalgebra(ps: ProblemSpec, g, aspec):
    """The spec's h, certified by the catalog, in a valid g."""
    try:
        return build_subalgebra(g, aspec, ps.sub["name"], k=ps.sub.get("k"),
                                span=ps.sub.get("vectors"))
    except ExactError as e:
        raise ValidationError(str(e)) from None


def _structure(ps, quot) -> ComplexStructure:
    if ps.j is None:
        raise ValidationError("this command needs a j matrix in the spec")
    try:
        return ComplexStructure(quot, ps.j)
    except ExactError as e:
        raise ValidationError(str(e)) from None


def _invariant_structure(ps, quot, why=None) -> ComplexStructure:
    """The spec's J, required invariant; integrable too when why says why."""
    J = _structure(ps, quot)
    if not cx.is_invariant(J):
        raise ValidationError("j is not invariant under the isotropy action")
    if why and not cx.is_integrable(J):
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
    g, aspec = _build_algebra(ps)
    res = g.validate()
    if res.ok:
        _subalgebra(ps, g, aspec)
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
    J = _invariant_structure(ps, quot, "m is canonical only then")
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


def _construct(ps, quot, k, command):
    """(p, J): classify's parabolic number k, built alone, and J(p, J1) with
    the spec's J1 on the fiber of classify's m."""
    levi = quot.fact(cx.levi_systems, quot)
    if levi.reason:
        raise ValidationError(f"no structures exist: {levi.reason}")
    if k is None:
        raise ValidationError(f"{command} needs parabolic_index")
    if not 0 <= k < len(levi.systems):
        raise ValidationError(
            f"parabolic_index {k} out of range 0..{len(levi.systems) - 1}")
    p = build_parabolic(levi.datum, levi.m.m, levi.systems[k])
    u, j1 = levi.m.u, None
    if ps.j1 is not None:
        try:
            j1 = TorusComplexStructure(u, ps.j1)
        except ExactError as e:
            raise ValidationError(str(e)) from None
    return p, cx.construct_J(quot, p, j1)


def cmd_construct(ps, args):
    quot = _resolve_problem(ps)
    k = args.get("--parabolic-index")
    p, J = _construct(ps, quot, k, "construct")
    j1 = cx.fiber_structure(J, quot.fact(cx.levi_systems, quot).m.u)
    rep = _base_report("construct", quot.algebra, quot.h)
    rep["parabolic_index"] = k
    rep["parabolic"] = _ser_parabolic(k, p)
    rep["j"] = _ser_matrix(J.j)
    rep["j1"] = _ser_matrix(j1.j1)
    rep["fiber_basis"] = _ser_space(j1.u)
    return rep, EXIT_YES


def cmd_decompose(ps, args):
    quot = _resolve_problem(ps)
    J = _invariant_structure(ps, quot, "nothing to decompose")
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
    J = _invariant_structure(ps, quot, "ledger undefined")
    ledger = cx.verify_structure(J)
    seed = args.get("--seed", 0)
    trials, evaluations = cx.nijenhuis_perturbation_trials(J, seed=seed)
    ledger.append(trials)
    rep = _base_report("verify", quot.algebra, quot.h)
    rep["seed"] = seed
    rep["nijenhuis_evaluations"] = evaluations
    rep["ledger"] = _ser_ledger(ledger)
    ok = all(e.ok for e in ledger)
    rep["all_ok"] = ok
    return rep, EXIT_YES if ok else EXIT_VIOLATION


def cmd_symmetric(ps, args):
    quot = _resolve_problem(ps)
    if ps.j is None:
        p, J = _construct(ps, quot, args.get("--parabolic-index"), "symmetric")
    else:
        p, J = None, _invariant_structure(ps, quot)
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

# the inputs each command reads beside --spec, --command, --out and the
# spec's algebra and subalgebra; symmetric reads a j, or else the other two
READS = {"check": {"j"}, "m": {"j"}, "decompose": {"j"},
         "verify": {"j", "--seed"}, "construct": {"--parabolic-index", "j1"},
         "symmetric": {"j", "--parabolic-index", "j1"}}


def _refuse_unread(command, args, ps):
    """Refuse the first flag or spec field that command does not read."""
    reads = READS.get(command, ())
    if command == "symmetric" and ps.j is not None:
        if "--parabolic-index" in args:
            raise ValidationError(
                "symmetric takes j or --parabolic-index, not both")
        reads = {"j"}
    given = dict(args, j=ps.j, j1=ps.j1)
    for name in ("--parabolic-index", "--seed", "j", "j1"):
        if given.get(name) is not None and name not in reads:
            raise ValidationError(f"{command} does not read {name}")


# ---------------------------------------------------------------------------
# entry point

def _decimal(text):
    """An integer written in ASCII digits after an optional minus; int()
    would also read "\u0663", "1_0", "+1" and " 3"."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _command(text):
    if text not in COMMANDS:
        raise ValueError(f"invalid choice: {text!r}")
    return text


# the flags, each given once as --flag VALUE or --flag=VALUE, and the
# reader of each value
_FLAGS = {"--spec": str, "--command": _command, "--parabolic-index": _decimal,
          "--seed": _decimal, "--out": str}

_USAGE = ("usage: liecx --spec SPEC --command {" + ",".join(COMMANDS) + "}\n"
          "             [--parabolic-index K] [--seed N] [--out PATH]")


def _read_argv(argv):
    """(values, error): each flag's value, read in one pass over argv, and
    the first flag error, or (None, None) for -h or --help.  A missing,
    repeated or unreadable value comes before a required flag missing, and
    that before the tokens that are no flag."""
    tokens, values, seen, errors, extras = argv[::-1], {}, set(), [], []
    while tokens:
        token = tokens.pop()
        if token in ("-h", "--help"):
            return None, None
        flag, eq, text = token.partition("=")
        if flag not in _FLAGS:
            extras.append(token)
            continue
        if not eq:
            if not tokens or tokens[-1].startswith("--") or tokens[-1] == "-h":
                errors.append(f"argument {flag}: expected one argument")
                continue
            text = tokens.pop()
        if flag in seen:
            errors.append(f"{flag} is given twice")
            continue
        seen.add(flag)
        try:
            values[flag] = _FLAGS[flag](text)
        except ValueError as e:
            errors.append(f"argument {flag}: {e}")
    missing = ", ".join(f for f in ("--spec", "--command") if f not in seen)
    if missing:
        errors.append(f"the following arguments are required: {missing}")
    if extras:
        errors.append("unrecognized arguments: " + " ".join(extras))
    return values, errors[0] if errors else None


def _emit(text, out, code):
    """Write text to the path out, else to stdout, and return code;
    EXIT_INPUT, with one line on stderr, when it cannot be written."""
    try:
        if not (out or sys.stdout):  # fd 1 was closed when Python started
            raise OSError("stdout is closed")
        with open(out, "w") if out else nullcontext(sys.stdout) as fh:
            print(text, file=fh, flush=True)
    except OSError as e:
        if not out and sys.stdout:  # the exit-time flush would fail again
            # on the bytes that a buffered stdout could not write
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"liecx: cannot write the report: {e}", file=sys.stderr)
        return EXIT_INPUT
    return code


def main(argv=None):
    args, error = _read_argv(list(sys.argv[1:] if argv is None else argv))
    if args is None:
        return _emit(_USAGE, None, EXIT_YES)
    command = args.get("--command")
    try:
        if error:
            raise ParseError(error)
        ps = parse(args["--spec"])
        _refuse_unread(command, args, ps)
        report, code = COMMANDS[command](ps, args)
    except TheoremViolation as e:
        report, code = {"command": command, "error": "TheoremViolation",
                        "message": str(e)}, EXIT_VIOLATION
    except (ParseError, ValidationError, ExactError) as e:
        report, code = {"command": command, "error": type(e).__name__,
                        "message": str(e)}, EXIT_INPUT
    except Exception as e:  # a bug; SIGTERM-style BaseExceptions pass through
        report, code = {"command": command, "error": "InternalError",
                        "message": f"{type(e).__name__}: {e}"}, EXIT_INTERNAL
    return _emit(json.dumps(report, indent=2), args.get("--out"), code)


if __name__ == "__main__":
    sys.exit(main())
