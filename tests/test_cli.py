"""CLI: strict parsing, exit-code contract, deterministic reports."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from liecx import catalog, cli, cx, exact, liealg, roots

from conftest import profiled


SU3_T = {"algebra": {"kind": "su", "n": 3},
         "subalgebra": {"name": "maximal_torus"}}

SWAP_J = [["0", "0", "0", "-1", "0", "0"],
          ["0", "0", "0", "0", "-1", "0"],
          ["0", "0", "0", "0", "0", "-1"],
          ["1", "0", "0", "0", "0", "0"],
          ["0", "1", "0", "0", "0", "0"],
          ["0", "0", "1", "0", "0", "0"]]

SU2SU2 = {"kind": "sum", "parts": [{"kind": "su", "n": 2},
                                   {"kind": "su", "n": 2}]}

S2 = {"algebra": {"kind": "su", "n": 2},
      "subalgebra": {"name": "span", "vectors": [["0", "0", "1"]]},
      "j": [["0", "-1"], ["1", "0"]]}


def write_spec(tmp_path, obj, name="spec.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(tmp_path, spec, command, *extra):
    path = write_spec(tmp_path, spec)
    out = tmp_path / "report.json"
    code = cli.main(["--spec", path, "--command", command,
                     "--out", str(out), *extra])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# parsing

def test_parse_valid_spec():
    ps = cli.parse_obj(SU3_T)
    assert ps.algebra.label() == "su(3)"


def test_parse_rejects_unknown_field():
    with pytest.raises(cli.ParseError):
        cli.parse_obj(dict(SU3_T, bogus=1))


def test_parse_rejects_bad_rational():
    with pytest.raises(cli.ParseError):
        cli.parse_obj(dict(SU3_T, j=[["1/0"]]))


def su2_span(x):
    return {"algebra": {"kind": "su", "n": 2},
            "subalgebra": {"name": "span", "vectors": [[x, "0", "0"]]}}


# what fractions.Fraction parses, and bare JSON numbers read through str
ACCEPTED_RATIONALS = [("1.5e0", Fraction(3, 2)), ("-25E-3", Fraction(-1, 40)),
                      ("0.5", Fraction(1, 2)),
                      ("1_000", Fraction(1000)), (" 3 ", Fraction(3)),
                      (0.5, Fraction(1, 2)), ("-3/4", Fraction(-3, 4))]
REJECTED_RATIONALS = ["1/0", "1/-2", "inf", "nan", True, None, [1]]


@pytest.mark.parametrize("x,value", ACCEPTED_RATIONALS,
                         ids=[repr(x) for x, _ in ACCEPTED_RATIONALS])
def test_rational_literals_accepted(tmp_path, x, value):
    assert cli.parse_obj(su2_span(x)).sub["vectors"][0][0] == value
    code, rep = run(tmp_path, su2_span(x), "catalog")
    assert code == 0 and rep["dim_h"] == 1


@pytest.mark.parametrize("x", REJECTED_RATIONALS, ids=repr)
def test_rational_literals_rejected(tmp_path, x):
    code, rep = run(tmp_path, su2_span(x), "catalog")
    assert code == 2 and rep["error"] == "ParseError"


# Fraction would build the integer 10**|exp| first, which at these sizes
# takes from seconds to minutes, or (for 2,000,000,000) about 830 MB
@pytest.mark.parametrize("x", ["1e20000000", "1e-20000000", "0e2000000000"])
def test_huge_decimal_exponents_are_an_input_error(tmp_path, x):
    start = time.perf_counter()
    code, rep = run(tmp_path, su2_span(x), "catalog")
    assert time.perf_counter() - start < 1.0
    assert (code, rep["error"]) == (2, "ParseError")
    assert "exponent out of range" in rep["message"]


# an integer beyond the interpreter's bound on the digits it writes (4,300
# by default) cannot be printed: here RREF makes the first span vector's
# denominator 3 * (10**4300 - 1), and 10**4300 itself
@pytest.mark.parametrize("vector", [["3", "1/" + "9" * 4300, "0"],
                                    ["1e4300", "1", "0"]],
                         ids=["denominator", "exponent"])
def test_report_entries_too_long_to_write_are_an_input_error(tmp_path,
                                                             vector):
    spec = {"algebra": {"kind": "su", "n": 2},
            "subalgebra": {"name": "span", "vectors": [vector]}}
    code, rep = run(tmp_path, spec, "catalog")
    assert code == 2
    assert rep == {"command": "catalog", "error": "ExactError",
                   "message": "a report entry has more than "
                              f"{sys.get_int_max_str_digits()} digits"}


@pytest.mark.parametrize("out", ["missing_dir", "directory"])
@pytest.mark.parametrize("spec", [S2, dict(S2, j=[["1/0"]])],
                         ids=["report", "error_report"])
def test_an_unwritable_out_is_an_input_error(tmp_path, capsys, out, spec):
    path = write_spec(tmp_path, spec)
    target = tmp_path / "no" / "such" / "x.json" if out == "missing_dir" \
        else tmp_path
    code = cli.main(["--spec", path, "--command", "check",
                     "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("liecx: cannot write the report: ")
    assert len(captured.err.splitlines()) == 1


def test_a_closed_stdout_is_an_input_error(tmp_path):
    # stdout is a pipe whose reader has gone, as when `liecx ... | head`
    # ends first: one line on stderr, and no traceback from the exit-time
    # flush either, which only a buffered stdout, the default, runs into
    read, write = os.pipe()
    os.close(read)
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "liecx.cli", "--spec",
             write_spec(tmp_path, S2), "--command", "catalog"],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("liecx: cannot write the report: ")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_a_closed_fd_1_is_an_input_error(tmp_path):
    # fd 1 closed before the interpreter starts (`liecx ... >&-`): Python
    # sets sys.stdout to None, and a print to None writes nothing
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, sys; os.close(1); os.execv(sys.argv[1], sys.argv[1:])",
         sys.executable, "-m", "liecx.cli", "--spec",
         write_spec(tmp_path, S2), "--command", "catalog"],
        stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == "liecx: cannot write the report: stdout is closed\n"


def test_wrong_j_dimension_is_input_error(tmp_path):
    code, rep = run(tmp_path, dict(SU3_T, j=[["0", "-1"], ["1", "0"]]),
                    "check")
    assert code == 2
    assert "6x6" in rep["message"]


# ---------------------------------------------------------------------------
# commands and exit codes

def test_classify_su3_t(tmp_path):
    code, rep = run(tmp_path, SU3_T, "classify")
    assert code == 0
    assert rep["exists"] is True
    assert len(rep["parabolics"]) == 6
    assert rep["fiber_dim"] == 0


def test_classify_su2_0_is_clean_no(tmp_path):
    spec = {"algebra": {"kind": "su", "n": 2}, "subalgebra": {"name": "zero"}}
    code, rep = run(tmp_path, spec, "classify")
    assert code == 1
    assert rep["exists"] is False and rep["reason"] == "odd_dimension"


def test_classify_diagonal_su3_in_su3_plus_su3_is_not_a_centralizer(
        tmp_path):
    # C(h) = 0 for the diagonal h, so m = h and center(m) = 0, whose
    # centralizer is all of g
    spec = {"algebra": {"kind": "sum", "parts": [{"kind": "su", "n": 3}] * 2},
            "subalgebra": {"name": "span", "vectors": [
                [str(int(k in (i, 8 + i))) for k in range(16)]
                for i in range(8)]}}
    code, rep = run(tmp_path, spec, "classify")
    assert code == 1
    assert rep["exists"] is False
    assert rep["reason"] == "m_not_centralizer_of_its_center"
    entry = next(e for e in rep["ledger"]
                 if e["name"] == "m_is_centralizer_of_its_center")
    assert entry["ok"] is False
    assert entry["detail"] == "dim m = 8, dim center(m) = 0"
    code, rep = run(tmp_path, spec, "construct", "--parabolic-index", "0")
    assert code == 2
    assert rep["message"] == \
        "no structures exist: m_not_centralizer_of_its_center"


def test_symmetric_without_j_or_index_names_itself(tmp_path):
    # with no j, symmetric builds J from a parabolic, as construct does; a
    # missing index is reported for the command that ran, and a problem
    # without structures is reported first
    code, rep = run(tmp_path, SU3_T, "symmetric")
    assert (code, rep["message"]) == (2, "symmetric needs parabolic_index")
    odd = {"algebra": {"kind": "su", "n": 2}, "subalgebra": {"name": "zero"}}
    code, rep = run(tmp_path, odd, "symmetric")
    assert (code, rep["message"]) == (2, "no structures exist: odd_dimension")


def test_check_swap_structure_witness(tmp_path):
    spec = {"algebra": SU2SU2, "subalgebra": {"name": "zero"}, "j": SWAP_J}
    code, rep = run(tmp_path, spec, "check")
    assert code == 1
    assert rep["invariant"] is True and rep["integrable"] is False
    w = rep["nijenhuis_witness"]
    assert w["basis_pair"] == [0, 1]
    assert w["value"] == ["0", "0", "1", "0", "0", "-1"]


def test_check_s2(tmp_path):
    code, rep = run(tmp_path, S2, "check")
    assert code == 0 and rep["integrable"] is True


def test_m_command(tmp_path):
    code, rep = run(tmp_path, S2, "m")
    assert code == 0
    assert rep["dim_m"] == 1 and rep["fiber_dim"] == 0
    assert rep["m_basis"] == [["0", "0", "1"]]


def test_construct_decompose_roundtrip(tmp_path):
    code, rep = run(tmp_path, SU3_T, "construct", "--parabolic-index", "2")
    assert code == 0
    spec = dict(SU3_T, j=rep["j"])
    code2, rep2 = run(tmp_path, spec, "decompose")
    assert code2 == 0
    assert rep2["parabolic_index"] == 2
    assert rep2["parabolic"]["positive_set"] == rep["parabolic"]["positive_set"]
    assert rep2["j1"] == rep["j1"]


def test_construct_index_out_of_range(tmp_path):
    code, rep = run(tmp_path, SU3_T, "construct", "--parabolic-index", "9")
    assert code == 2


def test_verify_command(tmp_path):
    code, rep = run(tmp_path, S2, "verify", "--seed", "5")
    assert code == 0
    assert rep["all_ok"] is True
    assert rep["seed"] == 5
    names = {e["name"] for e in rep["ledger"]}
    assert {"gc_equals_g_plus_l", "hc_equals_l_cap_tau_l", "dim_l",
            "nijenhuis_well_defined"} <= names


def test_symmetric_command(tmp_path):
    code, rep = run(tmp_path, S2, "symmetric")
    assert code == 0 and rep["status"] == "symmetric"
    code2, rep2 = run(tmp_path, SU3_T, "symmetric", "--parabolic-index", "0")
    assert code2 == 1 and rep2["status"] == "not_applicable"


def test_catalog_and_validate(tmp_path):
    code, rep = run(tmp_path, SU3_T, "catalog")
    assert code == 0
    assert rep["dim_g"] == 8 and rep["dim_h"] == 2 and rep["dim_quotient"] == 6
    code2, rep2 = run(tmp_path, SU3_T, "validate")
    assert code2 == 0 and rep2["ok"] is True


def test_validate_explicit_table_clean_no(tmp_path):
    # torus(1) with a 1x1 table is valid; a broken su(2)-like table is not
    good = {"algebra": {"table": [[["0"]]]}}
    code, rep = run(tmp_path, good, "validate")
    assert code == 0
    bad = {"algebra": {"table": [
        [["0", "0"], ["1", "0"]],
        [["1", "0"], ["0", "0"]]]}}  # not antisymmetric
    code2, rep2 = run(tmp_path, bad, "validate")
    assert code2 == 1 and rep2["ok"] is False and rep2["failures"]
    # other commands reject the invalid table as an input error
    code3, rep3 = run(tmp_path, dict(bad, subalgebra={"name": "zero"}),
                      "classify")
    assert code3 == 2


@pytest.mark.parametrize("n, vectors, message", [
    (2, [["1", "0"]], "vector of length 2 in ambient 3"),
    (3, [[str(int(i == k)) for i in range(8)] for k in (0, 1)],
     "subspace is not closed under the bracket")])
def test_validate_builds_the_subalgebra_it_is_given(tmp_path, n, vectors,
                                                    message):
    # a valid g with an h that cannot be built: validate refuses it as
    # catalog does
    spec = {"algebra": {"kind": "su", "n": n},
            "subalgebra": {"name": "span", "vectors": vectors}}
    for command in ("validate", "catalog"):
        assert run(tmp_path, spec, command) == (2, {
            "command": command, "error": "ValidationError",
            "message": message})


def test_validate_reports_an_invalid_table_before_any_subalgebra(tmp_path):
    bad = {"algebra": {"table": [[["0", "0"], ["1", "0"]],
                                 [["1", "0"], ["0", "0"]]]},
           "subalgebra": {"name": "span", "vectors": [["1", "0", "0"]]}}
    code, rep = run(tmp_path, bad, "validate")
    assert code == 1 and rep["ok"] is False and rep["failures"]


@pytest.mark.parametrize("rows, cols", [(2, 3), (4, 3), (3, 2), (2, 2)])
@pytest.mark.parametrize("command", ["validate", "classify"])
def test_inner_product_of_the_wrong_shape_is_input_error(tmp_path, rows,
                                                         cols, command):
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):  # su(2)
        table[i][j][k], table[j][i][k] = "1", "-1"
    inner = [[str(int(i == j)) for j in range(cols)] for i in range(rows)]
    spec = {"algebra": {"table": table, "inner_product": inner},
            "subalgebra": {"name": "zero"}}
    code, rep = run(tmp_path, spec, command)
    assert code == 2 and rep["error"] == "DimensionMismatch"
    assert f"{rows}x{cols}" in rep["message"]


def test_reports_are_deterministic(tmp_path):
    path = write_spec(tmp_path, SU3_T)
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["--spec", path, "--command", "classify",
                     "--out", str(o1)]) == 0
    assert cli.main(["--spec", path, "--command", "classify",
                     "--out", str(o2)]) == 0
    assert o1.read_text() == o2.read_text()


def test_missing_spec_file(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["--spec", str(tmp_path / "nope.json"),
                     "--command", "classify", "--out", str(out)])
    assert code == 2


# ---------------------------------------------------------------------------
# malformed shapes are input errors (exit 2), never a crash into exit 1

def test_table_that_is_not_a_list_is_input_error(tmp_path):
    code, rep = run(tmp_path, {"algebra": {"table": 5}}, "validate")
    assert code == 2 and rep["error"] == "ParseError"


def test_block_u_k_must_be_an_integer(tmp_path):
    spec = {"algebra": {"kind": "su", "n": 3},
            "subalgebra": {"name": "block_u", "k": "2"}}
    code, rep = run(tmp_path, spec, "catalog")
    assert code == 2 and rep["error"] == "ParseError"
    assert rep["message"] == "subalgebra: k must be an integer"


ONE_DIM_TABLE = {"table": [[["0"]]]}


@pytest.mark.parametrize("algebra,sub,message", [
    ({"kind": "su", "n": 3}, {"name": "block_u"}, "block_u needs k"),
    (ONE_DIM_TABLE, {"name": "block_u"}, "block_u needs k"),
    (ONE_DIM_TABLE, {"name": "block_u", "k": 1},
     "block_u needs a catalog algebra"),
    (ONE_DIM_TABLE, {"name": "maximal_torus"},
     "maximal_torus needs a catalog algebra"),
    ({"kind": "u", "n": 3}, {"name": "block_u", "k": 2},
     "block_u is only defined for su(n)"),
], ids=["block_u_no_k", "block_u_no_k_on_table", "block_u_on_table",
        "maximal_torus_on_table", "block_u_off_su"])
def test_named_subalgebra_needs(tmp_path, algebra, sub, message):
    code, rep = run(tmp_path, {"algebra": algebra, "subalgebra": sub},
                    "catalog")
    assert code == 2
    assert rep == {"command": "catalog", "error": "ValidationError",
                   "message": message}


def test_span_vectors_must_be_a_list_of_vectors(tmp_path):
    spec = {"algebra": {"kind": "su", "n": 2},
            "subalgebra": {"name": "span", "vectors": 5}}
    code, rep = run(tmp_path, spec, "catalog")
    assert code == 2 and rep["error"] == "ParseError"


def test_boolean_is_not_an_integer(tmp_path):
    code, rep = run(tmp_path, {"algebra": {"kind": "su", "n": True}},
                    "validate")
    assert code == 2 and rep["message"] == "algebra: n must be an integer"


def test_unexpected_error_exits_4_with_a_report(tmp_path, monkeypatch,
                                                capsys):
    def broken(ps, args):
        raise RuntimeError("boom")
    monkeypatch.setitem(cli.COMMANDS, "classify", broken)
    code, rep = run(tmp_path, SU3_T, "classify")
    assert code == cli.EXIT_INTERNAL == 4
    assert rep == {"command": "classify", "error": "InternalError",
                   "message": "RuntimeError: boom"}
    assert "Traceback" not in capsys.readouterr().err


def test_theorem_violation_exits_3_with_a_report(tmp_path, monkeypatch):
    # a certificate that fails is reported as the theorem it violates
    monkeypatch.setattr(cx, "is_closed", lambda g, s: False)
    code, rep = run(tmp_path, S2, "check")
    assert code == cli.EXIT_VIOLATION == 3
    assert rep == {"command": "check", "error": "TheoremViolation",
                   "message": "integrability methods disagree: N==0 is "
                              "True, closure is False"}


# ---------------------------------------------------------------------------
# J1 for construct: the spec's, checked

SU2SU2_0 = {"algebra": SU2SU2, "subalgebra": {"name": "zero"}}
K0 = ("--parabolic-index", "0")
DEFAULT_J1 = [["0", "-1"], ["1", "0"]]
FLIPPED_J1 = [["0", "1"], ["-1", "0"]]


@pytest.mark.parametrize("spec_j1,j1", [
    (None, DEFAULT_J1),
    ([["1", "-2"], ["1", "-1"]], [["1", "-2"], ["1", "-1"]]),
    (FLIPPED_J1, FLIPPED_J1)], ids=["none", "spec", "flipped"])
def test_construct_takes_j1_from_the_spec(tmp_path, spec_j1, j1):
    # the fiber of su(2)+su(2)/0 for k = 0 is spanned by the two Cartan
    # generators; with no j1, J1 pairs them in order
    spec = SU2SU2_0 if spec_j1 is None else dict(SU2SU2_0, j1=spec_j1)
    code, rep = run(tmp_path, spec, "construct", *K0)
    assert code == 0
    assert rep["j1"] == j1
    assert rep["fiber_basis"] == [["1", "0", "0", "0", "0", "0"],
                                  ["0", "0", "0", "1", "0", "0"]]


@pytest.mark.parametrize("j1,message", [
    ([["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
     "j1 has shape 3x3, expected 2x2"),
    ([["1", "0"], ["0", "1"]], "J1^2 != -id")], ids=["shape", "square"])
def test_a_bad_j1_is_an_input_error(tmp_path, j1, message):
    code, rep = run(tmp_path, dict(SU2SU2_0, j1=j1), "construct",
                    *K0)
    assert (code, rep["error"], rep["message"]) == (
        2, "ValidationError", message)


# each input has one route: the index was also a spec field, and j1 also a
# flag naming a file or "default"
@pytest.mark.parametrize("spec", [{"parabolic_index": 0}, {"j1": "default"}],
                         ids=["parabolic_index", "j1_default"])
def test_the_removed_spec_routes_exit_2(tmp_path, spec):
    code, rep = run(tmp_path, dict(SU2SU2_0, **spec), "construct", *K0)
    assert (code, rep["error"]) == (2, "ParseError")


# a null j or j1 is no second spelling of an absent one
@pytest.mark.parametrize("field,command,flags", [
    ("j", "classify", ()), ("j1", "construct", K0)], ids=["j", "j1"])
def test_a_null_j_or_j1_is_an_input_error(tmp_path, field, command, flags):
    code, rep = run(tmp_path, dict(SU3_T, **{field: None}), command, *flags)
    assert (code, rep) == (2, {"command": command, "error": "ParseError",
                               "message": f"{field}: expected a list of rows"})


def run_flags(tmp_path, capsys, argv):
    """main's exit code and report on argv: the --out file when there is
    one, else stdout; nothing may go to stderr."""
    out = tmp_path / "report.json"
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    if out.exists():
        assert captured.out == ""
        return code, json.loads(out.read_text())
    return code, json.loads(captured.out)


# a flag error is an input error with the one error report
@pytest.mark.parametrize("file", [False, True], ids=["default", "file"])
def test_the_removed_j1_flag_exits_2(tmp_path, capsys, file):
    (tmp_path / "j1.json").write_text(json.dumps(FLIPPED_J1))
    value = str(tmp_path / "j1.json") if file else "default"
    code, rep = run_flags(tmp_path, capsys, [
        "--spec", write_spec(tmp_path, SU2SU2_0), "--command", "construct",
        "--out", str(tmp_path / "report.json"), *K0, "--j1", value])
    assert (code, rep) == (2, {
        "command": "construct", "error": "ParseError",
        "message": f"unrecognized arguments: --j1 {value}"})


@pytest.mark.parametrize("flags,command,message", [
    (["--command", "construct", "--parabolic-index", "x"], "construct",
     "argument --parabolic-index: not a decimal integer: 'x'"),
    (["--parabolic-index", "0"], None,
     "the following arguments are required: --command"),
    # of several errors, a bad value is reported first, then a missing flag
    (["--j1", "default", "--parabolic-index", "x"], None,
     "argument --parabolic-index: not a decimal integer: 'x'"),
    (["--j1", "default"], None,
     "the following arguments are required: --command"),
], ids=["bad_index", "no_command", "bad_value_first", "missing_flag_next"])
def test_a_flag_error_writes_the_error_report(tmp_path, capsys, flags,
                                              command, message):
    code, rep = run_flags(tmp_path, capsys, [
        "--spec", write_spec(tmp_path, SU2SU2_0), *flags,
        "--out", str(tmp_path / "report.json")])
    assert (code, rep) == (2, {"command": command, "error": "ParseError",
                               "message": message})


# each flag has one spelling: no abbreviation, no repeat, and integers in
# ASCII decimal digits after an optional minus
SPELLINGS = {
    "spe": ["--spe", "SPEC", "--command", "catalog"],
    "comm": ["--spec", "SPEC", "--comm", "catalog"],
    "ou": ["--spec", "SPEC", "--command", "catalog", "--ou", "OUT"],
    "index_twice": ["--spec", "SPEC", "--command", "construct",
                    "--parabolic-index", "1", "--parabolic-index", "2"],
    "seed_twice": ["--spec", "SPEC", "--command", "verify", "--seed", "0",
                   "--seed", "0"],
    "out_twice": ["--spec", "SPEC", "--command", "catalog", "--out", "OUT",
                  "--out", "OUT"],
    "arabic_indic_digit": ["--spec", "SPEC", "--command", "construct",
                           "--parabolic-index", "\u0663"],
    "underscore": ["--spec", "SPEC", "--command", "construct",
                   "--parabolic-index", "1_0"],
    "plus": ["--spec", "SPEC", "--command", "construct",
             "--parabolic-index", "+1"],
    "space": ["--spec", "SPEC", "--command", "construct",
              "--parabolic-index", " 3"],
}


@pytest.mark.parametrize("name", sorted(SPELLINGS))
def test_each_flag_has_one_spelling(tmp_path, capsys, name):
    spec = write_spec(tmp_path, SU2SU2_0)
    argv = [{"SPEC": spec, "OUT": str(tmp_path / "report.json")}.get(a, a)
            for a in SPELLINGS[name]]
    code, rep = run_flags(tmp_path, capsys, argv)
    assert (code, rep["error"]) == (2, "ParseError")


@pytest.mark.parametrize("argv", [["--help"], ["-h"],
                                  ["--seed", "x", "--spe", "-h", "--out"],
                                  ["--spec", "-h"]],
                         ids=["help", "h", "amid_errors", "no_value"])
def test_help_prints_the_usage(capsys, argv):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: liecx --spec SPEC --command {")
    assert captured.err == ""


# argv drawn from the five flags, each as --flag VALUE or --flag=VALUE,
# repeated, without a value, with an unreadable value, and among tokens
# that are no flag, in any order.  The first value of each list is valid.
FLAG_VALUES = {"--spec": ["SPEC"], "--command": ["catalog", "nope", ""],
               "--parabolic-index": ["0", "x", "+1", "1_0", "\u0663", " 3",
                                     "", "1" * 5001],
               "--seed": ["-7", "-", "\u22127", "0x1", "1e3", "-0.5"],
               "--out": ["OUT"]}
# tokens that are no flag: those among the items start with "--", so none
# is read as the value of a flag given without one, and bare words and
# single-dash tokens lead argv
NOT_FLAGS = ["--j1", "--spe", "--ou", "--seed-", "--", "--spec-file=x"]
BARE = ["stray", "-x", "-1", "-", "catalog", "SPEC"]


def flag_item(flag):
    """(flag, its value or None for none, whether it is spelled with =)."""
    return st.tuples(st.just(flag),
                     st.sampled_from([None, *FLAG_VALUES[flag]]),
                     st.booleans())


# the flags that catalog reads; it reads no --parabolic-index or --seed
CATALOG_FLAGS = ["--command", "--out", "--spec"]
# --spec and --command, and any of the other flags, each once with its
# first value: exactly valid when catalog reads every flag given
READABLE_ITEMS = st.permutations(sorted(FLAG_VALUES)).flatmap(
    lambda flags: st.tuples(*[st.tuples(
        st.just(f), st.just(FLAG_VALUES[f][0]), st.booleans())
        for f in flags])).flatmap(
    lambda items: st.sets(st.sampled_from(
        ["--out", "--parabolic-index", "--seed"])).map(
        lambda dropped: [i for i in items if i[0] not in dropped]))
ITEMS = st.one_of(READABLE_ITEMS, st.lists(st.one_of(
    st.sampled_from(sorted(FLAG_VALUES)).flatmap(flag_item),
    st.sampled_from(NOT_FLAGS).map(lambda t: (t, None, False))), max_size=8))


@settings(max_examples=200, deadline=None, suppress_health_check=[
    HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(BARE), max_size=2), ITEMS)
def test_every_argv_that_is_not_exactly_valid_exits_2(tmp_path, capsys, bare,
                                                     items):
    """Every argv but an exactly valid one writes the one flag-error report
    to the --out that it names, else to stdout, and exits 2; none exits 4,
    and nothing goes to stderr.  A readable --parabolic-index or --seed,
    which catalog does not read, is a ValidationError."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    spec = {k: v for k, v in S2.items() if k != "j"}  # catalog reads no j
    names = {"SPEC": write_spec(tmp_path, spec), "OUT": str(out)}
    argv = [names.get(t, t) for t in bare]
    for flag, value, eq in items:
        value = names.get(value, value)
        argv += ([flag] if value is None else [f"{flag}={value}"] if eq
                 else [flag, value])
    given_flags = [flag for flag, _, _ in items]
    readable = (not bare and len(set(given_flags)) == len(given_flags)
                and {"--spec", "--command"} <= set(given_flags)
                and all(flag in FLAG_VALUES and value == FLAG_VALUES[flag][0]
                        for flag, value, _ in items))
    valid = readable and set(given_flags) <= set(CATALOG_FLAGS)
    named = any(flag == "--out" and value for flag, value, _ in items)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert out.exists() == named
    report = json.loads(out.read_text() if named else captured.out)
    if named:
        assert captured.out == ""
    if valid:
        assert (code, report["command"]) == (0, "catalog")
        return
    assert code == 2, argv
    assert list(report) == ["command", "error", "message"]
    if readable:
        unread = next(f for f in ("--parabolic-index", "--seed")
                      if f in given_flags)
        assert report == {"command": "catalog", "error": "ValidationError",
                          "message": f"catalog does not read {unread}"}
        return
    assert report["error"] == "ParseError"
    assert report["command"] in ("catalog", None)
    if ("--command", "catalog") not in {(f, v) for f, v, _ in items}:
        assert report["command"] is None


# ---------------------------------------------------------------------------
# a spec's j that is no structure, or not an invariant one

# J^2 = -id on su(3)/t, turning the root plane of e_0 - e_1 into that of
# e_0 - e_2, which the torus rotates at another speed
MIXING_J = [["0", "0", "-1", "0", "0", "0"],
            ["0", "0", "0", "-1", "0", "0"],
            ["1", "0", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"]]


def test_a_j_whose_square_is_not_minus_id_is_an_input_error(tmp_path):
    j = [["1", "0"], ["0", "1"]]
    code, rep = run(tmp_path, dict(S2, j=j), "check")
    assert (code, rep["error"], rep["message"]) == (
        2, "ValidationError", "J^2 != -id")


@pytest.mark.parametrize("command", ["m", "verify", "symmetric"])
def test_a_non_invariant_j_is_an_input_error(tmp_path, command):
    code, rep = run(tmp_path, dict(SU3_T, j=MIXING_J), command)
    assert (code, rep["error"], rep["message"]) == (
        2, "ValidationError", "j is not invariant under the isotropy action")


@pytest.mark.parametrize("command,why", [
    ("m", "m is canonical only then"), ("decompose", "nothing to decompose"),
    ("verify", "ledger undefined")])
def test_a_non_integrable_j_is_an_input_error(tmp_path, command, why):
    # symmetric answers not_applicable on the same J (a golden case)
    code, rep = run(tmp_path, dict(SU3_T, j=PNP_J), command)
    assert (code, rep["error"], rep["message"]) == (
        2, "ValidationError", f"j is not integrable; {why}")


def test_symmetric_takes_j_by_one_route(tmp_path):
    # a spec's j, or J built from the parabolic the index names; not both
    code, rep = run(tmp_path, S2, "symmetric", "--parabolic-index", "1")
    assert (code, rep) == (2, {
        "command": "symmetric", "error": "ValidationError",
        "message": "symmetric takes j or --parabolic-index, not both"})


# which commands read each input beside --spec, --command, --out and the
# spec's algebra and subalgebra; symmetric reads a j, or else the
# parabolic --parabolic-index names and a j1
READ_BY = {"--parabolic-index": {"construct", "symmetric"},
           "--seed": {"verify"},
           "j": {"check", "m", "decompose", "verify", "symmetric"},
           "j1": {"construct", "symmetric"}}
UNREAD = [(command, name) for name, readers in READ_BY.items()
          for command in sorted(cli.COMMANDS) if command not in readers]


@pytest.mark.parametrize("command,name", UNREAD,
                         ids=[f"{c}-{n}" for c, n in UNREAD])
def test_an_input_the_command_does_not_read_is_an_input_error(
        tmp_path, capsys, command, name):
    # classify --seed 5 and check --parabolic-index 3 ran as if the flag
    # were absent
    spec = {k: v for k, v in S2.items() if k != "j"}
    extra = []
    if name.startswith("--"):
        extra = [name, "3" if name == "--parabolic-index" else "5"]
    else:
        spec[name] = S2["j"]
    code, rep = run(tmp_path, spec, command, *extra)
    assert (code, rep) == (2, {
        "command": command, "error": "ValidationError",
        "message": f"{command} does not read {name}"})
    assert capsys.readouterr() == ("", "")


def test_symmetric_with_a_j_reads_no_j1(tmp_path):
    code, rep = run(tmp_path, dict(S2, j1=S2["j"]), "symmetric")
    assert (code, rep) == (2, {
        "command": "symmetric", "error": "ValidationError",
        "message": "symmetric does not read j1"})


# ---------------------------------------------------------------------------
# malformed spec files and fields

@pytest.mark.parametrize("text,message", [
    ('{"algebra": ', "invalid JSON at line 1: "),
    (json.dumps(dict(S2, j=[["0", "-1"], ["1"]])), "j: ragged rows"),
    (json.dumps({"algebra": {"kind": "su"}}), "algebra: su needs n"),
    (json.dumps({"algebra": {"table": [[["0", "0"]], []]}}),
     "algebra.table: expected 2x2 of vectors"),
    # each field has one spelling: a key once per object, and k and
    # vectors only on the names that take them
    ('{"algebra": {"kind": "su", "n": 3}, "algebra": {"kind": "so", "n": 5}}',
     "field 'algebra' is given twice in one object"),
    ('{"algebra": {"kind": "su", "n": 3, "n": 3}}',
     "field 'n' is given twice in one object"),
    (json.dumps(dict(SU3_T, subalgebra={"name": "maximal_torus", "k": 2})),
     "subalgebra: k is only for block_u"),
    (json.dumps(dict(SU3_T, subalgebra={"name": "zero",
                                        "vectors": [["1"] + ["0"] * 7]})),
     "subalgebra: vectors is only for span"),
    # bytes json.load cannot read: a byte that is not UTF-8, and an integer
    # literal longer than sys.get_int_max_str_digits() (4,300 by default)
    (b'{"algebra": "\xff"}',
     "cannot read spec file: 'utf-8' codec can't decode byte 0xff"),
    (b'{"algebra": {"kind": "su", "n": ' + b"1" * 5001 + b"}}",
     "cannot read spec file: Exceeds the limit"),
    # n only on a catalog kind, parts only on a sum
    (json.dumps({"algebra": dict(SU2SU2, kind="su", n=2)}),
     "algebra: parts is only for sum"),
    (json.dumps({"algebra": dict(SU2SU2, n=7)}), "algebra: n is not for sum"),
    (json.dumps({"algebra": dict(SU2SU2, n="x")}),
     "algebra: n is not for sum")],
    ids=["json", "ragged", "no_n", "table_row", "repeated_key",
         "repeated_inner_key", "k_off_block_u", "vectors_off_span",
         "not_utf8", "long_integer", "parts_off_sum", "n_on_sum",
         "bad_n_on_sum"])
def test_malformed_specs_are_parse_errors(tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "report.json"
    code = cli.main(["--spec", str(path), "--command", "catalog",
                     "--out", str(out)])
    rep = json.loads(out.read_text())
    assert (code, rep["error"]) == (2, "ParseError")
    assert rep["message"].startswith(message)


# ---------------------------------------------------------------------------
# each command builds its root datum and parabolic once

def profiled_calls(tmp_path, spec, command, *extra):
    """Run one command under cProfile; returns a count of calls by function."""
    path = write_spec(tmp_path, spec)
    code, calls = profiled(cli.main, ["--spec", path, "--command", command,
                                      "--out", str(tmp_path / "report.json"),
                                      *extra])
    assert code == 0
    return calls


SO5_T = {"algebra": {"kind": "so", "n": 5},
         "subalgebra": {"name": "maximal_torus"}}


@pytest.mark.parametrize("spec,k", [(SU3_T, 0), (SO5_T, 5)],
                         ids=["su3_t", "so5_t"])
def test_construct_builds_one_parabolic(tmp_path, spec, k):
    calls = profiled_calls(tmp_path, spec, "construct",
                           "--parabolic-index", str(k))
    assert [calls(cx.decompose_J), calls(cx.compute_m)] == [0, 0]
    assert [calls(roots.root_decomposition), calls(roots.build_parabolic),
            calls(roots.killing_perp_nilradical)] == [1, 1, 1]


GOLDEN = Path(__file__).resolve().parent / "golden"
DECOMPOSE_SPECS = {c["file"]: c["spec"] for c in json.loads(
    (GOLDEN / "manifest.json").read_text()) if c["command"] == "decompose"}


@pytest.mark.parametrize("name", ["su3_t__decompose.json",
                                  "so5_t__decompose.json"])
def test_decompose_builds_one_root_datum(tmp_path, name):
    # J's m is classify's: decompose_J builds p on the problem's root datum,
    # and parabolic_index reads the problem's positive systems; classify's
    # Levi is derived once, and neither its Cartan nor p is built twice
    calls = profiled_calls(tmp_path, DECOMPOSE_SPECS[name], "decompose")
    assert calls(roots.root_decomposition) == 1
    assert [calls(cx.levi_systems), calls(roots.enumerate_positive_systems),
            calls(roots.build_parabolic),
            calls(liealg.extend_to_maximal_abelian)] == [1, 1, 1, 2]


def test_no_state_outlives_a_command(tmp_path):
    # classify and then decompose on su(3)/t, twice in one process: the
    # second pair derives every fact of g/h again, as the first did, since
    # each fact lives on the problem of the command that derived it
    out = str(tmp_path / "report.json")
    runs = [["--spec", write_spec(tmp_path, spec, f"{command}.json"),
             "--command", command, "--out", out]
            for command, spec in (
                ("classify", SU3_T),
                ("decompose", DECOMPOSE_SPECS["su3_t__decompose.json"]))]
    counts = []
    for _ in range(2):
        codes, calls = profiled(lambda: [cli.main(argv) for argv in runs])
        assert codes == [0, 0]
        counts.append([calls(liealg.centralizer),
                       calls(roots.root_decomposition),
                       calls(roots.build_parabolic)])
    assert counts == [[2, 2, 7]] * 2


SYMMETRIC_SPECS = {c["file"]: (c["spec"], c["args"]) for c in json.loads(
    (GOLDEN / "manifest.json").read_text()) if c["command"] == "symmetric"
    and "j" not in c["spec"]}


@pytest.mark.parametrize("name", ["su3_u2__symmetric_k0.json",
                                  "su2_u1__symmetric_k0.json"])
def test_symmetric_without_j_builds_one_parabolic(tmp_path, name):
    # symmetric pairs: the verdict needs p, which the command already has
    spec, args = SYMMETRIC_SPECS[name]
    calls = profiled_calls(tmp_path, spec, "symmetric", *args)
    assert [calls(cx.decompose_J), calls(cx.compute_m)] == [0, 0]
    assert [calls(roots.root_decomposition), calls(roots.build_parabolic),
            calls(roots.killing_perp_nilradical)] == [1, 1, 1]


VERIFY_SPECS = {c["file"]: c["spec"] for c in json.loads(
    (GOLDEN / "manifest.json").read_text()) if c["command"] == "verify"}


@pytest.mark.parametrize("name", ["su3_t__verify_seed0.json",
                                  "so5_t__verify_seed0.json"])
def test_verify_rebuilds_no_parabolic(tmp_path, name):
    # p n tau(p) = m_C is read off p = N(l) and compute_m's m
    calls = profiled_calls(tmp_path, VERIFY_SPECS[name], "verify",
                           "--seed", "0")
    assert [calls(cx.decompose_J), calls(roots.root_decomposition),
            calls(roots.build_parabolic),
            calls(roots.killing_perp_nilradical)] == [0, 0, 0, 0]


@pytest.mark.parametrize("name", ["su3_t__verify_seed0.json",
                                  "so5_t__verify_seed0.json"])
def test_verify_runs_no_derived_series_in_g(tmp_path, name):
    # [h, h] once, a fact of the problem that the Levi split of l reads;
    # m = h here, so compute_m takes no [m, m].  The derived series of
    # radical(l) runs in its own coordinates (in g, 3 more calls).  Taking
    # [h, h] again for the split and [m, m] made 3 calls.
    calls = profiled_calls(tmp_path, VERIFY_SPECS[name], "verify",
                           "--seed", "0")
    assert calls(liealg.derived) <= 1


@pytest.mark.parametrize("name", ["su3_t__verify_seed0.json",
                                  "so5_t__verify_seed0.json"])
def test_verify_intersects_l_and_tau_l_once(tmp_path, name):
    # w = l n tau(l) serves h_C = w, l n g = w n g and, since p = N(l) = l
    # here, p n tau(p) = w; the problem's center(h) is compute_m's
    # center(m), as m = h.  Intersecting each again made 5 intersections
    # and 2 centers.
    calls = profiled_calls(tmp_path, VERIFY_SPECS[name], "verify",
                           "--seed", "0")
    assert calls(liealg.center) <= 1
    assert calls(exact.Subspace.intersect) <= 4


GOLDEN_SPECS = {c["file"]: c["spec"] for c in json.loads(
    (GOLDEN / "manifest.json").read_text())}


CENTRALIZER_CALLS = {"classify": 1, "construct": 1, "decompose": 1, "m": 1,
                     "verify": 1, "symmetric": 1}


@pytest.mark.parametrize("command", list(CENTRALIZER_CALLS))
@pytest.mark.parametrize("name", ["su3_t", "so5_t"])
def test_each_centralizer_is_computed_once(tmp_path, command, name):
    # classify, construct and symmetric without j take C(h) for m = t + h;
    # on X/t the center t of m is h, so the problem's C(h) certifies
    # m = C(center(m)).  m and verify take C(center(m)) alone.  decompose
    # takes C(center(m)) in compute_m, and parabolic_index reads the same
    # fact of the problem as C(h).  Each Cartan extension cuts its bound by
    # the centralizer of the one vector it adds, root_decomposition reads
    # NotCartan off its zero space, and center(s) cuts s itself.
    spec = {"su3_t": SU3_T, "so5_t": SO5_T}[name]
    extra = []
    if command in ("construct", "symmetric"):
        extra = ["--parabolic-index", "0"]
    elif command != "classify":
        spec = GOLDEN_SPECS[f"{name}__{command}"
                            f"{'_seed0' if command == 'verify' else ''}.json"]
    path = write_spec(tmp_path, spec)
    code, calls = profiled(cli.main, ["--spec", path, "--command", command,
                                      "--out", str(tmp_path / "report.json"),
                                      *extra])
    # the flag manifolds are not symmetric: symmetric exits 1
    assert code == (command == "symmetric")
    assert calls(liealg.centralizer) <= CENTRALIZER_CALLS[command]


@pytest.mark.parametrize("spec,count", [(SU3_T, 6), (SO5_T, 8)],
                         ids=["su3_t", "so5_t"])
def test_classify_checks_each_closure_once(tmp_path, spec, count):
    # m = h, the certified h, is not checked again on its subspace; each p
    # is closed on root indices, from the sums its one root datum certified
    # when it was built; n and p n g follow from p's checks
    calls = profiled_calls(tmp_path, spec, "classify")
    assert calls(exact.real_points) == 0
    assert calls(liealg.is_closed) == 0
    assert calls(roots.root_decomposition) == 1
    assert calls(roots.build_parabolic) == count


# the sign pattern pnp on su(3)/t: J e_0 = e_1, J e_3 = e_2, J e_4 = e_5,
# orienting the three root planes cyclically, so J is not integrable
PNP_J = [["0", "-1", "0", "0", "0", "0"],
         ["1", "0", "0", "0", "0", "0"],
         ["0", "0", "0", "1", "0", "0"],
         ["0", "0", "-1", "0", "0", "0"],
         ["0", "0", "0", "0", "0", "-1"],
         ["0", "0", "0", "0", "1", "0"]]


def test_check_searches_for_a_nijenhuis_witness_once(tmp_path):
    # is_integrable's search stops at the pair (0, 2); check reports the
    # witness it recorded rather than searching again
    path = write_spec(tmp_path, dict(SU3_T, j=PNP_J))
    out = tmp_path / "report.json"
    code, calls = profiled(cli.main, ["--spec", path, "--command", "check",
                                      "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["nijenhuis_witness"]["basis_pair"] \
        == [0, 2]
    assert calls(cx.nijenhuis) == 2


def test_classify_so5_t_certifies_on_a_small_record(tmp_path):
    # the dense certificates made 771 brackets and 228 eliminations here,
    # and putting subspaces in RREF a second time 138 eliminations
    calls = profiled_calls(tmp_path, SO5_T, "classify")
    assert calls(liealg.LieAlgebra.bracket) < 771
    assert calls(exact.rref) <= 90
    rd = cx.classify(cli._resolve_problem(cli.parse_obj(SO5_T))) \
        .parabolics[0].datum
    # one sum per root pair, the sum of their root values
    index = {r.values: i for i, r in enumerate(rd.roots)}
    assert [len(row) for row in rd.sums] == [len(rd.roots)] * len(rd.roots)
    assert rd.sums == [[index.get(exact.vadd(a.values, b.values))
                        for b in rd.roots] for a in rd.roots]


def test_so2_validates(tmp_path):
    # so(2) is abelian: its coordinate gets an identity row, as torus(1)'s
    so2 = {"algebra": {"kind": "so", "n": 2},
           "subalgebra": {"name": "maximal_torus"}}
    code, rep = run(tmp_path, so2, "validate")
    assert code == 0
    code, rep = run(tmp_path, so2, "catalog")
    assert code == 0 and rep["validation_ok"] is True
    assert rep["h_basis"] == [["1"]]


CATALOG_SPECS = {c["file"]: c["spec"] for c in json.loads(
    (GOLDEN / "manifest.json").read_text()) if c["command"] == "catalog"}


def test_catalog_validates_an_explicit_table_once(tmp_path):
    # the input check and validation_ok read the same result; every
    # validation tests the inner product for positive definiteness once
    calls = profiled_calls(
        tmp_path, CATALOG_SPECS["dense_su2su2_t__catalog.json"], "catalog")
    assert calls(liealg._positive_definite) == 1


def su2_prime_spec():
    """g = su(2)' + su(2) + su(2), with [f0, f1] = 2 f2, [f1, f2] = f0,
    [f2, f0] = f1 on su(2)' (ad f0 has eigenvalues +-i sqrt 2), h = su(2)'
    and the integrable J of the su(2) + su(2) golden."""
    n = 9
    table = [[["0"] * n for _ in range(n)] for _ in range(n)]
    brackets = [(0, 1, 2, 2), (1, 2, 0, 1), (2, 0, 1, 1)]
    brackets += [(o + a, o + b, o + c, 1) for o in (3, 6)
                 for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    for i, j, k, c in brackets:
        table[i][j][k], table[j][i][k] = str(c), str(-c)
    inner = [[str(d if i == j else 0) for j in range(n)]
             for i, d in enumerate([2, 2, 1] + [2] * 6)]
    j = json.loads((GOLDEN / "su2su2_0__construct_k0.json").read_text())["j"]
    return {"algebra": {"table": table, "inner_product": inner},
            "subalgebra": {"name": "span", "vectors": [
                [str(int(i == k)) for i in range(n)] for k in range(3)]},
            "j": j}


def test_verify_needs_no_root_decomposition(tmp_path):
    """su2_prime_spec: a Cartan through center(m) picks up f0, so no
    rational root decomposition exists; the ledger is complete without
    one."""
    spec = su2_prime_spec()
    code, rep = run(tmp_path, spec, "verify")
    assert code == 0 and rep["all_ok"]
    assert {"name": "p_cap_tau_p_is_mc", "ok": True,
            "detail": "p n tau(p) = m_C"} in rep["ledger"]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: extend_to_maximal_abelian's greedy Cartan through "
    "center(m) picks up f0 of su(2)', whose ad spectrum is irrational, so "
    "root_decomposition raises IrrationalSpectrum"))
def test_classify_without_a_rational_cartan_through_h(tmp_path):
    # C(h) = su(2) + su(2), t is its 2-torus and m = t + su(2)'; a Cartan
    # of m with rational roots exists (a torus of su(2)' that is rational,
    # plus t), but the greedy one is not it
    spec = su2_prime_spec()
    del spec["j"]
    code, rep = run(tmp_path, spec, "classify")
    assert code == 0, rep
    assert (len(rep["parabolics"]), rep["fiber_dim"]) == (4, 2)


# dim g above catalog.MAX_DIM = 200, found by arithmetic on the spec before
# any basis is built, or from the row count before any table entry is read
OVERSIZED = {
    "su20": ({"kind": "su", "n": 20}, 399),
    "su10_plus_so20": ({"kind": "sum", "parts": [{"kind": "su", "n": 10},
                                                {"kind": "so", "n": 20}]},
                       289),
    "torus201": ({"kind": "torus", "n": 201}, 201),
    "table201": ({"table": [[]] * 201}, 201),
    "su_googol": ({"kind": "su", "n": 10 ** 100}, 10 ** 200 - 1),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_dim_g_above_the_limit_is_an_input_error(tmp_path, name):
    algebra, dim = OVERSIZED[name]
    start = time.perf_counter()
    code, rep = run(tmp_path, {"algebra": algebra}, "catalog")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert f"dim g = {dim} exceeds the limit {catalog.MAX_DIM}" \
        in rep["message"]


def nested_sum(depth):
    """su(2) inside depth sums of one part each, as JSON text: the JSON
    encoder itself refuses the deepest of these."""
    return ('{"algebra": ' + '{"kind": "sum", "parts": [' * depth
            + '{"kind": "su", "n": 2}' + ']}' * depth + '}')


def test_a_table_inside_a_sum_is_an_input_error(tmp_path):
    spec = {"algebra": {"kind": "sum", "parts": [
        {"kind": "su", "n": 2}, {"table": su2_table()}]}}
    code, rep = run(tmp_path, spec, "catalog")
    assert (code, rep["message"]) == (
        2, "explicit tables cannot nest inside a sum")


def test_sums_nested_up_to_the_limit_parse(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(nested_sum(cli.MAX_NESTING))
    assert cli.parse(path).algebra.label() == "su(2)"


@pytest.mark.parametrize("depth,message", [
    (cli.MAX_NESTING + 1, f"sums nest more than {cli.MAX_NESTING} deep"),
    (450, f"sums nest more than {cli.MAX_NESTING} deep"),
    (1200, "spec file nests too deeply to read")])
def test_sums_nested_too_deep_are_an_input_error(tmp_path, depth, message):
    # 450 deep used to exit 4 from the catalog's recursion over the spec,
    # and 1200 deep from the JSON reader's
    path = tmp_path / "spec.json"
    path.write_text(nested_sum(depth))
    out = tmp_path / "report.json"
    start = time.perf_counter()
    code = cli.main(["--spec", str(path), "--command", "catalog",
                     "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    rep = json.loads(out.read_text())
    assert (code, rep["error"]) == (2, "ParseError")
    assert message in rep["message"]


# ---------------------------------------------------------------------------
# hostile specs: each field valid nine times in ten, else malformed or a
# wrongly typed JSON value

JSON_JUNK = st.one_of(st.none(), st.booleans(), st.just([]), st.just({}),
                      st.lists(st.integers(-2, 2), min_size=1, max_size=2),
                      st.just({"n": 2}), st.just("x"))


def mostly(valid, bad=JSON_JUNK):
    return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else valid)


RATIONALS = mostly(
    st.one_of(st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/4", " 3 ",
                               "1_000", "1.5e0", "1e4300"]),
              st.integers(-3, 3)),
    st.one_of(st.sampled_from(["1/0", "1/-2", "inf", "nan", "", "i", 0.5,
                               "1e20000000", "1e-20000000"]), JSON_JUNK))


def square_rows(n, entries=RATIONALS):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def su2_table():
    table = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        table[i][j][k], table[j][i][k] = "1", "-1"
    return table


CATALOG_ALGEBRAS = st.fixed_dictionaries({
    "kind": mostly(st.sampled_from(["su", "so", "u", "torus"]),
                   st.one_of(st.just("sp"), JSON_JUNK)),
    "n": mostly(st.integers(1, 4), st.one_of(st.integers(-1, 0), JSON_JUNK))})
ALGEBRAS = mostly(st.one_of(
    CATALOG_ALGEBRAS,
    st.fixed_dictionaries({"kind": st.just("sum"), "parts": mostly(
        st.lists(CATALOG_ALGEBRAS, min_size=1, max_size=2))}),
    # sums nested at, just past and far past the limit
    st.sampled_from([cli.MAX_NESTING, cli.MAX_NESTING + 1, 450]).map(
        lambda depth: json.loads(nested_sum(depth))["algebra"]),
    st.fixed_dictionaries({"table": mostly(st.one_of(
        st.just(su2_table()), st.integers(1, 2).flatmap(
            lambda n: square_rows(n, st.lists(RATIONALS, min_size=n,
                                              max_size=n)))))},
        optional={"inner_product": mostly(st.integers(1, 3).flatmap(
            square_rows))})))
SUBALGEBRAS = mostly(st.fixed_dictionaries({"name": mostly(st.sampled_from(
    ["maximal_torus", "zero", "center", "block_u", "span"]),
    st.one_of(st.just("bogus"), JSON_JUNK))}, optional={
    "k": mostly(st.integers(-1, 4)),
    "vectors": mostly(st.lists(st.lists(RATIONALS, min_size=1, max_size=4),
                               max_size=3))}))
MATRICES = mostly(st.one_of(st.just(S2["j"]), st.just(SWAP_J),
                            st.integers(0, 4).flatmap(square_rows)),
                  st.one_of(st.lists(st.lists(RATIONALS, max_size=3),
                                     max_size=3), JSON_JUNK))
SPECS = st.fixed_dictionaries({"algebra": ALGEBRAS}, optional={
    "subalgebra": SUBALGEBRAS, "j": MATRICES, "j1": MATRICES})
# the routes the index and j1 no longer take: a spec field, and "default"
REMOVED_ROUTES = mostly(st.just({}), st.one_of(
    st.fixed_dictionaries({"parabolic_index": st.integers(-1, 30)}),
    st.just({"j1": "default"})))
# second spellings of a field: a key given twice, a null j or j1, k or
# vectors on a subalgebra name that takes neither, parts on an algebra that
# is no sum and n on a sum; each replaces its field of the spec
RESPELLED = mostly(st.none(), st.one_of(
    st.just("repeated_key"), st.just({"j": None}), st.just({"j1": None}),
    st.fixed_dictionaries({"subalgebra": st.fixed_dictionaries({
        "name": st.sampled_from(["maximal_torus", "zero", "center", "span"]),
        "k": st.integers(1, 3)})}),
    st.fixed_dictionaries({"subalgebra": st.fixed_dictionaries({
        "name": st.sampled_from(["maximal_torus", "zero", "center",
                                 "block_u"]),
        "vectors": st.just([["0", "0", "1"]])})}),
    st.fixed_dictionaries({"algebra": st.fixed_dictionaries({
        "kind": st.sampled_from(["su", "so", "u", "torus"]),
        "n": st.integers(1, 3), "parts": st.just(SU2SU2["parts"])})}),
    st.fixed_dictionaries({"algebra": st.fixed_dictionaries({
        "kind": st.just("sum"), "n": st.one_of(st.integers(1, 7),
                                               st.just("x")),
        "parts": st.just(SU2SU2["parts"])})})))


@settings(max_examples=300, deadline=10000, suppress_health_check=[
    HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(SPECS, st.sampled_from(sorted(cli.COMMANDS)),
       st.one_of(st.none(), st.integers(-1, 30)), REMOVED_ROUTES, RESPELLED)
def test_hostile_specs_exit_cleanly(tmp_path, capsys, spec, command, index,
                                    removed, respelled):
    """Answers, clean no-verdicts and input errors only: every exit code is
    0-3, no report is an internal error and nothing goes to stderr; a spec
    that sets the index or a "default" j1, or spells a field a second way,
    is an input error."""
    spec = dict(spec, **removed)
    if isinstance(respelled, dict):
        spec.update(respelled)
    text = json.dumps(spec)
    if respelled == "repeated_key":
        text = text[:-1] + ', "algebra": {"kind": "su", "n": 2}}'
    path = tmp_path / "spec.json"
    path.write_text(text)
    out = tmp_path / "report.json"
    flag = [] if index is None else ["--parabolic-index", str(index)]
    code = cli.main(["--spec", str(path), "--command", command,
                     "--out", str(out), *flag])
    report = json.loads(out.read_text())
    assert code in (0, 1, 2, 3), report
    assert report.get("error") != "InternalError", report
    if removed or respelled:
        assert code == 2, report
    assert capsys.readouterr().err == ""
