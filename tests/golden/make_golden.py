"""Write the golden CLI reports that tests/test_golden.py compares against.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Stdlib only. For each small instance it runs every CLI command once through
liecx.cli.main and writes the report, byte for byte, to
tests/golden/<instance>__<case>.json. The spec, command line and exit code
of every case go to tests/golden/manifest.json. The J of the construct
report is fed back into decompose, check, verify, m and symmetric, so those
reports pin the construct/decompose round trip too. symmetric also runs
without a j on a few instances, where it constructs J from the k-th
parabolic itself, and gives its two verdicts that precede any certificate:
not integrable, and not effective. On su(4)/u(3) (d = 15) only symmetric
and verify run, with and without the J of construct, on su(4)/t (q = 12)
only verify on the J of construct, and on su(5)/t (d = 24) only symmetric
without a j. validate, catalog and classify run on
perfbench's dense instances (catalog algebras in a random integer basis)
where they finish. The classify reports of su(5)/t and so(8)/t (2.26 MB and
4.97 MB), and of su(4)/t in perfbench's dense basis (242 KB, characteristic
polynomials of degree 12 with coefficients of up to 2,305 bits), are
recorded in the manifest by their sha256 and byte length instead of as
files.

Cases already in the manifest that this script does not write, the dense
classify of su(3)/t and so(5)/t by make_dense_golden.py, are kept.

Run it only to record a deliberate change of report; the test never
regenerates these files.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parents[1] / "perfbench")]

import specs  # noqa: E402
import workloads  # noqa: E402
from liecx import cli  # noqa: E402


def rotation_j(q, pairs):
    """J e_a = e_b, J e_b = -e_a for each (a, b), as rational strings."""
    m = [["0"] * q for _ in range(q)]
    for a, b in pairs:
        m[b][a], m[a][b] = "1", "-1"
    return m


SU2 = {"kind": "su", "n": 2}
SU3 = {"kind": "su", "n": 3}
SU3_T = {"algebra": SU3, "subalgebra": {"name": "maximal_torus"}}

# instance name -> (spec without j, a J that is not integrable there)
INSTANCES = {
    "su2_u1": (
        {"algebra": SU2,
         "subalgebra": {"name": "span", "vectors": [["0", "0", "1"]]}},
        # J^2 = -I but not invariant under u(1)
        [["1", "-2"], ["1", "-1"]]),
    "su3_t": (
        SU3_T,
        # sign pattern (+, -, +) on the three root planes: a cyclic
        # tournament, invariant and not integrable
        rotation_j(6, [(0, 1), (3, 2), (4, 5)])),
    "su3_u2": (
        {"algebra": SU3, "subalgebra": {"name": "block_u", "k": 2}},
        # J^2 = -I but not invariant under u(2)
        rotation_j(4, [(0, 2), (1, 3)])),
    "su2su2_0": (
        {"algebra": {"kind": "sum", "parts": [SU2, SU2]},
         "subalgebra": {"name": "zero"}},
        # the swap J(x, y) = (-y, x): invariant and not integrable
        rotation_j(6, [(0, 3), (1, 4), (2, 5)])),
    "u2_0": (
        # a nontrivial torus fiber: m = u(2)'s center plus a Cartan of su(2)
        {"algebra": {"kind": "u", "n": 2}, "subalgebra": {"name": "zero"}},
        # a conjugate of an integrable J by an integer matrix; not integrable
        [["1", "-3", "-1", "0"], ["0", "0", "0", "-1"],
         ["2", "-3", "-1", "3"], ["0", "1", "0", "0"]]),
    "so5_t": (
        # 8 parabolics, one per Weyl chamber
        {"algebra": {"kind": "so", "n": 5},
         "subalgebra": {"name": "maximal_torus"}},
        # a sign pattern on the root planes that is invariant, not integrable
        rotation_j(8, [(0, 3), (1, 4), (5, 2), (6, 7)])),
}

# construct's input errors: (case name, spec, extra args)
CONSTRUCT_ERRORS = [
    ("su3_t__construct_out_of_range", SU3_T, ["--parabolic-index", "6"]),
    ("su3_t__construct_no_index", SU3_T, []),
    # "no structures exist: odd_dimension"
    ("su2_0__construct", {"algebra": SU2, "subalgebra": {"name": "zero"}},
     ["--parabolic-index", "0"]),
]


# su(4)/u(3), the Hermitian symmetric CP^3 at d = 15: only symmetric and
# verify run here, the commands whose certificates (theta, the real J of an
# eigenspace, g + l = g_C) grow with d
SU4_U3 = {"algebra": {"kind": "su", "n": 4},
          "subalgebra": {"name": "block_u", "k": 3}}

# su(4)/t, whose 66 basis pairs give verify's Nijenhuis trials 1,518
# evaluations: only verify on the J of construct runs here
SU4_T = {"algebra": {"kind": "su", "n": 4},
         "subalgebra": {"name": "maximal_torus"}}

# su(5)/t, whose isotropy commutant has dimension 10: only symmetric
# without a j runs here
SU5_T = {"algebra": {"kind": "su", "n": 5},
         "subalgebra": {"name": "maximal_torus"}}

# symmetric without a j: (instance, parabolic index)
SYMMETRIC_CONSTRUCTED = [("su3_u2", 0), ("su3_u2", 1), ("su2_u1", 0),
                         ("so5_t", 3), ("su4_u3", 0), ("su5_t", 0)]

# symmetric's verdicts that come before any certificate of a pair: a J that
# is invariant and not integrable, and an h that holds an ideal of g, here
# the first su(2) of su(2)+su(2) with the second's e3: (case name, spec,
# extra args)
SYMMETRIC_VERDICTS = [
    ("su3_t__symmetric_not_integrable",
     dict(SU3_T, j=INSTANCES["su3_t"][1]), []),
    ("su2su2_su2u1__symmetric_k0",
     {"algebra": {"kind": "sum", "parts": [SU2, SU2]},
      "subalgebra": {"name": "span", "vectors": [
          [str(int(i == k)) for i in range(6)] for k in (0, 1, 2, 5)]}},
     ["--parabolic-index", "0"]),
]

# perfbench's dense-table jobs other than make_dense_golden.py's: (instance,
# command)
DENSE_JOBS = [("dense_su3_t", "validate"), ("dense_su2su2_t", "validate"),
              ("dense_su2su2_t", "catalog"), ("dense_su2su2_t", "classify")]


# classify on larger flag manifolds, and on su(4)/t in perfbench's dense
# basis, recorded by digest: (case name, spec)
HASHED = [(f"{name}_t__classify", {"algebra": {"kind": kind, "n": n},
                                   "subalgebra": {"name": "maximal_torus"}})
          for name, kind, n in (("su5", "su", 5), ("so8", "so", 8))]
HASHED.append(("dense_su4_t__classify", specs.dense_spec(
    [("su", 4)], random.Random(workloads.DENSE_BASIS_SEED))))


def run_case(spec, command, extra):
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "spec.json"
        out_path = Path(tmp) / "report.json"
        spec_path.write_text(json.dumps(spec))
        code = cli.main(["--spec", str(spec_path), "--command", command,
                         "--out", str(out_path), *extra])
        return code, out_path.read_bytes()


def cases_for(base, bad_j, j):
    """(case name, spec, command, extra args) for one instance; j is the J
    of its construct report."""
    with_j = dict(base, j=j)
    return [
        ("catalog", base, "catalog", []),
        ("validate", base, "validate", []),
        ("classify", base, "classify", []),
        ("construct_k0", base, "construct", ["--parabolic-index", "0"]),
        ("decompose", with_j, "decompose", []),
        ("check_integrable", with_j, "check", []),
        ("check_not_integrable", dict(base, j=bad_j), "check", []),
        ("verify_seed0", with_j, "verify", ["--seed", "0"]),
        ("m", with_j, "m", []),
        ("symmetric", with_j, "symmetric", []),
    ]


def construct_k0(base):
    """The J of construct with parabolic index 0."""
    _, construct = run_case(base, "construct", ["--parabolic-index", "0"])
    return json.loads(construct)["j"]


def hashed_case(name, spec):
    """A classify case recorded by the sha256 and length of its report; no
    file is written."""
    code, report = run_case(spec, "classify", [])
    print(f"{name}.json: exit {code}, {len(report)} bytes (hashed)")
    return {"file": f"{name}.json", "spec": spec, "command": "classify",
            "args": [], "exit_code": code,
            "sha256": hashlib.sha256(report).hexdigest(),
            "bytes": len(report)}


def main():
    cases = []
    for inst, (base, bad_j) in INSTANCES.items():
        j = construct_k0(base)
        cases += [(f"{inst}__{name}", spec, command, extra)
                  for name, spec, command, extra in cases_for(base, bad_j, j)]
    su4_u3_j = dict(SU4_U3, j=construct_k0(SU4_U3))
    cases += [("su4_u3__symmetric", su4_u3_j, "symmetric", []),
              ("su4_u3__verify_seed0", su4_u3_j, "verify", ["--seed", "0"]),
              ("su4_t__verify_seed0", dict(SU4_T, j=construct_k0(SU4_T)),
               "verify", ["--seed", "0"])]
    cases += [(name, spec, "construct", extra)
              for name, spec, extra in CONSTRUCT_ERRORS]
    specs = {inst: base for inst, (base, _) in INSTANCES.items()}
    specs["su4_u3"] = SU4_U3
    specs["su5_t"] = SU5_T
    cases += [(f"{inst}__symmetric_k{k}", specs[inst], "symmetric",
               ["--parabolic-index", str(k)])
              for inst, k in SYMMETRIC_CONSTRUCTED]
    dense = {inst.name: inst.spec for inst in workloads.dense_instances()}
    cases += [(f"{inst}__{command}", dense[inst], command, [])
              for inst, command in DENSE_JOBS]
    cases += [(name, spec, "symmetric", extra)
              for name, spec, extra in SYMMETRIC_VERDICTS]
    manifest = []
    for name, spec, command, extra in cases:
        code, report = run_case(spec, command, extra)
        fname = f"{name}.json"
        (HERE / fname).write_bytes(report)
        manifest.append({"file": fname, "spec": spec, "command": command,
                         "args": extra, "exit_code": code})
        print(f"{fname}: exit {code}")
    manifest += [hashed_case(name, spec) for name, spec in HASHED]
    written = {c["file"] for c in manifest}
    path = HERE / "manifest.json"
    old = json.loads(path.read_text()) if path.exists() else []
    manifest += [c for c in old if c["file"] not in written]
    path.write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main()
