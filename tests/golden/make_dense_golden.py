"""Write the golden classify reports of the dense instances whose
characteristic polynomials have coefficients too large to factor by trial
division: su(3)/t and so(5)/t rewritten in the random integer basis of
perfbench's dense workload (basis seed 0).

    git archive a7c08d3 src | tar -x -C REF
    python3 tests/golden/make_dense_golden.py REF/src

REF/src must hold the code of commit a7c08d3, the last one whose
exact.rational_eigenvalues proposes candidate roots p/q from the divisors
of the constant and leading coefficients. On these instances its
exact._divisors, trial division up to sqrt(n) on 55-95-bit integers, never
finishes, so this script replaces it with sympy.divisors, which factors
them. The candidates and everything else are unchanged, so the reports are
what the divisor-based algorithm gives; so(5)/t takes about 40 s. sympy is
a test-only dependency.

Each report goes to tests/golden/<instance>__classify.json, and its case is
added to (or replaced in) tests/golden/manifest.json. Run it only to record
a deliberate change of report; the test never regenerates these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
INSTANCES = ("dense_su3_t", "dense_so5_t")


def main(ref_src):
    sys.path[:0] = [ref_src, str(HERE.parents[1] / "perfbench")]
    import sympy
    import workloads
    from liecx import cli, exact

    if not hasattr(exact, "_divisors"):
        raise SystemExit(f"{ref_src} has no exact._divisors")
    exact._divisors = sympy.divisors
    manifest = json.loads((HERE / "manifest.json").read_text())
    for inst in workloads.dense_instances():
        if inst.name not in INSTANCES:
            continue
        fname = f"{inst.name}__classify.json"
        with tempfile.TemporaryDirectory() as tmp:
            spec_path = Path(tmp) / "spec.json"
            out_path = Path(tmp) / "report.json"
            spec_path.write_text(json.dumps(inst.spec))
            code = cli.main(["--spec", str(spec_path), "--command", "classify",
                             "--out", str(out_path)])
            (HERE / fname).write_bytes(out_path.read_bytes())
        case = {"file": fname, "spec": inst.spec, "command": "classify",
                "args": [], "exit_code": code}
        manifest = [c for c in manifest if c["file"] != fname] + [case]
        print(f"{fname}: exit {code}")
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    main(sys.argv[1])
