"""The catalog half of an atlas of known answers: irreducible Hermitian
symmetric spaces of types AIII, BDI and DIII, and two controls that are not
symmetric.

Expected answers come from Cartan's list (Helgason, Differential Geometry,
Lie Groups, and Symmetric Spaces, ch. X), not from liecx.  On an
irreducible Hermitian symmetric g/h, h is the Levi of a maximal parabolic,
so classify finds m = h (fiber 0) and, since the center of h is a line, two
parabolics containing a fixed Cartan: p and its opposite.  Both complex
structures, J and -J, are the symmetric ones.  h is read off catalog
indices, or is the centralizer of the standard complex structure for
u(n) in so(2n); h is input, so liecx may compute it."""

import json

import pytest

from liecx import cli
from liecx.catalog import build, so
from liecx.exact import Subspace, entry_strings, vunit
from liecx.liealg import centralizer


def pairs(n):
    """The (j, k), j < k, in catalog order."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def s_u(blocks):
    """s(u(n_1) + ... + u(n_r)) in su(n): both matrices of each pair (j, k)
    inside one diagonal block, and the n - 1 diagonal generators."""
    n = sum(blocks)
    block = [b for b, size in enumerate(blocks) for _ in range(size)]
    idx = [2 * p + s for p, (j, k) in enumerate(pairs(n))
           if block[j] == block[k] for s in (0, 1)]
    idx += range(n * (n - 1), n * n - 1)
    return ("su", n), [vunit(n * n - 1, i) for i in idx]


def so2_so(n):
    """so(2) + so(n - 2) in so(n): the pair (0, 1) and the pairs of 2..n-1."""
    idx = [p for p, (j, k) in enumerate(pairs(n)) if (j, k) == (0, 1) or j >= 2]
    return ("so", n), [vunit(n * (n - 1) // 2, i) for i in idx]


def u_in_so(n, k):
    """u(k) in so(n), 2k <= n: the centralizer of the standard complex
    structure, the rotation in each plane (2j, 2j + 1), j < k."""
    g = build(so(n))
    j0 = [0] * g.dim
    for p, (j, l) in enumerate(pairs(n)):
        if l == j + 1 and j % 2 == 0 and l < 2 * k:
            j0[p] = 1
    h = centralizer(g, Subspace.from_vectors(g.dim, [j0]))
    return ("so", n), h.basis_vectors()


def answers(tmp_path, case):
    """classify's report, and symmetric's status at indices 0 and 1."""
    (kind, n), vectors = case
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "algebra": {"kind": kind, "n": n},
        "subalgebra": {"name": "span",
                       "vectors": [entry_strings(v)[0] for v in vectors]}}))
    out = tmp_path / "report.json"

    def run(command, *extra):
        code = cli.main(["--spec", str(spec), "--command", command,
                         "--out", str(out), *extra])
        return code, json.loads(out.read_text())
    code, report = run("classify")
    assert code == 0
    statuses = []
    for k in (0, 1):
        _, rep = run("symmetric", "--parabolic-index", str(k))
        statuses.append((rep["status"], rep["reason"]))
    return report, statuses


HERMITIAN = {
    "BDI_so5": so2_so(5), "BDI_so6": so2_so(6), "BDI_so7": so2_so(7),
    "DIII_so6_u3": u_in_so(6, 3), "DIII_so8_u4": u_in_so(8, 4),
    "AIII_su4_1_3": s_u([1, 3]), "AIII_su4_2_2": s_u([2, 2]),
    "AIII_su5_1_4": s_u([1, 4]), "AIII_su5_2_3": s_u([2, 3]),
}


@pytest.mark.parametrize("name", sorted(HERMITIAN))
def test_hermitian_symmetric_spaces(tmp_path, name):
    report, statuses = answers(tmp_path, HERMITIAN[name])
    assert report["exists"]
    assert len(report["parabolics"]) == 2
    assert report["fiber_dim"] == 0
    assert report["m_basis"] == report["h_basis"]
    assert statuses == [("symmetric", "")] * 2


# Not symmetric: so(7)/u(3), whose isotropy splits as C^3 + Lambda^2 C^3
# (the center of u(3) is a line, so again 2 parabolics), and the flag
# manifold su(4)/s(u(1) + u(1) + u(2)), 3! = 6 orders of its three blocks
CONTROLS = {"so7_u3": (u_in_so(7, 3), 2), "su4_1_1_2": (s_u([1, 1, 2]), 6)}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_controls_are_never_symmetric(tmp_path, name):
    case, count = CONTROLS[name]
    report, statuses = answers(tmp_path, case)
    assert report["exists"]
    assert len(report["parabolics"]) == count
    assert report["m_basis"] == report["h_basis"]
    assert statuses == [("not_applicable", "reducible_isotropy")] * 2
