"""An atlas of known answers: irreducible Hermitian symmetric spaces of
types AIII, BDI, CI and DIII, two controls that are not symmetric, the
flag manifolds of sp(2) and sp(3), and Wang's C-spaces with a torus fiber
(Calabi-Eckmann, Hopf and Samelson), with their odd and non-Wang controls,
and the round trip of each structure J(p, J1) of three of them.

Expected answers come from Cartan's list (Helgason, Differential Geometry,
Lie Groups, and Symmetric Spaces, ch. X), not from liecx.  On an
irreducible Hermitian symmetric g/h, h is the Levi of a maximal parabolic,
so classify finds m = h (fiber 0) and, since the center of h is a line, two
parabolics containing a fixed Cartan: p and its opposite.  Both complex
structures, J and -J, are the symmetric ones.  h is read off catalog
indices, or is the centralizer of the standard complex structure for
u(n) in so(2n); h is input, so liecx may compute it.  sp(2) and sp(3) are
explicit tables in tests/golden/sp2.json and sp3.json, written by
tests/golden/make_sp_specs.py from integer matrices in u(2n), whose
docstring gives the basis: t is its first n vectors, u(n) its first n^2."""

import json
from pathlib import Path

import pytest

from liecx import cli
from liecx.catalog import build, so
from liecx.exact import Subspace, entry_strings, vadd, vunit
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
    return {"kind": "su", "n": n}, [vunit(n * n - 1, i) for i in idx]


def so2_so(n):
    """so(2) + so(n - 2) in so(n): the pair (0, 1) and the pairs of 2..n-1."""
    idx = [p for p, (j, k) in enumerate(pairs(n)) if (j, k) == (0, 1) or j >= 2]
    return {"kind": "so", "n": n}, [vunit(n * (n - 1) // 2, i) for i in idx]


def u_in_so(n, k):
    """u(k) in so(n), 2k <= n: the centralizer of the standard complex
    structure, the rotation in each plane (2j, 2j + 1), j < k."""
    g = build(so(n))
    j0 = [0] * g.dim
    for p, (j, l) in enumerate(pairs(n)):
        if l == j + 1 and j % 2 == 0 and l < 2 * k:
            j0[p] = 1
    h = centralizer(g, Subspace.from_vectors(g.dim, [j0]))
    return {"kind": "so", "n": n}, h.basis_vectors()


GOLDEN = Path(__file__).resolve().parent / "golden"


def sp_sub(n, count):
    """The span of the first count basis vectors of the table of sp(n)."""
    algebra = json.loads((GOLDEN / f"sp{n}.json").read_text())["algebra"]
    dim = n * (2 * n + 1)
    return algebra, [vunit(dim, i) for i in range(count)]


def runner(tmp_path, case, **fields):
    """A function that runs a command on g/h = case, (algebra spec, h's
    basis), with the spec's other fields, to its exit code and report."""
    algebra, vectors = case
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "algebra": algebra,
        "subalgebra": {"name": "span",
                       "vectors": [entry_strings(v)[0] for v in vectors]},
        **fields}))
    out = tmp_path / "report.json"

    def run(command, *extra):
        code = cli.main(["--spec", str(spec), "--command", command,
                         "--out", str(out), *extra])
        return code, json.loads(out.read_text())
    return run


def answers(tmp_path, case, symmetric=True):
    """classify's report, and symmetric's status at indices 0 and 1."""
    run = runner(tmp_path, case)
    code, report = run("classify")
    assert code == 0
    statuses = []
    for k in (0, 1) if symmetric else ():
        _, rep = run("symmetric", "--parabolic-index", str(k))
        statuses.append((rep["status"], rep["reason"]))
    return report, statuses


HERMITIAN = {
    "BDI_so5": so2_so(5), "BDI_so6": so2_so(6), "BDI_so7": so2_so(7),
    "DIII_so6_u3": u_in_so(6, 3), "DIII_so8_u4": u_in_so(8, 4),
    "AIII_su4_1_3": s_u([1, 3]), "AIII_su4_2_2": s_u([2, 2]),
    "AIII_su5_1_4": s_u([1, 4]), "AIII_su5_2_3": s_u([2, 3]),
    "CI_sp2_u2": sp_sub(2, 4), "CI_sp3_u3": sp_sub(3, 9),
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


# |W(C_n)| = 2^n n! parabolics contain a fixed Cartan of sp(n): 8 and 48
# (Humphreys, Reflection Groups and Coxeter Groups, section 2.11)
@pytest.mark.parametrize("n,count", [(2, 8), (3, 48)])
def test_sp_flag_manifolds_count_the_weyl_group(tmp_path, n, count):
    report, _ = answers(tmp_path, sp_sub(n, n), symmetric=False)
    assert report["exists"]
    assert len(report["parabolics"]) == count
    assert report["fiber_dim"] == 0
    assert report["m_basis"] == report["h_basis"]


# ---------------------------------------------------------------------------
# Wang's C-spaces: torus bundles over flag manifolds (H. C. Wang, Amer. J.
# Math. 76, 1954; J. Tits, Comment. Math. Helv. 37, 1962).  Wang's
# necessary condition: dim g/h is even and h's semisimple part is that of
# the centralizer m of a torus.  Then m is classify's m, m/h is the torus
# fiber, and the parabolics with Levi m containing a fixed Cartan number
# 2^(dim center m) when each simple factor's part of the center is a line.

def su_corner(n, offset):
    """The catalog indices, shifted by offset, of su(n - 1) in the top-left
    block of su(n): the pairs (j, l), l < n - 1, at twice their
    lexicographic index, and the first n - 2 diagonal generators (none at
    all for n = 2, whose basis is su(2)'s own)."""
    idx = [2 * p + s for p, (j, l) in enumerate(pairs(n)) if l < n - 1
           for s in (0, 1)]
    idx += [n * (n - 1) + j for j in range(n - 2)]
    return [offset + i for i in idx]


def unit_case(parts, idx):
    """(the sum of the catalog parts, the span of the unit vectors idx)."""
    algebra = {"kind": "sum", "parts": [
        {"kind": kind, "n": n} for kind, n in parts]}
    dim = sum({"su": n * n - 1, "so": n * (n - 1) // 2,
               "torus": n}[kind] for kind, n in parts)
    return algebra, [vunit(dim, i) for i in idx]


def calabi_eckmann(p, q):
    """S^(2p+1) x S^(2q+1) = su(p+1) + su(q+1) / su(p) + su(q)."""
    return unit_case([("su", p + 1), ("su", q + 1)],
                     su_corner(p + 1, 0) + su_corner(q + 1, (p + 1) ** 2 - 1))


def hopf(n):
    """S^1 x S^(2n-1) = torus(1) + su(n) / su(n - 1)."""
    return unit_case([("torus", 1), ("su", n)], su_corner(n, 1))


# Calabi and Eckmann (Ann. of Math. 58, 1953): m = s(u(p) + u(1)) +
# s(u(q) + u(1)) of dim p^2 + q^2, a 2-torus fiber, and 2 x 2 parabolics
CALABI_ECKMANN = [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("p,q", CALABI_ECKMANN,
                         ids=[f"S{2 * p + 1}xS{2 * q + 1}"
                              for p, q in CALABI_ECKMANN])
def test_calabi_eckmann_manifolds(tmp_path, p, q):
    report, _ = answers(tmp_path, calabi_eckmann(p, q), symmetric=False)
    assert report["exists"]
    assert len(report["parabolics"]) == 4
    assert report["fiber_dim"] == 2
    assert report["dim_m"] == p * p + q * q


# Hopf manifolds S^1 x S^(2n-1) (H. Hopf, Studies and Essays presented to
# R. Courant, 1948), the C-spaces over CP^(n-1): m = torus(1) +
# s(u(n - 1) + u(1)), a 2-torus fiber, and a maximal parabolic with its
# opposite
@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"S1xS{2 * n - 1}")
def test_hopf_manifolds(tmp_path, n):
    report, _ = answers(tmp_path, hopf(n), symmetric=False)
    assert report["exists"]
    assert len(report["parabolics"]) == 2
    assert report["fiber_dim"] == 2
    assert report["dim_m"] == 1 + (n - 1) ** 2


# Samelson's groups (H. Samelson, Portugaliae Math. 12, 1953): an even-
# dimensional compact group G = G/1 has m = t, the fiber is t, and there
# are |W| Borels through t (Humphreys, Reflection Groups and Coxeter
# Groups, section 2.11): |W(A2)| = 6, |W(B2)| = 8, |W(A1)|^3 = 8,
# |W(A2)|^2 = 36 and |W(D4)| = 192
SAMELSON = {
    "su3": ([("su", 3)], 6, 2),
    "so5": ([("so", 5)], 8, 2),
    "su2x3_torus1": ([("su", 2)] * 3 + [("torus", 1)], 8, 4),
    "su3_su3": ([("su", 3), ("su", 3)], 36, 4),
    "so8": ([("so", 8)], 192, 4),
}


@pytest.mark.parametrize("name", sorted(SAMELSON))
def test_samelson_groups(tmp_path, name):
    parts, weyl, rank = SAMELSON[name]
    report, _ = answers(tmp_path, unit_case(parts, []), symmetric=False)
    assert report["exists"]
    assert len(report["parabolics"]) == weyl
    assert report["fiber_dim"] == report["dim_m"] == rank


# the controls that fail Wang's condition (op. cit.): an odd dim g/h, and
# an h whose semisimple part is no torus centralizer's: so(3), the real
# skew matrices of su(3), and the diagonal su(2) in su(2) + su(2)
WANG_CONTROLS = {
    "su4_0": (unit_case([("su", 4)], []), "odd_dimension"),
    "su5_torus1_0": (unit_case([("su", 5), ("torus", 1)], []),
                     "odd_dimension"),
    "torus1_su3_so3": (unit_case([("torus", 1), ("su", 3)], [1, 3, 5]),
                       "m_not_centralizer_of_its_center"),
    "su2_su2_torus1_diagonal": (
        (unit_case([("su", 2), ("su", 2), ("torus", 1)], [])[0],
         [vadd(vunit(7, k), vunit(7, 3 + k)) for k in range(3)]),
        "m_not_centralizer_of_its_center"),
}


@pytest.mark.parametrize("name", sorted(WANG_CONTROLS))
def test_wang_controls_have_no_structure(tmp_path, name):
    case, reason = WANG_CONTROLS[name]
    code, report = runner(tmp_path, case)("classify")
    assert (code, report["exists"], report["reason"]) == (1, False, reason)


# Each C-space structure is J(p, J1) for a parabolic p with Levi m and a
# torus structure J1 on the fiber m/h (Wang, op. cit.).  On S^3 x S^5,
# S^1 x S^5 and SU(3), at every p of classify and for J1 and -J1 on the
# 2-torus fiber, decompose gives back p's index and J1, and check finds
# the J that construct built invariant and integrable
J1 = [["1", "-2"], ["1", "-1"]]
MINUS_J1 = [["-1", "2"], ["-1", "1"]]
ROUND_TRIPS = {"S3xS5": (calabi_eckmann(1, 2), 4), "S1xS5": (hopf(3), 2),
               "su3": (unit_case([("su", 3)], []), 6)}


@pytest.mark.parametrize("j1", [J1, MINUS_J1], ids=["J1", "-J1"])
@pytest.mark.parametrize("name,k", [(name, k) for name, (_, count)
                                    in ROUND_TRIPS.items()
                                    for k in range(count)])
def test_j1_round_trips_at_every_parabolic(tmp_path, name, k, j1):
    case = ROUND_TRIPS[name][0]
    code, built = runner(tmp_path, case, j1=j1)(
        "construct", "--parabolic-index", str(k))
    assert (code, built["j1"]) == (0, j1)
    run = runner(tmp_path, case, j=built["j"])
    code, report = run("decompose")
    assert (code, report["parabolic_index"], report["j1"]) == (0, k, j1)
    code, report = run("check")
    assert (code, report["invariant"], report["integrable"]) == (0, True, True)
