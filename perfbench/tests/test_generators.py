"""Unit tests of the benchmark's input generators and oracle tables.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import specs  # noqa: E402
import workloads  # noqa: E402
from liecx import cx  # noqa: E402
from liecx.catalog import (  # noqa: E402
    build, build_subalgebra, direct_sum, so, su)
from liecx.exact import GQ, Matrix  # noqa: E402
from liecx.liealg import LieAlgebra, Subalgebra, quotient  # noqa: E402


def _gq_matrix(rows):
    return Matrix([[GQ(specs.Fraction(x)) for x in r] for r in rows])


@pytest.mark.parametrize("parts,spec", [
    ([("su", 2)], su(2)), ([("su", 3)], su(3)), ([("so", 5)], so(5)),
    ([("su", 2), ("su", 2)], direct_sum(su(2), su(2))),
])
def test_tables_match_the_catalog(parts, spec):
    table, torus = specs.algebra_table(parts)
    g = build(spec)
    assert [[[GQ(x) for x in v] for v in row] for row in table] == \
        [[list(v) for v in row] for row in g.table]
    assert _gq_matrix(specs.minus_killing(table)) == g.inner_product
    t = build_subalgebra(g, spec, "maximal_torus")
    assert list(t.space.pivots) == torus


@pytest.mark.parametrize("n,sub,kw,planes", [
    (2, "span", {"span": [[0, 0, 1]]}, 1), (3, "maximal_torus", {}, 3),
    (3, "block_u", {"k": 2}, 2)])
def test_sign_pattern_js_are_invariant(n, sub, kw, planes):
    g = build(su(n))
    quot = quotient(g, build_subalgebra(g, su(n), sub, **kw))
    for signs in specs.sign_patterns(planes):
        J = cx.ComplexStructure(quot, _gq_matrix(specs.sign_pattern_j(signs)))
        # the isotropy u(2) of su(3)/u(2) mixes its two planes
        expected = sub != "block_u" or len(set(signs)) == 1
        assert cx.is_invariant(J) is expected, signs


def test_tournament_rule_matches_the_library_on_su3_t():
    g = build(su(3))
    quot = quotient(g, build_subalgebra(g, su(3), "maximal_torus"))
    for signs in specs.sign_patterns(3):
        J = cx.ComplexStructure(quot, _gq_matrix(specs.sign_pattern_j(signs)))
        assert cx.is_integrable(J) is specs.su_t_integrable(3, signs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integrable_sign_patterns_number_weyl_order(n):
    planes = n * (n - 1) // 2
    count = sum(specs.su_t_integrable(n, s)
                for s in specs.sign_patterns(planes))
    assert count == specs.weyl_order("su", n) == math.factorial(n)


def test_weyl_orders():
    assert [specs.weyl_order("su", n) for n in (2, 3, 4)] == [2, 6, 24]
    assert specs.weyl_order("so", 5) == 8          # B2
    assert specs.weyl_order("so", 7) == 48         # B3
    assert specs.weyl_order("so", 4) == 4          # D2 = A1 x A1
    assert specs.weyl_order("so", 6) == 24         # D3 = A3
    assert specs.weyl_order_of_sum([("su", 2), ("su", 2)]) == 4
    assert specs.weyl_order("torus", 3) == 1


@pytest.mark.parametrize("parts,seed", [
    ([("su", 2), ("su", 2)], 0), ([("su", 2), ("su", 2)], 7),
    ([("su", 3)], 0), ([("su", 3)], 3)])
def test_rotated_tables_pass_validate(parts, seed):
    spec = specs.dense_spec(parts, random.Random(seed))
    table = [[[GQ(specs.Fraction(x)) for x in v] for v in row]
             for row in spec["algebra"]["table"]]
    g = LieAlgebra(table, inner_product=_gq_matrix(
        spec["algebra"]["inner_product"]))
    assert g.validate().ok
    torus = [[GQ(specs.Fraction(x)) for x in v]
             for v in spec["subalgebra"]["vectors"]]
    assert Subalgebra.span(g, torus, check=True).is_abelian()


def test_rotation_is_dense():
    spec = specs.dense_spec([("su", 3)], random.Random(0))
    entries = [x for row in spec["algebra"]["table"] for v in row for x in v]
    assert sum(x != "0" for x in entries) / len(entries) > 0.8


def test_j_squared_oracle():
    assert specs.j_squared_is_minus_identity(specs.CALABI_ECKMANN_J)
    assert specs.j_squared_is_minus_identity(specs.SWAP_J)
    assert not specs.j_squared_is_minus_identity([["1", "0"], ["0", "1"]])


def test_workloads_are_deterministic_and_cover_every_command():
    for name, make in workloads.WORKLOADS.items():
        a, b = make(5), make(5)
        assert [j.name for j in a.jobs] == [j.name for j in b.jobs]
        assert a.specs == b.specs
        assert {j.command for j in a.jobs} == set(workloads.COMMANDS), name
