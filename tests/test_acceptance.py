"""Acceptance criteria.  Each test checks one criterion exactly (zero
tolerance) and records a single pass/fail summary line, printed in the
terminal summary."""

import random
import time

import pytest

from liecx.exact import GQ, Matrix, vec, vunit, is_zero_vec
from liecx.liealg import (
    quotient as make_quotient, is_abelian, is_solvable, own_algebra)
from liecx.catalog import build, build_subalgebra, su, u, torus, direct_sum
from liecx import cx

from conftest import (
    ZERO, ONE,
    record_acceptance, acceptance_pairs, parabolic_spaces,
    s2_instance, calabi_eckmann_instance, swap_structure,
    random_invariant_structures, random_torus_structure,
)
from test_fast_paths import dense_killing_perp_nilradical


_CORPUS = None


def corpus():
    """Classification and one constructed J per parabolic, for every
    acceptance pair, computed once."""
    global _CORPUS
    if _CORPUS is None:
        out = []
        for name, g, sub in acceptance_pairs():
            quot = make_quotient(g, sub)
            h = quot.h
            rep = cx.classify(quot)
            assert rep.exists, name
            js = [cx.construct_J(quot, p) for p in rep.parabolics]
            out.append((name, g, h, quot, rep, js))
        _CORPUS = out
    return _CORPUS


def _line(n, title, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    record_acceptance(f"criterion {n} ({title}): {verdict}: {detail}")
    return ok


def test_criterion_1_flag_counts():
    t0 = time.time()
    results = []
    g3 = build(su(3))
    rep = cx.classify(make_quotient(
        g3, build_subalgebra(g3, su(3), "maximal_torus")))
    results.append(rep.exists and len(rep.parabolics) == 6)
    g22 = build(direct_sum(su(2), su(2)))
    rep2 = cx.classify(make_quotient(g22, build_subalgebra(g22, None, "zero")))
    results.append(rep2.exists and len(rep2.parabolics) == 4
                   and rep2.fiber_dim == 2)
    gs = build(su(2))
    rep3 = cx.classify(make_quotient(gs, build_subalgebra(
        gs, su(2), "span", span=[[0, 0, 1]])))
    results.append(rep3.exists and len(rep3.parabolics) == 2)
    elapsed = time.time() - t0
    ok = all(results) and elapsed < 5.0
    assert _line(1, "flag counts", ok,
                 f"su(3)/t: {len(rep.parabolics)}, su(2)^2/0: "
                 f"{len(rep2.parabolics)} fiber {rep2.fiber_dim}, su(2)/u(1): "
                 f"{len(rep3.parabolics)}; {elapsed:.2f}s")


def test_criterion_2_construction_soundness():
    failures = []
    total = 0
    for name, g, h, quot, rep, js in corpus():
        for p, J in zip(rep.parabolics, js):
            total += 1
            if not cx.is_invariant(J):
                failures.append(f"{name}: not invariant")
            if not cx.is_integrable(J):
                failures.append(f"{name}: not integrable")
            bad = [e.name for e in cx.verify_structure(J) if not e.ok]
            if bad:
                failures.append(f"{name}: ledger {bad}")
    ok = not failures
    assert _line(2, "construction soundness", ok,
                 f"{total} (pair, parabolic) instances, "
                 f"{len(failures)} failures"
                 + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_3_roundtrips():
    failures = []
    total = 0
    for name, g, h, quot, rep, js in corpus():
        for p, J in zip(rep.parabolics, js):
            total += 1
            p2, j1 = cx.decompose_J(J)
            if parabolic_spaces(p2) != parabolic_spaces(p):
                failures.append(f"{name}: decompose(construct) != id")
            if cx.construct_J(quot, p2, j1).j != J.j:
                failures.append(f"{name}: construct(decompose) != id")
    for label, inst in (("S^2", s2_instance()),
                        ("Calabi-Eckmann", calabi_eckmann_instance())):
        total += 1
        g, h, quot, J = inst
        p, j1 = cx.decompose_J(J)
        if cx.construct_J(quot, p, j1).j != J.j:
            failures.append(f"{label}: construct(decompose) != id")
    ok = not failures
    assert _line(3, "round-trip completeness", ok,
                 f"{total} round trips, {len(failures)} failures")


def test_criterion_4_nijenhuis_well_definedness():
    evaluations = 0
    failures = []
    for name, g, h, quot, rep, js in corpus():
        entry, n = cx.nijenhuis_perturbation_trials(js[0], seed=1)
        evaluations += n
        if not entry.ok:
            failures.append(f"{name}: {entry.detail}")
    ok = not failures and evaluations >= 500
    assert _line(4, "Nijenhuis well-definedness", ok,
                 f"{evaluations} evaluations (>= 500 required), "
                 f"{len(failures)} failures")


def test_criterion_5_canonical_m():
    failures = []
    checked = 0
    instances = [(name, g, h, quot, js[0])
                 for name, g, h, quot, rep, js in corpus()]
    instances += [("S^2 hand-built",) + s2_instance(),
                  ("Calabi-Eckmann hand-built",) + calabi_eckmann_instance()]
    for name, g, h, quot, J in instances:
        checked += 1
        try:
            md = cx.compute_m(J)  # internally validates the Thm properties
        except cx.TheoremViolation as e:
            failures.append(f"{name}: {e}")
            continue
        if h.dim == 0:
            if not is_abelian(g, md.m):
                failures.append(f"{name}: m not abelian for h = 0")
            if not is_solvable(own_algebra(g, cx.plus_space(J))):
                failures.append(f"{name}: l not solvable for h = 0")
    ok = not failures
    assert _line(5, "canonical m", ok,
                 f"{checked} integrable instances, {len(failures)} failures")


def test_criterion_6_negative_controls():
    failures = []
    gs = build(su(2))
    rep = cx.classify(make_quotient(gs, build_subalgebra(gs, None, "zero")))
    if rep.exists or rep.reason != "odd_dimension":
        failures.append("su(2)/0 not rejected for odd dimension")
    g, h, quot, Jswap = swap_structure()
    n = cx.nijenhuis(Jswap, vunit(6, 0), vunit(6, 1))
    if n != vec([ZERO, ZERO, ONE, ZERO, ZERO, GQ(-1)]):
        failures.append(f"swap witness is {n}")
    if cx.is_integrable(Jswap):
        failures.append("swap structure reported integrable")
    g3 = build(su(3))
    t = build_subalgebra(g3, su(3), "maximal_torus")
    quot3 = make_quotient(g3, t)
    m = [[ZERO] * 6 for _ in range(6)]
    for s, d in ((0, 2), (1, 3), (4, 5)):
        m[d][s] = ONE
        m[s][d] = GQ(-1)
    if cx.is_invariant(cx.ComplexStructure(quot3, Matrix(m))):
        failures.append("root-plane-mixing J on su(3)/t reported invariant")
    ok = not failures
    assert _line(6, "negative controls", ok,
                 f"3 controls, {len(failures)} failures"
                 + (f"; first: {failures[0]}" if failures else ""))


def test_criterion_7_symmetric_pairs():
    failures = []
    g, h, quot, J = s2_instance()
    v1 = cx.is_symmetric_pair(J)
    if v1.status != "symmetric" or not all(e.ok for e in v1.checks):
        failures.append(f"(su(2), u(1)): {v1.status}")
    g3 = build(su(3))
    quot2 = make_quotient(g3, build_subalgebra(g3, su(3), "block_u", k=2))
    J2 = cx.construct_J(quot2, cx.classify(quot2).parabolics[0])
    v2 = cx.is_symmetric_pair(J2)
    if v2.status != "symmetric" or not all(e.ok for e in v2.checks):
        failures.append(f"(su(3), u(2)): {v2.status}")
    quot3 = make_quotient(g3, build_subalgebra(g3, su(3), "maximal_torus"))
    J3 = cx.construct_J(quot3, cx.classify(quot3).parabolics[0])
    v3 = cx.is_symmetric_pair(J3)
    if v3.status != "not_applicable" or v3.reason != "reducible_isotropy":
        failures.append(f"(su(3), t): {v3.status}/{v3.reason}")
    ok = not failures
    assert _line(7, "symmetric-pair detection", ok,
                 f"verdicts {v1.status}/{v2.status}/{v3.status}, "
                 f"{len(failures)} failures")


def test_criterion_8_independent_oracles():
    failures = []
    parabolic_count = 0
    for name, g, h, quot, rep, js in corpus():
        for p in rep.parabolics:
            parabolic_count += 1
            if dense_killing_perp_nilradical(g, p.space) != p.nilradical:
                failures.append(f"{name}: nilradical oracles disagree")
    rng = random.Random(2024)
    candidates = 0
    integrable = nonintegrable = 0
    g, h, quot, Jce = calabi_eckmann_instance()
    gswap = swap_structure()[3]
    rep = cx.classify(quot)
    pool = random_invariant_structures(quot, Jce.j, rng, 80)
    pool += random_invariant_structures(quot, gswap.j, rng, 80)
    for p in rep.parabolics:
        for _ in range(10):
            pool.append(cx.construct_J(quot, p,
                                       random_torus_structure(rep.m.u, rng)))
    for J in pool:
        candidates += 1
        try:
            if cx.is_integrable(J):  # asserts method A == method B
                integrable += 1
            else:
                nonintegrable += 1
        except cx.TheoremViolation as e:
            failures.append(str(e))
    ok = (not failures and candidates >= 200
          and integrable > 0 and nonintegrable > 0)
    assert _line(8, "independent-oracle agreement", ok,
                 f"{parabolic_count} nilradical cross-checks; {candidates} "
                 f"randomized J candidates ({integrable} integrable, "
                 f"{nonintegrable} not), {len(failures)} disagreements")
