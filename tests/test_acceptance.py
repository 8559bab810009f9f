"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Everything here is exact integer arithmetic, so every tolerance is equality.
"""

import random
from math import comb

from kummercert.cli import RunConfig, run
from kummercert.cohomology import (
    cohomology_closed_form,
    cohomology_snf,
    jordan_type_mod3,
    random_conjugated_block_action,
)
from kummercert.jordan import (
    JordanType,
    jordan_type_unipotent,
    realize,
    tensor,
    types_up_to_dim,
    wedge,
)
from kummercert.kummer import (
    VANISHING_PAIRS,
    build_model,
    build_sigma_h1,
    ell_table_routes,
    vanishing_certificate,
)
from kummercert.ledger import check_script, without_axiom, without_step
from kummercert.linalg import IntMatrix, exterior_power, kronecker, smith_normal_form
from kummercert.proofscript import build_script
from kummercert.kummer import KummerContext, fixed_rank_table

EXPECTED_TABLE = {
    1: JordanType(0, 4, 0),
    2: JordanType(10, 0, 6),
    3: JordanType(0, 16, 8),
    4: JordanType(19, 0, 17),
}


def _verdict(number, description, ok):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_proposition_reproduction(ctx):
    matrix_route, closed_route = ell_table_routes(ctx.sigma_h1)
    ok = matrix_route == EXPECTED_TABLE and closed_route == EXPECTED_TABLE
    _verdict(1, "block-count table (0,4,0),(10,0,6),(0,16,8),(19,0,17) by both routes", ok)


def test_criterion_2_vanishing_certificate(ctx):
    pairs = tuple((e.p, e.q) for e in ctx.vanishing)
    ok = pairs == VANISHING_PAIRS and all(e.group.is_zero for e in ctx.vanishing)
    _verdict(2, "all eight H^p(A3, H^q) with p >= 1, p+q in {3,5} vanish via SNF", ok)


def test_criterion_3_end_to_end_certificate():
    code, payload, text = run(RunConfig("full-cert"))
    ok = code == 0 and payload["pass"]
    ok = ok and payload["conclusion"] == "Tors H^k(K2(A), Z) = 0 for all k."
    goals = {g["fact"]: g for g in payload["ledger"]["goals"]}
    ok = ok and all(
        goals[f"H^{k}(K2A) : torsion-free"]["established"] for k in range(9)
    )
    # Degrees 4, 6, 7, 8 must come through the duality rule (paired with
    # 5, 3, 2, 1 respectively).
    for degree, step_id in ((4, "s21"), (6, "s22"), (7, "s23"), (8, "s24")):
        chain = goals[f"H^{degree}(K2A) : torsion-free"]["chain"]
        ok = ok and any(step_id in line for line in chain)
    _verdict(3, "full-cert validates kummer.proof and derives every degree", ok)


def test_criterion_4_oracle_equivalence_exhaustive():
    types = types_up_to_dim(9)
    realizations = {t: realize(t) for t in types}
    ok = True
    for a in types:
        for b in types:
            product = jordan_type_unipotent(kronecker(realizations[a], realizations[b]))
            if product != tensor(a, b):
                ok = False
                break
        if not ok:
            break
    if ok:
        for a in types:
            lifted = realizations[a].lift()
            for k in range(a.dimension + 1):
                compound = exterior_power(lifted, k).reduce_mod(3)
                if jordan_type_unipotent(compound) != wedge(a, k):
                    ok = False
                    break
            if not ok:
                break
    _verdict(4, f"tensor and wedge match the matrix oracle on all {len(types)} types of dim <= 9", ok)


def test_criterion_5_closed_form_vs_snf():
    rng = random.Random(20260810)
    ok = True
    for _ in range(200):
        action, counts = random_conjugated_block_action(rng, max_rank=12)
        observed = jordan_type_mod3(action)
        if observed != counts:
            ok = False
            break
        groups = {}
        for degree in (1, 2, 3, 4):
            parity = "even" if degree % 2 == 0 else "odd"
            groups[degree] = cohomology_snf(action, degree)
            if groups[degree] != cohomology_closed_form(observed, parity):
                ok = False
                break
        if not ok:
            break
        if groups[1] != groups[3] or groups[2] != groups[4]:
            ok = False
            break
    _verdict(5, "200 random conjugated lattices of rank <= 12, degrees 1-4, plus periodicity", ok)


def test_criterion_6_dimension_bookkeeping(ctx):
    ok = all(ctx.ell[k].dimension == comb(8, k) for k in range(1, 5))
    ok = ok and [comb(8, k) for k in range(1, 5)] == [8, 28, 56, 70]
    _verdict(6, "sum of q * l_q^k equals C(8, k) = 8, 28, 56, 70", ok)


def test_criterion_7_snf_contract_randomized():
    rng = random.Random(97)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 10)
        cols = rng.randint(1, 10)
        m = IntMatrix([[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)])
        u, d, v = smith_normal_form(m)
        if u @ m @ v != d or abs(u.det()) != 1 or abs(v.det()) != 1:
            ok = False
            break
        diag = [d.data[i][i] for i in range(min(rows, cols))]
        nonzero = [x for x in diag if x]
        if any(x < 0 for x in diag) or any(b % a for a, b in zip(nonzero, nonzero[1:])):
            ok = False
            break
        if diag[len(nonzero):] != [0] * (len(diag) - len(nonzero)):
            ok = False
            break
    _verdict(7, "u m v = d, unimodularity, divisibility chain on 500 random matrices", ok)


def test_criterion_8_mutation_robustness(ctx, script):
    ok = True
    for axiom in script.axioms:
        if check_script(without_axiom(script, axiom.id)).passed:
            ok = False
            break
    if ok:
        for step in script.steps:
            if check_script(without_step(script, step.id)).passed:
                ok = False
                break
    # Swapping the generator for its square must leave criteria 1-3 intact.
    if ok:
        swapped = ctx.sigma_h1.squared()
        table = build_model(swapped).ell
        vanishing = vanishing_certificate(swapped)
        ok = table == EXPECTED_TABLE and all(e.group.is_zero for e in vanishing)
        if ok:
            swapped_ctx = KummerContext(
                sigma_h1=swapped,
                ell=table,
                vanishing=vanishing,
                fixed_ranks=fixed_rank_table(swapped),
            )
            ok = check_script(build_script(swapped_ctx)).passed
    _verdict(8, "every single deletion fails; generator swap changes nothing", ok)
