import json
from math import comb

import pytest

from kummercert.cohomology import LatticeAction, jordan_type_mod3
from kummercert.jordan import JordanType
from kummercert.kummer import (
    CertificateFailure,
    KummerModel,
    VANISHING_PAIRS,
    build_model,
    build_sigma_h1,
    coefficient_action,
    ell_table_routes,
    fixed_rank_table,
    vanishing_certificate,
)
from kummercert.linalg import IntMatrix, InvariantError, kernel_basis

EXPECTED_TABLE = {
    1: JordanType(0, 4, 0),
    2: JordanType(10, 0, 6),
    3: JordanType(0, 16, 8),
    4: JordanType(19, 0, 17),
}


def test_sigma_has_order_three():
    sigma = build_sigma_h1()
    assert sigma.rank == 8
    assert sigma.matrix.mat_pow(3).is_identity()
    assert not sigma.matrix.is_identity()


def test_sigma_mod3_type():
    assert jordan_type_mod3(build_sigma_h1()) == JordanType(0, 4, 0)


def test_sigma_has_no_fixed_vectors():
    assert kernel_basis(build_sigma_h1().shifted()).cols == 0


def test_ell_table_values(model):
    assert model.ell == EXPECTED_TABLE


def test_ell_table_routes_agree_independently():
    matrix_route, closed_route = ell_table_routes()
    assert matrix_route == EXPECTED_TABLE
    assert closed_route == EXPECTED_TABLE


def test_dimension_bookkeeping(model):
    for k, t in model.ell.items():
        assert t.dimension == comb(8, k)


def test_vanishing_certificate(model):
    assert tuple((e.p, e.q) for e in model.vanishing) == VANISHING_PAIRS
    assert all(e.group.is_zero for e in model.vanishing)


def test_vanishing_certificate_rejects_bad_action():
    # The trivial action on Z^8 has plenty of even-degree cohomology.
    with pytest.raises(CertificateFailure):
        vanishing_certificate(LatticeAction(IntMatrix.identity(8)))


def test_fixed_ranks(model):
    # Eigenvalue count: the 8 eigenvalues are four conjugate pairs of
    # primitive cube roots of unity, so the fixed rank of the degree-q
    # power counts the q-subsets whose product is 1.
    assert model.fixed_ranks == {0: 1, 1: 0, 2: 16, 3: 8, 4: 36, 5: 8}


def test_convention_swap_leaves_invariants_unchanged(model):
    swapped = model.action.squared()
    assert build_model(swapped).ell == model.ell
    assert all(e.group.is_zero for e in vanishing_certificate(swapped))
    assert fixed_rank_table(swapped) == model.fixed_ranks


def test_context_serialization(model):
    blob = json.dumps(model.to_json_dict())
    parsed = json.loads(blob)
    assert parsed["ell_table"]["4"] == {"l1": 19, "l2": 0, "l3": 17}
    assert len(parsed["vanishing"]) == 8
    assert parsed["fixed_ranks"]["0"] == 1
    assert len(model.content_tag()) == 16
    assert model.content_tag() == model.content_tag()


def test_coefficient_action_degree_zero_is_trivial():
    action = coefficient_action(build_sigma_h1(), 0)
    assert action.matrix == IntMatrix([[1]])


def test_model_sanity_check_is_an_explicit_invariant():
    # The trivial action has the wrong mod-3 type and fixed vectors; the
    # model refuses to serialize it without relying on assert.
    model = KummerModel(LatticeAction(IntMatrix.identity(8)))
    assert not model.is_expected_model
    with pytest.raises(InvariantError):
        model.to_json_dict()


def test_model_keeps_its_tower_and_invariants():
    model = KummerModel(build_sigma_h1())
    assert sorted(model.powers) == [0, 1, 2, 3, 4, 5]
    assert model.routes is model.routes
    assert model.fixed_ranks is model.fixed_ranks
