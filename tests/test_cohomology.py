import random
from unittest import mock

import pytest

from kummercert import linalg
from kummercert.cohomology import (
    LatticeAction,
    cohomology_closed_form,
    cohomology_snf,
    fixed_points,
    jordan_type_mod3,
    random_conjugated_block_action,
    random_unimodular,
)
from kummercert.jordan import JordanType
from kummercert.linalg import BadDegreeError, FinAbGroup, IntMatrix

TRIVIAL = LatticeAction(IntMatrix([[1]]))
ROTATION = LatticeAction(IntMatrix([[0, -1], [1, -1]]))
REGULAR = LatticeAction(IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
Z3 = FinAbGroup(0, (3,))


def test_action_validation():
    with pytest.raises(ValueError):
        LatticeAction(IntMatrix([[2]]))
    with pytest.raises(ValueError):
        LatticeAction(IntMatrix([[1, 0]]))


@pytest.mark.parametrize("bad", [[[2]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]])
def test_action_validation_sees_every_block(bad):
    # Splitting happens only where the cohomology is computed, so a single
    # block that does not cube to the identity still sinks the action.
    blocks = [ROTATION.matrix, IntMatrix(bad), REGULAR.matrix]
    with pytest.raises(ValueError):
        LatticeAction(IntMatrix.block_diag(blocks))


def test_trivial_lattice():
    # ker(s-1) = Z and im(N) = 3Z, so even degrees give Z/3; ker(N) = 0.
    assert cohomology_snf(TRIVIAL, 2) == Z3
    assert cohomology_snf(TRIVIAL, 1) == FinAbGroup.zero()


def test_rotation_lattice():
    # N = 0, and (s-1) has index 3 in Z^2.
    assert cohomology_snf(ROTATION, 1) == Z3
    assert cohomology_snf(ROTATION, 2) == FinAbGroup.zero()


def test_regular_lattice_is_acyclic():
    assert cohomology_snf(REGULAR, 1) == FinAbGroup.zero()
    assert cohomology_snf(REGULAR, 2) == FinAbGroup.zero()


def test_degree_zero_is_rejected():
    with pytest.raises(BadDegreeError):
        cohomology_snf(TRIVIAL, 0)


def test_empty_lattice_is_acyclic():
    empty = LatticeAction(IntMatrix.zeros(0, 0))
    assert cohomology_snf(empty, 1) == FinAbGroup.zero()
    assert cohomology_snf(empty, 2) == FinAbGroup.zero()
    assert fixed_points(empty) == FinAbGroup.zero()
    assert jordan_type_mod3(empty) == JordanType(0, 0, 0)


def test_fixed_points():
    assert fixed_points(LatticeAction(IntMatrix.identity(4))) == FinAbGroup.free(4)
    assert fixed_points(ROTATION) == FinAbGroup.zero()
    assert fixed_points(REGULAR) == FinAbGroup.free(1)


def test_closed_form_examples():
    assert cohomology_closed_form(JordanType(10, 0, 6), "odd") == FinAbGroup.zero()
    assert cohomology_closed_form(JordanType(0, 4, 0), "even") == FinAbGroup.zero()
    assert cohomology_closed_form(JordanType(1, 0, 0), "even") == Z3
    with pytest.raises(ValueError):
        cohomology_closed_form(JordanType(1, 0, 0), "sideways")


def test_closed_form_matches_snf_on_indecomposables():
    for action, jtype in ((TRIVIAL, (1, 0, 0)), (ROTATION, (0, 1, 0)), (REGULAR, (0, 0, 1))):
        assert jordan_type_mod3(action) == JordanType(*jtype)
        for degree in (1, 2):
            parity = "even" if degree % 2 == 0 else "odd"
            expected = cohomology_closed_form(JordanType(*jtype), parity)
            assert cohomology_snf(action, degree) == expected


def test_periodicity_and_conjugation_invariance():
    rng = random.Random(31)
    for _ in range(10):
        action, _ = random_conjugated_block_action(rng, max_rank=8)
        for degree in (1, 2):
            assert cohomology_snf(action, degree) == cohomology_snf(action, degree + 2)
        p, pinv = random_unimodular(rng, action.rank)
        conjugated = LatticeAction(p @ action.matrix @ pinv)
        for degree in (1, 2):
            assert cohomology_snf(conjugated, degree) == cohomology_snf(action, degree)
        assert fixed_points(conjugated) == fixed_points(action)


def test_outputs_are_elementary_abelian():
    rng = random.Random(37)
    for _ in range(15):
        action, _ = random_conjugated_block_action(rng, max_rank=9)
        for degree in (1, 2):
            group = cohomology_snf(action, degree)
            assert group.rank == 0
            assert all(d == 3 for d in group.torsion)


def test_cross_validation_smoke():
    rng = random.Random(41)
    for _ in range(20):
        action, counts = random_conjugated_block_action(rng, max_rank=9)
        observed = jordan_type_mod3(action)
        assert observed == counts
        for degree in (1, 2, 3, 4):
            parity = "even" if degree % 2 == 0 else "odd"
            assert cohomology_snf(action, degree) == cohomology_closed_form(observed, parity)


def snf_input_dims(fn, *args):
    """fn(*args), and the largest side of any matrix put through Smith normal form."""
    with mock.patch.object(
        linalg, "smith_normal_form", wraps=linalg.smith_normal_form
    ) as snf:
        result = fn(*args)
    return result, max((max(c.args[0].shape) for c in snf.call_args_list), default=0)


def test_block_diagonal_action_is_the_direct_sum_of_its_blocks():
    rng = random.Random(43)
    for _ in range(10):
        blocks = [random_conjugated_block_action(rng, max_rank=5)[0] for _ in range(3)]
        whole = LatticeAction(IntMatrix.block_diag(b.matrix for b in blocks))
        for degree in (1, 2):
            group, largest = snf_input_dims(cohomology_snf, whole, degree)
            assert group == FinAbGroup.zero().direct_sum(
                *(cohomology_snf(b, degree) for b in blocks)
            )
            assert largest <= max(b.rank for b in blocks)
        assert fixed_points(whole) == FinAbGroup.zero().direct_sum(
            *(fixed_points(b) for b in blocks)
        )


def test_scrambled_block_sum_gives_the_same_groups():
    rng = random.Random(47)
    blocks = [ROTATION.matrix, TRIVIAL.matrix, REGULAR.matrix, ROTATION.matrix, TRIVIAL.matrix]
    split = LatticeAction(IntMatrix.block_diag(blocks))
    n = split.rank
    while True:
        p, pinv = random_unimodular(rng, n)
        scrambled = LatticeAction(p @ split.matrix @ pinv)
        if snf_input_dims(fixed_points, scrambled)[1] == n:
            break  # the conjugate has no coordinate direct summand
    for degree in (1, 2, 3, 4):
        group, largest = snf_input_dims(cohomology_snf, scrambled, degree)
        assert largest == n
        assert group == cohomology_snf(split, degree)
    assert cohomology_snf(split, 1) == FinAbGroup(0, (3, 3))
    assert cohomology_snf(split, 2) == FinAbGroup(0, (3, 3))
    assert fixed_points(scrambled) == fixed_points(split) == FinAbGroup.free(3)


def test_identity_splits_into_one_by_one_blocks():
    identity = LatticeAction(IntMatrix.identity(6))
    for degree, expected in ((1, FinAbGroup.zero()), (2, FinAbGroup(0, (3,) * 6))):
        group, largest = snf_input_dims(cohomology_snf, identity, degree)
        assert group == expected
        assert largest == 1
    group, largest = snf_input_dims(fixed_points, identity)
    assert group == FinAbGroup.free(6) and largest == 1
