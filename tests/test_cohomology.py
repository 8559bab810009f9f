import random
from unittest import mock

import pytest

from kummercert import cohomology, linalg
from kummercert.cohomology import (
    LatticeAction,
    _components,
    cohomology_closed_form,
    cohomology_snf,
    cross_validate,
    fixed_points,
    jordan_type_mod3,
    random_conjugated_block_action,
    random_unimodular,
)
from kummercert.jordan import JordanType, jordan_type_unipotent
from kummercert.kummer import build_model, coefficient_action
from kummercert.linalg import (
    BadDegreeError,
    FinAbGroup,
    IntMatrix,
    InvariantError,
    cokernel,
    kernel_basis,
    solve_exact,
)

TRIVIAL = LatticeAction(IntMatrix([[1]]))
ROTATION = LatticeAction(IntMatrix([[0, -1], [1, -1]]))
REGULAR = LatticeAction(IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
Z3 = FinAbGroup(0, (3,))


def test_action_validation():
    with pytest.raises(ValueError):
        LatticeAction(IntMatrix([[2]]))
    with pytest.raises(ValueError):
        LatticeAction(IntMatrix([[1, 0]]))


# Each cubes to a matrix with the identity's diagonal: only the entries off
# it show that s^3 = 1 fails.
OFF_THE_DIAGONAL = [[[1, 1], [0, 1]], [[1, 0], [5, 1]], [[1, 0, 0], [0, 1, 0], [-2, 0, 1]]]


@pytest.mark.parametrize(
    "bad", [[[2]], OFF_THE_DIAGONAL[0], [[0, 1], [1, 0]], [[-1]], *OFF_THE_DIAGONAL[1:]]
)
def test_action_validation_sees_every_block(bad):
    # Splitting happens only where the cohomology is computed, so a single
    # block that does not cube to the identity still sinks the action.
    if bad in OFF_THE_DIAGONAL:
        cube = IntMatrix(bad).mat_pow(3)
        assert [cube.data[i][i] for i in range(cube.rows)] == [1] * cube.rows
    blocks = [ROTATION.matrix, IntMatrix(bad), REGULAR.matrix]
    for m in (IntMatrix(bad), IntMatrix.block_diag(blocks)):
        with pytest.raises(ValueError, match="^the generator must cube to the identity$"):
            LatticeAction(m)


def row_built(rows, cols):
    """An IntMatrix wrapped by ``_from_rows`` from a list matrix, past the public constructor."""
    return IntMatrix._from_rows([{j: x for j, x in enumerate(row) if x} for row in rows], cols)


def test_a_row_built_generator_is_checked_like_a_dense_one():
    for rows, cols in [([[1, 0]], 2), ([[1], [0]], 1), ([[0, 1, 0], [0, 0, 1]], 3)]:
        for m in (row_built(rows, cols), IntMatrix.block_diag([row_built(rows, cols)])):
            with pytest.raises(ValueError, match="^the generator must be square$"):
                LatticeAction(m)
    p, pinv = random_unimodular(random.Random(73), 5)
    for bad in [[[2]], [[0, 1], [1, 0]], [[-1]], *OFF_THE_DIAGONAL]:
        n = len(bad)
        scrambled = p @ IntMatrix.block_diag([row_built(bad, n), IntMatrix.identity(5 - n)]) @ pinv
        for m in (row_built(bad, n), scrambled):
            with pytest.raises(ValueError, match="^the generator must cube to the identity$"):
                LatticeAction(m)


def test_a_wrong_tracked_inverse_is_an_invariant_error():
    rng = random.Random(71)
    for n in (1, 2, 7, 12):
        p, pinv = random_unimodular(rng, n)
        cohomology._check_inverse(p, pinv)
        # pinv + E_ij is no inverse: p (pinv + E_ij) = 1 + p E_ij, and p e_i is not 0.
        entries = pinv.to_lists()
        entries[rng.randrange(n)][rng.randrange(n)] += 1
        for wrong in (IntMatrix(entries, n), row_built(entries, n)):
            with pytest.raises(InvariantError, match="tracked inverse"):
                cohomology._check_inverse(p, wrong)
    with mock.patch.object(cohomology, "_check_inverse", wraps=cohomology._check_inverse) as check:
        p, pinv = random_unimodular(rng, 4)
    check.assert_called_once_with(p, pinv)


def test_an_action_on_row_built_rows_equals_its_dense_copy():
    rng = random.Random(79)
    for _ in range(150):
        action, counts = random_conjugated_block_action(rng, max_rank=12)
        actions = [action]
        if counts.dimension >= 2:
            actions.append(coefficient_action(action, 2))
        for rows in actions:
            dense = LatticeAction(IntMatrix(rows.matrix.to_lists(), rows.rank))
            assert dense == rows and rows == dense
            assert jordan_type_mod3(dense) == jordan_type_mod3(rows)
            assert dense._invariants == rows._invariants
        assert jordan_type_mod3(action) == counts


class NoDraws:
    """A random source that fails any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew {name} from the random source")


def test_a_block_sum_of_rank_below_one_is_refused_before_any_draw():
    for max_rank in (0, -1):
        with pytest.raises(ValueError, match="max_rank must be at least 1"):
            random_conjugated_block_action(NoDraws(), max_rank=max_rank)
        with pytest.raises(ValueError, match="max_rank must be at least 1"):
            cross_validate(NoDraws(), 1, max_rank=max_rank)
    assert cross_validate(NoDraws(), 0, max_rank=0)
    action, counts = random_conjugated_block_action(random.Random(67), max_rank=1)
    assert action == TRIVIAL and counts == JordanType(1, 0, 0)


def test_the_random_unimodular_matrix_of_rank_zero_is_empty():
    for ops in (None, 0, 5):
        p, pinv = random_unimodular(NoDraws(), 0, ops)
        assert p == pinv == IntMatrix.zeros(0, 0)
        assert LatticeAction(p @ pinv).rank == 0


def dense_reference(m):
    """(s^2, N = 1 + s + s^2, s - 1) of a square list matrix, by plain list loops."""
    square = []
    for row in m:
        total = [0] * len(m)
        for x, other in zip(row, m):
            if x:
                total = [y + x * z for y, z in zip(total, other)]
        square.append(total)
    norm = [[x + y for x, y in zip(row, row_sq)] for row, row_sq in zip(m, square)]
    shifted = [list(row) for row in m]
    for i in range(len(m)):
        norm[i][i] += 1
        shifted[i][i] -= 1
    return square, norm, shifted


def assert_sparse_rows_equal_the_dense_reference(action):
    """Check s^2, N and s - 1 of ``action``; return the action of s^2."""
    m = action.matrix.to_lists()
    square, norm, shifted = dense_reference(m)
    other = action.squared()
    assert other.matrix == IntMatrix(square, len(m))
    assert action.norm() == IntMatrix(norm, len(m))
    assert action.shifted() == IntMatrix(shifted, len(m))
    return other


def test_sparse_rows_equal_the_dense_reference():
    assert_sparse_rows_equal_the_dense_reference(LatticeAction(IntMatrix.zeros(0, 0)))
    assert_sparse_rows_equal_the_dense_reference(TRIVIAL)
    for action in build_model().powers.values():
        assert_sparse_rows_equal_the_dense_reference(action)
    rng = random.Random(61)
    for _ in range(2000):
        action, counts = random_conjugated_block_action(rng, max_rank=12)
        other = assert_sparse_rows_equal_the_dense_reference(action)
        assert_sparse_rows_equal_the_dense_reference(other)
        if counts.dimension >= 2:
            assert_sparse_rows_equal_the_dense_reference(coefficient_action(action, 2))


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
    assert cohomology_closed_form(JordanType(10, 0, 6), 1) == FinAbGroup.zero()
    assert cohomology_closed_form(JordanType(0, 4, 0), 2) == FinAbGroup.zero()
    assert cohomology_closed_form(JordanType(1, 0, 0), 2) == Z3
    with pytest.raises(BadDegreeError):
        cohomology_closed_form(JordanType(1, 0, 0), 0)


def test_closed_form_matches_snf_on_indecomposables():
    for action, jtype in ((TRIVIAL, (1, 0, 0)), (ROTATION, (0, 1, 0)), (REGULAR, (0, 0, 1))):
        assert jordan_type_mod3(action) == JordanType(*jtype)
        for degree in (1, 2):
            expected = cohomology_closed_form(JordanType(*jtype), degree)
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
            assert cohomology_snf(action, degree) == cohomology_closed_form(observed, degree)


def test_mod3_type_from_two_ranks_equals_the_unipotent_profile():
    # jordan_type_mod3 reads only rank(s - 1) and rank(N) mod 3; the
    # reference forms the powers of s - 1 over F_3 and checks the cube.
    def check(action):
        assert jordan_type_mod3(action) == jordan_type_unipotent(action.matrix.reduce_mod(3))

    check(LatticeAction(IntMatrix.zeros(0, 0)))
    check(TRIVIAL)
    for action in build_model().powers.values():
        check(action)
    rng = random.Random(53)
    for _ in range(2000):
        action, counts = random_conjugated_block_action(rng, max_rank=12)
        check(action)
        check(action.squared())
        if counts.dimension >= 2:
            check(coefficient_action(action, 2))


def test_cross_validation_stops_at_the_first_mismatch(monkeypatch):
    assert cross_validate(random.Random(41), 20, max_rank=10)
    draws = []
    draw = cohomology.random_conjugated_block_action

    def counted(rng, max_rank):
        draws.append(max_rank)
        return draw(rng, max_rank=max_rank)

    monkeypatch.setattr(cohomology, "random_conjugated_block_action", counted)
    monkeypatch.setattr(cohomology, "cohomology_closed_form", lambda j, p: FinAbGroup.free(1))
    assert not cross_validate(random.Random(41), 20, max_rank=10)
    assert draws == [10]


def test_free_ranks_that_do_not_add_up_are_an_invariant_error(monkeypatch):
    # ker(s - 1) and ker(N) are complementary over Q for an order-3 action,
    # so a cokernel that says otherwise is a bug, raised even under -O.
    cokernel = cohomology.cokernel
    monkeypatch.setattr(
        cohomology, "cokernel", lambda m: cokernel(m).direct_sum(FinAbGroup.free(1))
    )
    with pytest.raises(InvariantError):
        fixed_points(LatticeAction(ROTATION.matrix))


def snf_input_dims(fn, *args):
    """fn(*args), and the largest side of any matrix put through Smith normal form.

    The largest side is 0 when the call made no Smith normal form at all.
    """
    with mock.patch.object(linalg, "_diagonalize", wraps=linalg._diagonalize) as snf:
        result = fn(*args)
    return result, max((max(c.args[1:]) for c in snf.call_args_list), default=0)


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
    # The fixed_points probe computed the fixed rank and both parities on
    # the whole lattice; every degree reads them off the action without SNF.
    for degree in (1, 2, 3, 4):
        group, largest = snf_input_dims(cohomology_snf, scrambled, degree)
        assert largest == 0
        assert group == cohomology_snf(split, degree)
    assert cohomology_snf(split, 1) == FinAbGroup(0, (3, 3))
    assert cohomology_snf(split, 2) == FinAbGroup(0, (3, 3))
    assert fixed_points(scrambled) == fixed_points(split) == FinAbGroup.free(3)


def test_identity_splits_into_one_by_one_blocks():
    identity = LatticeAction(IntMatrix.identity(6))
    for degree, expected in ((1, FinAbGroup.zero()), (2, FinAbGroup(0, (3,) * 6))):
        group, largest = snf_input_dims(cohomology_snf, identity, degree)
        assert group == expected
        # Only the first call on the action runs Smith normal form.
        assert largest == (1 if degree == 1 else 0)
    group, largest = snf_input_dims(fixed_points, identity)
    assert group == FinAbGroup.free(6) and largest == 0
    group, largest = snf_input_dims(fixed_points, LatticeAction(IntMatrix.identity(6)))
    assert group == FinAbGroup.free(6) and largest == 1


def test_both_parities_are_computed_once_per_action():
    rng = random.Random(53)
    action, counts = random_conjugated_block_action(rng, max_rank=9)
    first, _ = snf_input_dims(cohomology_snf, action, 3)
    for degree in (1, 2, 3, 4, 5, 6):
        group, largest = snf_input_dims(cohomology_snf, action, degree)
        assert largest == 0
        fresh = cohomology_snf(LatticeAction(action.matrix), degree)
        assert group == fresh == cohomology_closed_form(counts, degree)
    assert first == cohomology_snf(action, 1)
    assert snf_input_dims(fixed_points, action)[1] == 0


def test_the_integer_rows_of_s_minus_1_and_n_are_built_only_for_the_cokernels(monkeypatch):
    built = []

    def counted(name, build):
        return lambda action: built.append(name) or build(action)

    for name in ("_shifted", "_norm"):
        rows = vars(LatticeAction)[name]
        monkeypatch.setattr(rows, "func", counted(name, rows.func))
    rng = random.Random(59)
    action, counts = random_conjugated_block_action(rng, max_rank=9)
    while counts.dimension < 2:
        action, counts = random_conjugated_block_action(rng, max_rank=9)
    wedge = coefficient_action(action, 2)
    jordan_type_mod3(wedge)
    assert "_shifted" not in vars(wedge) and "_norm" not in vars(wedge) and built == []
    for degree in (1, 2, 3, 4):
        cohomology_snf(wedge, degree)
    fixed_points(wedge)
    s, square = wedge.matrix.data, (wedge.matrix @ wedge.matrix).data
    assert wedge.shifted().to_lists() == [
        [x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(s)
    ]
    assert wedge.norm().to_lists() == [
        [(i == j) + x + y for j, (x, y) in enumerate(zip(*rows))]
        for i, rows in enumerate(zip(s, square))
    ]
    assert sorted(built) == ["_norm", "_shifted"]
    # The cube check stays with the construction.
    with pytest.raises(ValueError, match="^the generator must cube to the identity$"):
        LatticeAction(IntMatrix([[0, 1], [1, 0]]))


def quotient_reference(action):
    """(fixed lattice, even, odd) as quotients of lattices on the unsplit action.

    ker(s - 1) / im(N) and ker(N) / im(s - 1), each from a saturated kernel
    basis, the image rewritten in it by an exact solve, and a cokernel.
    """

    def quotient(basis, image):
        return cokernel(solve_exact(basis, image)) if basis.cols else FinAbGroup.zero()

    delta, norm = action.shifted(), action.norm()
    fixed = kernel_basis(delta)
    return FinAbGroup.free(fixed.cols), quotient(fixed, norm), quotient(kernel_basis(norm), delta)


def two_cokernel_route(action):
    return fixed_points(action), cohomology_snf(action, 2), cohomology_snf(action, 1)


def test_model_lattices_match_the_quotient_reference():
    model = build_model()
    for q, power in model.powers.items():
        for action in (power, power.squared()):
            assert two_cokernel_route(action) == quotient_reference(action), q


@pytest.mark.parametrize("n", [0, 1, 5])
def test_identity_matches_the_quotient_reference(n):
    identity = LatticeAction(IntMatrix.identity(n))
    assert two_cokernel_route(identity) == quotient_reference(identity)
    assert two_cokernel_route(identity) == (FinAbGroup.free(n), Z3.multiple(n), FinAbGroup.zero())


def test_random_lattices_match_the_quotient_reference():
    rng = random.Random(59)
    unsplit = 0
    for i in range(240):
        action, counts = random_conjugated_block_action(rng, max_rank=12)
        if i % 2:
            # A longer scramble: larger coefficients, rarely any direct summand.
            p, pinv = random_unimodular(rng, action.rank, ops=4 * action.rank)
            action = LatticeAction(p @ action.matrix @ pinv)
        unsplit += len(_components(action.matrix.sparse_rows)) == 1
        expected = quotient_reference(action)
        assert two_cokernel_route(action) == expected
        assert expected == (
            FinAbGroup.free(counts.l1 + counts.l3),
            Z3.multiple(counts.l1),
            Z3.multiple(counts.l2),
        )
    assert unsplit >= 100
