import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummercert.cohomology import LatticeAction, random_conjugated_block_action
from kummercert.kummer import build_sigma_h1
from kummercert.linalg import (
    BadDegreeError,
    ExactSolveError,
    FinAbGroup,
    FpMatrix,
    IntMatrix,
    _rank_mod,
    cokernel,
    exterior_power,
    kernel_basis,
    kronecker,
    smith_normal_form,
    solve_exact,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "matrices.json").read_text())


def fixture_matrix(name):
    return IntMatrix(FIXTURES[name])


# ---------------------------------------------------------------- FinAbGroup


def test_group_validation():
    with pytest.raises(ValueError):
        FinAbGroup(-1)
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))
    with pytest.raises(ValueError):
        FinAbGroup(0, (4, 6))  # 4 does not divide 6


def test_group_canonicalization():
    assert FinAbGroup.from_factors(0, [2, 3]) == FinAbGroup(0, (6,))
    assert FinAbGroup.from_factors(0, [2, 2]) == FinAbGroup(0, (2, 2))
    assert FinAbGroup.from_factors(1, [4, 6]) == FinAbGroup(1, (2, 12))
    assert FinAbGroup(0, (3,)).multiple(3) == FinAbGroup(0, (3, 3, 3))
    assert FinAbGroup.free(2).direct_sum(FinAbGroup(0, (3,))) == FinAbGroup(2, (3,))


def primary_parts(orders):
    """The multiset of prime powers p^e exactly dividing each order, sorted."""
    parts = []
    for m in orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                parts.append(p**e)
            p += 1
    return sorted(parts)


@given(st.lists(st.integers(2, 400), max_size=12), st.integers(0, 3))
def test_from_factors_is_the_chain_with_the_same_primary_parts(factors, rank):
    # Invariant factors are determined by their primary parts, and
    # from_factors must keep those of the multiset it is given.
    group = FinAbGroup.from_factors(rank, factors)
    assert group.rank == rank
    assert primary_parts(group.torsion) == primary_parts(factors)
    assert FinAbGroup.from_factors(rank, reversed(factors)) == group


@given(st.lists(st.integers(2, 60), max_size=5), st.integers(0, 2), st.integers(0, 6))
def test_multiple_is_the_direct_sum_of_copies(factors, rank, copies):
    group = FinAbGroup.from_factors(rank, factors)
    expected = FinAbGroup.from_factors(rank * copies, list(group.torsion) * copies)
    assert group.multiple(copies) == expected


def test_from_factors_takes_many_factors():
    # Linear in the number of factors.
    assert FinAbGroup.from_factors(0, [3] * 10**5) == FinAbGroup(0, (3,) * 10**5)
    assert FinAbGroup(0, (3,)).multiple(10**5) == FinAbGroup(0, (3,) * 10**5)


def test_multiple_of_a_free_group_takes_huge_copies():
    assert FinAbGroup.free(10**30).multiple(10**30) == FinAbGroup.free(10**60)
    assert FinAbGroup.zero().multiple(2**64) == FinAbGroup.zero()


def test_group_rendering():
    assert str(FinAbGroup.zero()) == "0"
    assert str(FinAbGroup.free(1)) == "Z"
    assert str(FinAbGroup(81)) == "Z^81"
    assert str(FinAbGroup(1, (2, 6))) == "Z + Z/2 + Z/6"
    assert FinAbGroup(0, (9,)).torsion_primes() == frozenset({3})


# ------------------------------------------------------------------- F_p rank


def test_rank_identity():
    assert FpMatrix.identity(3, 4).rank() == 4


def test_rank_zero_matrix():
    assert FpMatrix.zeros(3, 3, 5).rank() == 0


def test_rank_requires_prime_modulus():
    with pytest.raises(ValueError):
        FpMatrix.identity(4, 2)


def test_rank_of_shifted_sigma_is_four():
    # Four size-2 Jordan blocks mod 3 force rank(s - 1) = 8 - 4 = 4.
    from kummercert.kummer import build_sigma_h1

    sigma = build_sigma_h1().matrix.reduce_mod(3)
    shifted = sigma - FpMatrix.identity(3, 8)
    assert shifted.rank() == 4


def test_rank_product_bound():
    rng = random.Random(7)
    for _ in range(25):
        a = FpMatrix(5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
        b = FpMatrix(5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
        assert (a @ b).rank() <= min(a.rank(), b.rank())


# ----------------------------------------------------------------------- SNF


def assert_snf_contract(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0
    nonzero = [x for x in diag if x]
    assert all(x > 0 for x in nonzero)
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))
    return u, d, v


def test_snf_coprime_diagonal():
    _, d, _ = smith_normal_form(fixture_matrix("coprime_diag"))
    assert [d.data[0][0], d.data[1][1]] == [1, 6]


def test_snf_zero_matrix():
    u, d, v = smith_normal_form(IntMatrix.zeros(2, 3))
    assert d == IntMatrix.zeros(2, 3)
    assert u == IntMatrix.identity(2)
    assert v == IntMatrix.identity(3)


def test_snf_already_diagonal():
    _, d, _ = smith_normal_form(fixture_matrix("multiplication_by_3"))
    assert d.data[0][0] == 3


def test_snf_empty():
    assert_snf_contract(IntMatrix.zeros(0, 0))
    assert_snf_contract(IntMatrix.zeros(0, 3))
    assert_snf_contract(IntMatrix.zeros(3, 0))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_contract_randomized(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.lists(st.integers(-30, 30), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    assert_snf_contract(IntMatrix(entries))


# ------------------------------------------------------------ integer matmul

# A bound just inside int64.  The tests below put entry products on both
# sides of it and beyond int64; the product must be exact throughout.
INT64_SAFE = 2**62


def matmul_reference(a, b):
    """The textbook row-by-column product; the oracle for ``@``."""
    if a.cols == 0:
        return IntMatrix.zeros(a.rows, b.cols)
    cols = tuple(zip(*b.data))
    return IntMatrix(
        [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a.data], b.cols
    )


def assert_exact_product(a, b, product):
    assert product == matmul_reference(a, b)
    assert product.shape == (a.rows, b.cols)
    assert all(type(x) is int for row in product.data for x in row)


def matrices(rows, cols, entries):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: IntMatrix(data, cols))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data())
def test_matmul_matches_reference_on_dense_matrices(n, k, m, data):
    bits = data.draw(st.sampled_from((8, 20, 31, 70)))
    entries = st.integers(-(2**bits), 2**bits)
    a = data.draw(matrices(n, k, entries))
    b = data.draw(matrices(k, m, entries))
    assert_exact_product(a, b, a @ b)


def matrix_with_max(data, rows, cols, top):
    """A matrix whose largest absolute entry is exactly ``top``."""
    entries = data.draw(
        st.lists(st.integers(-top, top), min_size=rows * cols, max_size=rows * cols)
    )
    entries[data.draw(st.integers(0, rows * cols - 1))] = data.draw(st.sampled_from((top, -top)))
    return IntMatrix([entries[i * cols : (i + 1) * cols] for i in range(rows)], cols)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 2**31),
    st.sampled_from(("below", "above", "beyond int64")),
    st.data(),
)
def test_matmul_at_the_overflow_bound(k, b_max, side, data):
    if side == "below":
        a_max = (INT64_SAFE - 1) // (k * b_max)
    elif side == "above":
        a_max = -(-INT64_SAFE // (k * b_max))
    else:
        a_max = -(-(2**63) // (k * b_max))
    a = matrix_with_max(data, data.draw(st.integers(1, 4)), k, a_max)
    b = matrix_with_max(data, k, data.draw(st.integers(1, 4)), b_max)
    assert_exact_product(a, b, a @ b)
    # Equal signs make one entry reach the bound itself.
    top = IntMatrix([[a_max] * k])
    col = IntMatrix([[b_max]] * k)
    (value,) = (top @ col).data[0]
    assert value == k * a_max * b_max
    if side == "beyond int64":
        assert value >= 2**63


@pytest.mark.parametrize("n", [0, 1, 3])
def test_matmul_empty_shapes(n):
    assert IntMatrix.zeros(0, n) @ IntMatrix.zeros(n, 0) == IntMatrix.zeros(0, 0)
    assert IntMatrix.zeros(n, 0) @ IntMatrix.zeros(0, 2) == IntMatrix.zeros(n, 2)
    assert IntMatrix.zeros(0, 2) @ IntMatrix.zeros(2, n) == IntMatrix.zeros(0, n)


@pytest.mark.parametrize(
    "x, y, inside",
    [
        (0, 0, False),
        (7, -6, True),
        (2**31, 2**30, True),
        (2**31, -(2**31), False),
        (2**100, 0, False),
        (-(2**40), 2**40, False),
    ],
)
def test_matmul_one_by_one(x, y, inside):
    # ``inside``: the product is non-zero and below INT64_SAFE in absolute
    # value; the cases straddle that bound and its zero edge.
    a, b = IntMatrix([[x]]), IntMatrix([[y]])
    product = a @ b
    assert product == IntMatrix([[x * y]])
    assert_exact_product(a, b, product)
    (value,) = product.data[0]
    assert inside == (0 < abs(value) < INT64_SAFE)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_matmul_on_sparse_input(sizes, data):
    # Block-diagonal factors with some all-zero rows and columns: the
    # product only ever visits non-zeros, and must still be exact.
    entries = st.one_of(st.just(0), st.integers(-(2**70), 2**70))
    a = IntMatrix.block_diag(data.draw(matrices(n, n, entries)) for n in sizes)
    b = IntMatrix.block_diag(data.draw(matrices(n, n, entries)) for n in sizes)
    blank = data.draw(st.lists(st.integers(0, a.rows - 1), max_size=3))
    a = IntMatrix([[0] * a.cols if i in blank else row for i, row in enumerate(a.data)])
    product = a @ b
    assert_exact_product(a, b, product)
    assert all(not any(product.data[i]) for i in blank)


# ------------------------------------------------------------ F_p kernels


def dense_rank(rows, p):
    """Rank over F_p by textbook dense Gaussian elimination on lists."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def dense_product(a, b, cols, p):
    """The row-by-column product of two list matrices, reduced mod p."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(cols)] for row in a]


def fp_lists(p, rows, cols):
    """Lists over F_p with a good share of zeros and some blank rows and columns."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    return st.lists(
        st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).flatmap(
        lambda m: st.tuples(st.just(m), st.sets(st.integers(0, max(rows, cols))), st.booleans())
    ).map(lambda t: blank_out(*t))


def blank_out(m, lines, columns):
    """Zero the rows (or, if ``columns``, the columns) whose index is in ``lines``."""
    if columns:
        return [[0 if j in lines else x for j, x in enumerate(row)] for row in m]
    return [[0] * len(row) if i in lines else row for i, row in enumerate(m)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((2, 3, 5, 251)),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
    st.data(),
)
def test_fp_product_and_rank_match_dense_lists(p, n, k, m, data):
    a = data.draw(fp_lists(p, n, k))
    b = data.draw(fp_lists(p, k, m))
    fa, fb = FpMatrix(p, a, k), FpMatrix(p, b, m)
    product = fa @ fb
    assert (product.rows, product.cols) == (n, m)
    assert product.to_lists() == dense_product(a, b, m, p)
    assert fa.rank() == dense_rank(a, p)
    assert product.rank() == dense_rank(product.to_lists(), p)
    assert all(type(row) is bytes and len(row) == m for row in product.data)
    assert kronecker(fa, fb).to_lists() == [
        [x * y % p for x in row_a for y in row_b] for row_a in a for row_b in b
    ]
    assert fa.lift().reduce_mod(p) == fa and fa.lift().to_lists() == a
    assert (fa - fa).is_zero() and fa.is_zero() == (not any(map(any, a)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 5, 251)), st.integers(0, 8), st.integers(0, 8), st.data())
def test_rank_mod_equals_the_rank_of_the_reduced_matrix(p, n, k, data):
    entry = st.one_of(st.just(0), st.integers(-2**70, 2**70), st.sampled_from((p, -p, 2 * p)))
    rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    rank = _rank_mod(nonzero_pairs(rows), p)
    assert rank == IntMatrix(rows, k).reduce_mod(p).rank() == dense_rank(rows, p)
    # Pairs holding explicit zeros, as a lattice action's rows may, read the same.
    assert _rank_mod([list(enumerate(row)) for row in rows], p) == rank
    order = data.draw(st.permutations(range(n)))
    assert _rank_mod(nonzero_pairs([rows[i] for i in order]), p) == rank


def nonzero_pairs(rows):
    """Each row of a list matrix as the (column, value) pairs of its non-zeros."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def triple_loop_product(a, b, cols):
    """The product of two list matrices, one scalar product per entry."""
    out = [[0] * cols for _ in a]
    for i, row in enumerate(a):
        for j in range(cols):
            for k, x in enumerate(row):
                out[i][j] += x * b[k][j]
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.data())
def test_both_products_equal_the_triple_loop(n, k, m, data):
    # Sparse entries that often cancel: the one product kernel serves both
    # matrix types and must keep neither a cancelled entry nor a dropped one.
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    expected = triple_loop_product(a, b, m)
    product = IntMatrix(a, k) @ IntMatrix(b, m)
    assert product == IntMatrix(expected, m)
    assert_well_formed(product)
    for p in (2, 3, 251):
        fp = FpMatrix(p, a, k) @ FpMatrix(p, b, m)
        assert fp == FpMatrix(p, expected, m)
        assert all(type(row) is bytes and len(row) == m for row in fp.data)


@pytest.mark.parametrize("p", [1, 4, 9, 256, 257, 65537])
def test_fp_modulus_must_be_a_prime_below_256(p):
    with pytest.raises(ValueError):
        FpMatrix(p, [[1]])
    with pytest.raises(ValueError):
        FpMatrix.identity(p, 2)
    with pytest.raises(ValueError):
        FpMatrix.zeros(p, 1, 1)
    with pytest.raises(ValueError):
        IntMatrix([[1]]).reduce_mod(p)


@pytest.mark.parametrize(
    "build", [IntMatrix, lambda rows, cols: FpMatrix(3, rows, cols)], ids=["IntMatrix", "FpMatrix"]
)
@pytest.mark.parametrize(
    "rows, cols, message",
    [
        ([[1, 2], [3]], None, "ragged rows"),
        ([[1, 2], [3]], 2, "ragged rows"),
        ([[1, 2]], 3, "explicit column count disagrees with the rows"),
    ],
)
def test_both_matrix_types_check_their_row_shape_alike(build, rows, cols, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(rows, cols)


def test_fp_entries_are_reduced():
    m = FpMatrix(5, [[-1, 7], [10, 3]])
    assert m.to_lists() == [[4, 2], [0, 3]]
    assert m == IntMatrix([[-1, 7], [10, 3]]).reduce_mod(5)
    assert (m - m).is_zero() and not m.is_zero()
    assert FpMatrix.identity(251, 3).is_identity()
    assert FpMatrix(3, [], 4).cols == 4 and FpMatrix(3, [], 4).rows == 0


# --------------------------------------------------- internally built results


def assert_well_formed(m):
    """m holds exactly the rows the public constructor would build from its entries.

    Equality compares the sparse rows, so a stray zero kept in a row would
    make two equal matrices compare unequal.
    """
    rows = m.sparse_rows
    assert type(rows) is list and len(rows) == m.rows
    assert all(type(row) is dict for row in rows)
    assert all(
        type(j) is int and 0 <= j < m.cols and type(x) is int and x
        for row in rows for j, x in row.items()
    )
    assert type(m.data) is tuple
    assert all(type(row) is tuple and len(row) == m.cols for row in m.data)
    assert all(type(x) is int for row in m.data for x in row)
    assert m.data == tuple([tuple(row) for row in m.to_lists()])
    assert m == IntMatrix(m.data, m.cols)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_internally_built_results_are_well_formed(n, k, m, data):
    entries = st.integers(-(2**70), 2**70) if data.draw(st.booleans()) else st.integers(-255, 255)
    a = data.draw(matrices(n, k, entries))
    b = data.draw(matrices(k, m, entries))
    x = data.draw(matrices(k, m, st.integers(-9, 9)))
    square = data.draw(matrices(n, n, st.integers(-50, 50)))
    columns = data.draw(st.lists(st.integers(0, k - 1), max_size=4)) if k else []
    action, _ = random_conjugated_block_action(random.Random(data.draw(st.integers())), 6)
    results = [
        a @ b,
        row_built(a) @ row_built(b),
        IntMatrix.identity(n),
        IntMatrix.zeros(n, k),
        IntMatrix.block_diag([a, square, row_built(b)]),
        square.mat_pow(2),
        a.column_submatrix(columns),
        *smith_normal_form(a),
        exterior_power(square, data.draw(st.integers(0, n))),
        exterior_power(row_built(square), data.draw(st.integers(0, n))),
        kernel_basis(a),
        solve_exact(a, a @ x),
        FpMatrix(3, a.to_lists()).lift(),
        row_built(a).reduce_mod(251).lift(),
        action.squared().matrix,
        action.norm(),
        action.shifted(),
    ]
    for result in results:
        assert_well_formed(result)


# ------------------------------------------------- the two constructors agree


def row_built(m):
    """A matrix equal to ``m``, wrapped by ``_from_rows`` from rows built afresh from its entries."""
    return IntMatrix._from_rows([{j: x for j, x in enumerate(row) if x} for row in m.data], m.cols)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_row_built_and_dense_built_matrices_agree(n, k, data):
    # Zero rows, 0 x 0, 1 x 1 and non-square shapes all occur.  Each check
    # gets a fresh copy wrapped by ``_from_rows``, so no check sees what an
    # earlier one read from it.
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    dense = data.draw(matrices(n, k, entry))
    blank = data.draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    dense = IntMatrix([[0] * k if i in blank else row for i, row in enumerate(dense.data)], k)
    assert row_built(dense) == dense and dense == row_built(dense)
    assert row_built(dense) == row_built(dense)
    assert row_built(dense).data == dense.data
    assert (row_built(dense).rows, row_built(dense).cols) == (dense.rows, dense.cols)
    assert row_built(dense).to_lists() == dense.to_lists()
    assert row_built(dense).sparse_rows == IntMatrix(dense.data, k).sparse_rows
    assert row_built(dense).is_zero() == dense.is_zero()
    for p in (2, 3, 251):
        assert row_built(dense).reduce_mod(p) == dense.reduce_mod(p)
    if n == k:
        assert row_built(dense).det() == dense.det()
        assert row_built(dense).is_identity() == (dense == IntMatrix.identity(n))
    # Reading ``data`` stores nothing beside the rows: the matrix compares as before.
    read = row_built(dense)
    assert read.data == dense.data and read == dense and dense == read
    if n and k:
        changed = dense.to_lists()
        changed[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, k - 1))] += 1
        other = IntMatrix(changed, k)
        assert row_built(other) != dense and dense != row_built(other)
        assert row_built(other) != row_built(dense)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (2, 0), (1, 1), (2, 3)])
def test_forms_compare_their_shapes(rows, cols):
    zeros = IntMatrix([[0] * cols] * rows, cols)
    assert IntMatrix.zeros(rows, cols) == zeros == row_built(zeros)
    for other in ((rows + 1, cols), (rows, cols + 1)):
        assert IntMatrix.zeros(*other) != zeros and row_built(IntMatrix.zeros(*other)) != zeros
        assert IntMatrix.zeros(*other) != row_built(zeros)
    # Only a square matrix is the identity, even where its rows are those of one.
    padded = IntMatrix([[1 if i == j else 0 for j in range(cols)] for i in range(rows)], cols)
    assert padded.is_identity() == row_built(padded).is_identity() == (rows == cols)


def row_form(rows, cols):
    """The matrix of ``rows`` as ``_from_rows`` wraps it, beside the public constructor."""
    return row_built(IntMatrix(rows, cols))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_products_in_every_form_equal_the_references(n, k, m, data):
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70))
    a = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    expected = IntMatrix(triple_loop_product(a, b, m), m)
    # Each factor built by either constructor.
    for left, right in itertools.product((IntMatrix, row_form), repeat=2):
        product = left(a, k) @ right(b, m)
        assert product == expected
        assert product == matmul_reference(IntMatrix(a, k), IntMatrix(b, m))
        assert_well_formed(product)


# ----------------------------------------------------------- cokernel, kernel


def test_cokernel_examples():
    assert cokernel(fixture_matrix("multiplication_by_3")) == FinAbGroup(0, (3,))
    assert cokernel(IntMatrix.identity(2)) == FinAbGroup.zero()
    # By-hand Smith form of [[1,1],[2,2]] is diag(1, 0): free of rank 1.
    assert cokernel(fixture_matrix("rank_one_pair")) == FinAbGroup.free(1)


def group_from_snf(m):
    """coker(m) read off the diagonal of ``smith_normal_form(m)``; ``cokernel``'s reference."""
    _, d, _ = smith_normal_form(m)
    nonzero = [x for x in (d.data[i][i] for i in range(min(d.rows, d.cols))) if x]
    return FinAbGroup(m.rows - len(nonzero), tuple([x for x in nonzero if x > 1]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_cokernel_equals_the_group_read_off_the_smith_normal_form(rows, cols, data):
    bits = data.draw(st.sampled_from((1, 4, 40)))
    m = data.draw(matrices(rows, cols, st.integers(-(2**bits), 2**bits))).to_lists()
    m = blank_out(m, data.draw(st.sets(st.integers(0, max(rows - 1, 0)))), False)
    m = blank_out(m, data.draw(st.sets(st.integers(0, max(cols - 1, 0)))), True)
    m = IntMatrix(m, cols)
    assert cokernel(m) == group_from_snf(m)


def determinantal_divisors(m):
    """Delta_k, the gcd of the k x k minors of a square m, for k = 0..n.

    Delta_k / Delta_(k-1) is the k-th invariant factor (0 past the rank),
    so this reference for the elimination shares no code with it.
    """
    return [
        math.gcd(*[x for row in exterior_power(m, k).data for x in row])
        for k in range(m.rows + 1)
    ]


def test_invariant_factors_are_quotients_of_determinantal_divisors():
    rng = random.Random(14)
    for _ in range(2000):
        n = rng.randint(1, 5)
        bound = 2 ** rng.choice((1, 3, 10, 40))
        density = rng.choice((0.2, 0.5, 1.0))
        m = IntMatrix(
            [[rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(n)]
        )
        delta = determinantal_divisors(m)
        factors = [delta[k] // delta[k - 1] if delta[k] else 0 for k in range(1, n + 1)]
        _, d, _ = smith_normal_form(m)
        assert [d.data[i][i] for i in range(n)] == factors
        nonzero = [x for x in factors if x]
        assert cokernel(m) == FinAbGroup(n - len(nonzero), tuple([x for x in nonzero if x > 1]))


def test_kernel_of_identity_is_empty():
    basis = kernel_basis(IntMatrix.identity(3))
    assert basis.shape == (3, 0)


def test_kernel_of_zero_is_everything():
    basis = kernel_basis(IntMatrix.zeros(2, 2))
    assert basis.shape == (2, 2)
    assert abs(basis.det()) == 1


def test_kernel_of_vanishing_norm():
    # 1 + T + T^2 = 0 for the companion matrix of x^2 + x + 1.
    t = fixture_matrix("rotation")
    norm = LatticeAction(t).norm()
    assert norm.is_zero()
    assert kernel_basis(norm).shape == (2, 2)


@pytest.mark.parametrize("columns", [[2], [0, 3], [-1]])
def test_column_submatrix_takes_only_columns_of_the_matrix(columns):
    # The rows hold no zeros, so a column outside the matrix would read as zeros.
    with pytest.raises(IndexError):
        IntMatrix([[1, 2], [3, 4]]).column_submatrix(columns)


def test_kernel_columns_are_killed_and_saturated():
    rng = random.Random(11)
    for _ in range(20):
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)])
        basis = kernel_basis(m)
        product = m @ basis
        assert product.is_zero()
        # Saturation: the basis extends to a basis of Z^4, so its own
        # Smith diagonal is all ones.
        _, d, _ = smith_normal_form(basis)
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        assert all(x == 1 for x in diag)


# ----------------------------------------------------------------- exact solve


def test_solve_exact_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(3)] for _ in range(4)])
        x = IntMatrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)])
        b = a @ x
        solved = solve_exact(a, b)
        assert a @ solved == b


def test_solve_exact_rejects_non_integral():
    with pytest.raises(ExactSolveError):
        solve_exact(IntMatrix([[2]]), IntMatrix([[1]]))
    with pytest.raises(ExactSolveError):
        solve_exact(IntMatrix([[1], [1]]), IntMatrix([[1], [2]]))


# ------------------------------------------------------------- exterior power


def test_exterior_degree_zero():
    assert exterior_power(fixture_matrix("rotation"), 0) == IntMatrix([[1]])
    assert exterior_power(IntMatrix.zeros(0, 0), 0) == IntMatrix([[1]])


def test_exterior_top_is_determinant():
    m = IntMatrix([[2, 0], [0, 2]])
    assert exterior_power(m, 2) == IntMatrix([[4]])


def test_exterior_bad_degree():
    with pytest.raises(BadDegreeError):
        exterior_power(IntMatrix.identity(2), 3)


def minors(m, k):
    """The k-th compound matrix, one Bareiss determinant per entry."""
    subsets = list(itertools.combinations(range(m.rows), k))
    return IntMatrix(
        [
            [IntMatrix([[m.data[i][j] for j in cols] for i in rows], k).det() for cols in subsets]
            for rows in subsets
        ],
        len(subsets),
    )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.sampled_from(("dense", "sparse")), st.data())
def test_exterior_power_matches_minors(n, density, data):
    value = st.integers(-(10**6), 10**6)
    if density == "sparse":
        value = st.one_of(st.just(0), st.just(0), st.just(0), value)
    m = data.draw(matrices(n, n, value))
    k = data.draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    assert exterior_power(m, k) == minors(m, k)


def test_exterior_powers_of_sigma_equal_the_minors():
    # The rank-8 model's generator is built from sparse rows; its powers
    # must equal the compound matrices computed densely, entry by entry.
    sigma = build_sigma_h1().matrix
    dense = IntMatrix(sigma.to_lists())
    for q in range(6):
        power = exterior_power(sigma, q)
        assert power.data == minors(dense, q).data
        assert exterior_power(dense, q) == power


@pytest.mark.parametrize("x", [0, 1, -7, 10**6, -(2**80)])
def test_exterior_power_of_one_by_one(x):
    m = IntMatrix([[x]])
    assert exterior_power(m, 0) == IntMatrix([[1]])
    assert exterior_power(m, 1) == m
    assert exterior_power(IntMatrix.zeros(0, 0), 0) == minors(IntMatrix.zeros(0, 0), 0)


def test_exterior_functoriality():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(2, 6)
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        b = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        for k in range(n + 1):
            assert exterior_power(a @ b, k) == exterior_power(a, k) @ exterior_power(b, k)


def test_exterior_preserves_order_three():
    rot = fixture_matrix("rotation")
    m = IntMatrix.block_diag([rot, rot, IntMatrix.identity(1)])
    for k in range(m.rows + 1):
        power = exterior_power(m, k)
        assert power.mat_pow(3).is_identity()


# --------------------------------------------------------------------- mixed


def test_kronecker_shape_and_order():
    a = FpMatrix(3, [[1, 1], [0, 1]])
    b = FpMatrix.identity(3, 3)
    k = kronecker(a, b)
    assert (k.rows, k.cols) == (6, 6)
    # Left factor is the outer block index.
    assert k.data[0][3] == 1 and k.data[0][1] == 0
    assert k.to_lists()[1][4] == 1 and k.to_lists()[3][0] == 0


def test_lift_reduce_roundtrip():
    m = fixture_matrix("rotation")
    assert m.reduce_mod(3).lift() == IntMatrix([[0, 2], [1, 2]])


def test_empty_matrices_everywhere():
    empty = IntMatrix.zeros(0, 0)
    assert cokernel(empty) == FinAbGroup.zero()
    assert kernel_basis(empty).shape == (0, 0)
    assert FpMatrix.zeros(3, 0, 0).rank() == 0
    assert empty.det() == 1
    assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)
    assert cokernel(IntMatrix.zeros(2, 0)) == FinAbGroup.free(2)
