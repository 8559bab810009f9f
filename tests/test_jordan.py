import random

import pytest

from kummercert.cohomology import random_unimodular
from kummercert.jordan import (
    JordanType,
    NotUnipotentError,
    direct_sum,
    jordan_type_unipotent,
    realize,
    tensor,
    types_up_to_dim,
    wedge,
)
from kummercert.linalg import BadDegreeError, FpMatrix, exterior_power, kronecker

N1 = JordanType(1, 0, 0)
N2 = JordanType(0, 1, 0)
N3 = JordanType(0, 0, 1)
EMPTY = JordanType(0, 0, 0)


def test_jordan_type_of_identity():
    assert jordan_type_unipotent(FpMatrix.identity(3, 5)) == JordanType(5, 0, 0)


def test_jordan_type_of_full_block():
    block = FpMatrix(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert jordan_type_unipotent(block) == N3


def test_jordan_type_rejects_non_unipotent():
    with pytest.raises(NotUnipotentError):
        jordan_type_unipotent(FpMatrix(3, [[0, 1], [1, 0]]))


def test_jordan_type_over_f2():
    assert jordan_type_unipotent(FpMatrix(2, [[1, 1], [0, 1]])) == N2


def test_jordan_type_empty():
    assert jordan_type_unipotent(FpMatrix.zeros(3, 0, 0)) == EMPTY


def test_realize_roundtrip():
    for t in types_up_to_dim(6):
        assert jordan_type_unipotent(realize(t)) == t


def test_conjugation_invariance():
    rng = random.Random(23)
    for t in types_up_to_dim(5):
        n = t.dimension
        if n == 0:
            continue
        p, pinv = random_unimodular(rng, n)
        conjugated = (p.reduce_mod(3) @ realize(t)) @ pinv.reduce_mod(3)
        assert jordan_type_unipotent(conjugated) == t


# ------------------------------------------------------------------ the ring


def test_direct_sum():
    assert direct_sum(N1, N3) == JordanType(1, 0, 1)
    assert direct_sum(EMPTY, N2) == N2
    four = EMPTY
    for _ in range(4):
        four = direct_sum(four, N2)
    assert four == JordanType(0, 4, 0)


def test_tensor_table():
    assert tensor(N1, N3) == N3
    assert tensor(N2, N2) == JordanType(1, 0, 1)
    assert tensor(N2, N3) == JordanType(0, 0, 2)
    assert tensor(N3, N3) == JordanType(0, 0, 3)


def test_tensor_ring_laws_exhaustive():
    small = types_up_to_dim(4)
    for a in small:
        assert tensor(N1, a) == a
        for b in small:
            assert tensor(a, b) == tensor(b, a)
            assert tensor(a, b).dimension == a.dimension * b.dimension
    tiny = types_up_to_dim(3)
    for a in tiny:
        for b in tiny:
            for c in tiny:
                assert tensor(a, tensor(b, c)) == tensor(tensor(a, b), c)
                assert tensor(a, direct_sum(b, c)) == direct_sum(tensor(a, b), tensor(a, c))


def test_wedge_of_four_planes():
    base = JordanType(0, 4, 0)
    assert wedge(base, 2) == JordanType(10, 0, 6)
    assert wedge(base, 3) == JordanType(0, 16, 8)
    assert wedge(base, 4) == JordanType(19, 0, 17)


def test_wedge_base_cases_against_matrices():
    # wedge^2 N2 = N1, wedge^2 N3 = N3, wedge^3 N3 = N1.
    for t, k in ((N2, 2), (N3, 2), (N3, 3)):
        lifted = realize(t).lift()
        observed = jordan_type_unipotent(exterior_power(lifted, k).reduce_mod(3))
        assert wedge(t, k) == observed
    assert wedge(N2, 2) == N1
    assert wedge(N3, 2) == N3
    assert wedge(N3, 3) == N1


def test_wedge_degenerate_degrees():
    assert wedge(EMPTY, 0) == N1
    assert wedge(N3, 0) == N1
    with pytest.raises(BadDegreeError):
        wedge(N2, 3)


def test_wedge_dimension_bookkeeping():
    from math import comb

    for t in types_up_to_dim(6):
        for k in range(t.dimension + 1):
            assert wedge(t, k).dimension == comb(t.dimension, k)


# The calculus on JordanType objects that the count-triple one replaced,
# kept verbatim as the reference it must match.
_REFERENCE_PRODUCT = {
    (1, 1): (1, 0, 0),
    (1, 2): (0, 1, 0),
    (1, 3): (0, 0, 1),
    (2, 2): (1, 0, 1),
    (2, 3): (0, 0, 2),
    (3, 3): (0, 0, 3),
}
_REFERENCE_WEDGE_BLOCK = {
    1: ((1, 0, 0), (1, 0, 0)),
    2: ((1, 0, 0), (0, 1, 0), (1, 0, 0)),
    3: ((1, 0, 0), (0, 0, 1), (0, 0, 1), (1, 0, 0)),
}


def reference_tensor(a, b):
    out = [0, 0, 0]
    for q, cq in ((1, a.l1), (2, a.l2), (3, a.l3)):
        if not cq:
            continue
        for r, cr in ((1, b.l1), (2, b.l2), (3, b.l3)):
            if not cr:
                continue
            vec = _REFERENCE_PRODUCT[(q, r) if q <= r else (r, q)]
            mult = cq * cr
            out[0] += mult * vec[0]
            out[1] += mult * vec[1]
            out[2] += mult * vec[2]
    return JordanType(*out)


def reference_wedge(a, k):
    table = [JordanType(1, 0, 0)]
    for size, count in ((1, a.l1), (2, a.l2), (3, a.l3)):
        for _ in range(count):
            upper = min(k, len(table) - 1 + size)
            new = [JordanType(0, 0, 0)] * (upper + 1)
            for i, part in enumerate(table):
                if part.counts() == (0, 0, 0):
                    continue
                for j in range(min(size, k - i) + 1):
                    piece = reference_tensor(part, JordanType(*_REFERENCE_WEDGE_BLOCK[size][j]))
                    new[i + j] = direct_sum(new[i + j], piece)
            table = new
    return table[k] if k < len(table) else JordanType(0, 0, 0)


def test_count_triple_calculus_equals_the_object_calculus():
    for t in types_up_to_dim(12):
        for k in range(t.dimension + 1):
            assert wedge(t, k) == reference_wedge(t, k)
    small = types_up_to_dim(9)
    for a in small:
        for b in small:
            assert tensor(a, b) == reference_tensor(a, b)


def test_oracle_agreement_spot_checks():
    rng = random.Random(29)
    pool = [t for t in types_up_to_dim(5) if t.dimension]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert tensor(a, b) == jordan_type_unipotent(kronecker(realize(a), realize(b)))
        k = rng.randint(0, a.dimension)
        lifted = realize(a).lift()
        assert wedge(a, k) == jordan_type_unipotent(exterior_power(lifted, k).reduce_mod(3))
