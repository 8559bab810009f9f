"""Jordan types of unipotent mod-3 actions and their Green-ring calculus.

An order-3 integer matrix reduced mod 3 is unipotent, so it decomposes
into Jordan blocks of sizes 1, 2 and 3 with eigenvalue 1; these are the
indecomposable modules N1, N2, N3 of the group algebra F_3[Z/3].  The
block counts (l1, l2, l3) form the JordanType.  Direct sum, tensor product
and exterior power act on the counts through closed-form rules, small
enough to transcribe wrongly, so the test suite certifies every rule
against the matrix realization: Kronecker products and compound matrices
followed by a Jordan-profile computation.
"""

from __future__ import annotations

from .linalg import BadDegreeError, FpMatrix, InvariantError, Value, _set

__all__ = [
    "JordanType",
    "NotUnipotentError",
    "direct_sum",
    "jordan_type_unipotent",
    "realize",
    "tensor",
    "types_up_to_dim",
    "wedge",
]


class NotUnipotentError(ValueError):
    """The matrix is not unipotent: (m - 1)^p is non-zero."""


class JordanType(Value):
    """Multiplicities of the Jordan blocks N1, N2, N3."""

    __slots__ = _fields = ("l1", "l2", "l3")

    def __init__(self, l1: int, l2: int, l3: int):
        if l1 < 0 or l2 < 0 or l3 < 0:
            raise ValueError("block counts must be non-negative")
        _set(self, "l1", l1)
        _set(self, "l2", l2)
        _set(self, "l3", l3)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.l1 == other.l1 and self.l2 == other.l2 and self.l3 == other.l3

    def __hash__(self) -> int:
        return hash((self.l1, self.l2, self.l3))

    @property
    def dimension(self) -> int:
        return self.l1 + 2 * self.l2 + 3 * self.l3

    def counts(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)

    def to_json_dict(self) -> dict:
        return {"l1": self.l1, "l2": self.l2, "l3": self.l3}

    def __str__(self) -> str:
        return f"(l1={self.l1}, l2={self.l2}, l3={self.l3})"


def direct_sum(a: JordanType, b: JordanType) -> JordanType:
    return JordanType(a.l1 + b.l1, a.l2 + b.l2, a.l3 + b.l3)


# The j-th exterior power of a single block N_q, indexed [q][j].
_WEDGE_BLOCK = {
    1: ((1, 0, 0), (1, 0, 0)),
    2: ((1, 0, 0), (0, 1, 0), (1, 0, 0)),
    3: ((1, 0, 0), (0, 0, 1), (0, 0, 1), (1, 0, 0)),
}


def _tensor_counts(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Block counts of a (x) b, extended bilinearly from the block products.

    N1 is the unit; for p = 3, N2 (x) N2 = N1 + N3, N2 (x) N3 = 2 N3 and
    N3 (x) N3 = 3 N3.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (
        a1 * b1 + a2 * b2,
        a1 * b2 + a2 * b1,
        a1 * b3 + a3 * b1 + a2 * b2 + 2 * (a2 * b3 + a3 * b2) + 3 * a3 * b3,
    )


def tensor(a: JordanType, b: JordanType) -> JordanType:
    """Tensor product of two Jordan types."""
    return JordanType(*_tensor_counts(a.counts(), b.counts()))


def wedge(a: JordanType, k: int) -> JordanType:
    """k-th exterior power via the binomial expansion over the blocks.

    wedge_k(X + Y) = sum over i + j = k of wedge_i(X) (x) wedge_j(Y),
    applied one block at a time with the single-block base cases, on
    count triples.
    """
    if k < 0 or k > a.dimension:
        raise BadDegreeError(f"degree {k} out of range for dimension {a.dimension}")
    table = [(1, 0, 0)]
    for size, count in ((1, a.l1), (2, a.l2), (3, a.l3)):
        block = _WEDGE_BLOCK[size]
        for _ in range(count):
            new = [(0, 0, 0)] * (min(k, len(table) - 1 + size) + 1)
            for i, part in enumerate(table):
                for j in range(min(size, k - i) + 1):
                    x1, x2, x3 = new[i + j]
                    y1, y2, y3 = _tensor_counts(part, block[j])
                    new[i + j] = (x1 + y1, x2 + y2, x3 + y3)
            table = new
    # One entry per degree 0..min(k, dimension) = 0..k.
    return JordanType(*table[k])


_BLOCK_MATRICES = {
    1: ((1,),),
    2: ((1, 1), (0, 1)),
    3: ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
}


def realize(a: JordanType) -> FpMatrix:
    """Block-diagonal unipotent matrix over F_3 with the given Jordan type."""
    n = a.dimension
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for size, count in ((1, a.l1), (2, a.l2), (3, a.l3)):
        for _ in range(count):
            for i, block_row in enumerate(_BLOCK_MATRICES[size]):
                rows[offset + i][offset : offset + size] = block_row
            offset += size
    return FpMatrix(3, rows, n)


def _type_from_ranks(n: int, ranks: list[int]) -> JordanType:
    """Jordan type of a unipotent n x n matrix m from r_j = rank((m - 1)^j).

    ``ranks`` lists r_1, ..., r_(p-1); r_0 = n and r_j = 0 from j = p on.
    The number of blocks of size q is r_{q-1} - 2 r_q + r_{q+1}; this needs
    no change of basis, so the result is conjugation-invariant by
    construction.
    """
    r = [n, *ranks, 0, 0]
    counts = [r[q - 1] - 2 * r[q] + r[q + 1] for q in range(1, len(ranks) + 2)]
    counts += [0] * (2 - len(ranks))
    result = JordanType(*counts)
    if result.dimension != n:
        raise InvariantError(f"block counts {result} do not add up to dimension {n}")
    return result


def jordan_type_unipotent(m: FpMatrix) -> JordanType:
    """Jordan type of a unipotent matrix from its rank sequence."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    p = m.p
    if p > 3:
        raise ValueError("block sizes above 3 do not fit a three-slot Jordan type")
    n = m.rows
    x = m - FpMatrix.identity(p, n)
    powers = [x]
    for _ in range(p - 1):
        powers.append(powers[-1] @ x)
    if not powers[p - 1].is_zero():
        raise NotUnipotentError(f"(m - 1)^{p} is non-zero")
    return _type_from_ranks(n, [power.rank() for power in powers[: p - 1]])


def types_up_to_dim(max_dim: int) -> list[JordanType]:
    """All Jordan types of dimension at most max_dim, in a fixed order."""
    out = []
    for l3 in range(max_dim // 3 + 1):
        for l2 in range((max_dim - 3 * l3) // 2 + 1):
            for l1 in range(max_dim - 3 * l3 - 2 * l2 + 1):
                out.append(JordanType(l1, l2, l3))
    out.sort(key=lambda t: (t.dimension, t.counts()))
    return out
