"""Jordan types of unipotent mod-3 actions and their Green-ring calculus.

An order-3 integer matrix reduced mod 3 is unipotent, so it decomposes
into Jordan blocks of sizes 1, 2 and 3 with eigenvalue 1; these are the
indecomposable modules N1, N2, N3 of the group algebra F_3[Z/3].  The
block counts (l1, l2, l3) form the JordanType.  Direct sum, tensor product
and exterior power act on the counts through a closed-form rule table.
The table is small enough to transcribe wrongly, so the test suite
certifies every rule against the matrix realization: Kronecker products
and compound matrices followed by a Jordan-profile computation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import BadDegreeError, FpMatrix, InvariantError

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


@dataclass(frozen=True)
class JordanType:
    """Multiplicities of the Jordan blocks N1, N2, N3."""

    l1: int
    l2: int
    l3: int

    def __post_init__(self) -> None:
        if self.l1 < 0 or self.l2 < 0 or self.l3 < 0:
            raise ValueError("block counts must be non-negative")

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


# N_q (x) N_r for q <= r, as block-count vectors.  N1 is the unit; the
# p = 3 products are N2 (x) N2 = N1 + N3, N2 (x) N3 = 2 N3, N3 (x) N3 = 3 N3.
_PRODUCT = {
    (1, 1): (1, 0, 0),
    (1, 2): (0, 1, 0),
    (1, 3): (0, 0, 1),
    (2, 2): (1, 0, 1),
    (2, 3): (0, 0, 2),
    (3, 3): (0, 0, 3),
}

# The j-th exterior power of a single block N_q, indexed [q][j].
_WEDGE_BLOCK = {
    1: ((1, 0, 0), (1, 0, 0)),
    2: ((1, 0, 0), (0, 1, 0), (1, 0, 0)),
    3: ((1, 0, 0), (0, 0, 1), (0, 0, 1), (1, 0, 0)),
}


def tensor(a: JordanType, b: JordanType) -> JordanType:
    """Tensor product, extended bilinearly from the block table."""
    out = [0, 0, 0]
    for q, cq in ((1, a.l1), (2, a.l2), (3, a.l3)):
        if not cq:
            continue
        for r, cr in ((1, b.l1), (2, b.l2), (3, b.l3)):
            if not cr:
                continue
            vec = _PRODUCT[(q, r) if q <= r else (r, q)]
            mult = cq * cr
            out[0] += mult * vec[0]
            out[1] += mult * vec[1]
            out[2] += mult * vec[2]
    return JordanType(*out)


def wedge(a: JordanType, k: int) -> JordanType:
    """k-th exterior power via the binomial expansion over the blocks.

    wedge_k(X + Y) = sum over i + j = k of wedge_i(X) (x) wedge_j(Y),
    applied one block at a time with the single-block base cases.
    """
    if k < 0 or k > a.dimension:
        raise BadDegreeError(f"degree {k} out of range for dimension {a.dimension}")
    table = [JordanType(1, 0, 0)]
    for size, count in ((1, a.l1), (2, a.l2), (3, a.l3)):
        for _ in range(count):
            upper = min(k, len(table) - 1 + size)
            new = [JordanType(0, 0, 0)] * (upper + 1)
            for i, part in enumerate(table):
                if part.counts() == (0, 0, 0):
                    continue
                for j in range(min(size, k - i) + 1):
                    piece = tensor(part, JordanType(*_WEDGE_BLOCK[size][j]))
                    new[i + j] = direct_sum(new[i + j], piece)
            table = new
    return table[k] if k < len(table) else JordanType(0, 0, 0)


_BLOCK_MATRICES = {
    1: ((1,),),
    2: ((1, 1), (0, 1)),
    3: ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
}


def realize(a: JordanType) -> FpMatrix:
    """Block-diagonal unipotent matrix over F_3 with the given Jordan type."""
    n = a.dimension
    arr = np.zeros((n, n), dtype=np.int64)
    offset = 0
    for size, count in ((1, a.l1), (2, a.l2), (3, a.l3)):
        block = np.array(_BLOCK_MATRICES[size], dtype=np.int64)
        for _ in range(count):
            arr[offset : offset + size, offset : offset + size] = block
            offset += size
    return FpMatrix(3, arr)


def jordan_type_unipotent(m: FpMatrix) -> JordanType:
    """Jordan type of a unipotent matrix from its rank sequence.

    With r_j = rank((m - 1)^j) and r_0 = n, the number of blocks of size q
    is r_{q-1} - 2 r_q + r_{q+1}; this needs no change of basis, so the
    result is conjugation-invariant by construction.
    """
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
    if powers[p - 1].array.any():
        raise NotUnipotentError(f"(m - 1)^{p} is non-zero")
    ranks = [n] + [powers[j - 1].rank() for j in range(1, p)] + [0, 0]
    counts = [ranks[q - 1] - 2 * ranks[q] + ranks[q + 1] for q in range(1, p + 1)]
    counts += [0] * (3 - p)
    result = JordanType(*counts)
    if result.dimension != n:
        raise InvariantError(f"block counts {result} do not add up to dimension {n}")
    return result


def types_up_to_dim(max_dim: int) -> list[JordanType]:
    """All Jordan types of dimension at most max_dim, in a fixed order."""
    out = []
    for l3 in range(max_dim // 3 + 1):
        for l2 in range((max_dim - 3 * l3) // 2 + 1):
            for l1 in range(max_dim - 3 * l3 - 2 * l2 + 1):
                out.append(JordanType(l1, l2, l3))
    out.sort(key=lambda t: (t.dimension, t.counts()))
    return out
