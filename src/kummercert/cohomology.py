"""Integral cohomology of the cyclic group of order 3 acting on a lattice.

For a generator s with s^3 = 1 on Z^n and norm N = 1 + s + s^2, the
positive-degree group cohomology is 2-periodic:

    even degrees:  ker(s - 1) / im(N)
    odd degrees:   ker(N) / im(s - 1)

Both come from cokernels.  K = ker(s - 1) is saturated and contains im(N),
as (s - 1)N = s^3 - 1 = 0, and Z^n / K ~ im(s - 1) is free, so the even
group K / im(N) is the torsion of coker(N); likewise the odd group is the
torsion of coker(s - 1), whose free rank is the rank of K.  The two free
ranks add up to n, as Q^n = ker(s - 1) + ker(N) (checked, not assumed).

Each computation first splits the lattice into coordinate direct
summands: the connected components of the off-diagonal non-zero pattern
of s, each s-stable because s e_j only involves coordinates in the
component of j.  Both cokernels are the direct sums of those of the
blocks, so Smith normal form runs block by block: the degree-4 lattice of
the rank-8 model has rank 70 but blocks of rank at most 16.  The fixed
rank and both parities are computed once per action and kept on it.

The mod-3 Jordan type needs no product over F_3.  (s - 1)^2 = N - 3s is
N mod 3, and (s - 1)^3 = s^3 - 1 - 3s(s - 1) is 0 mod 3 because s^3 = 1,
which is checked over Z when the action is built.  So the ranks of
(s - 1)^j mod 3 are those of s - 1 and N, which the cokernels already
use, for j = 1, 2, and 0 from j = 3 on.  Both ranks are read straight off
the integer rows, with no reduced F_3 copy of either matrix.

There is also a closed form in terms of the mod-3 Jordan type of the
action: (Z/3)^l1 in even degrees and (Z/3)^l2 in odd degrees.  The closed
form is imported here as a theorem about lattices, not reproved; the
cross-validation suite certifies it against the direct computation on
randomized block-sum lattices, which is the guard for this dependency.
"""

from __future__ import annotations

from functools import cached_property
from typing import Literal

from .jordan import JordanType, _type_from_ranks
from .linalg import (
    BadDegreeError,
    FinAbGroup,
    IntMatrix,
    InvariantError,
    Value,
    _set,
    cokernel,
)

__all__ = [
    "LatticeAction",
    "cohomology_closed_form",
    "cohomology_snf",
    "cross_validate",
    "fixed_points",
    "jordan_type_mod3",
    "random_conjugated_block_action",
    "random_unimodular",
]


class LatticeAction(Value):
    """An order-3 (or trivial) integer action on Z^n, given by its generator.

    It has no ``__slots__``: ``_invariants`` is kept in its ``__dict__``.
    """

    _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        _set(self, "matrix", matrix)
        self.__post_init__()  # a method of its own: the benchmark's tracing wraps it

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("the generator must be square")
        square = m @ m
        if not (square @ m).is_identity():
            raise ValueError("the generator must cube to the identity")
        _set(self, "_square", square)
        _set(self, "_norm", (m + square).plus_identity(1))
        _set(self, "_shifted", m.plus_identity(-1))

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def squared(self) -> "LatticeAction":
        """The action of the other generator, s^2."""
        return LatticeAction(self._square)

    def norm(self) -> IntMatrix:
        """N = 1 + s + s^2."""
        return self._norm

    def shifted(self) -> IntMatrix:
        return self._shifted

    @cached_property
    def _invariants(self) -> tuple[int, FinAbGroup, FinAbGroup]:
        """(fixed rank, even, odd): two cokernels per coordinate direct summand."""
        delta, norm = self._shifted, self._norm
        fixed, even, odd = 0, [], []
        for idx in _components(self.matrix):
            by_delta = cokernel(delta.principal_submatrix(idx))
            by_norm = cokernel(norm.principal_submatrix(idx))
            if by_delta.rank + by_norm.rank != len(idx):
                raise InvariantError(
                    f"coker(s - 1) and coker(N) free ranks do not add up to {len(idx)}"
                )
            fixed += by_delta.rank
            even.extend(by_norm.torsion)
            odd.extend(by_delta.torsion)
        return fixed, FinAbGroup.from_factors(0, even), FinAbGroup.from_factors(0, odd)


def _components(m: IntMatrix) -> list[list[int]]:
    """Index sets of the connected components of m's off-diagonal non-zeros."""
    parent = list(range(m.rows))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(m.data):
        for j, x in enumerate(row):
            if x and i != j:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(m.rows):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def cohomology_snf(action: LatticeAction, degree: int) -> FinAbGroup:
    """H^degree(Z/3, lattice) for degree >= 1, from first principles.

    Computed on the first call for an action and kept on it.
    """
    if degree < 1:
        raise BadDegreeError("positive degrees only; degree 0 is the fixed lattice")
    _, even, odd = action._invariants
    return odd if degree % 2 else even


def cohomology_closed_form(j: JordanType, parity: Literal["even", "odd"]) -> FinAbGroup:
    """Closed form: (Z/3)^l1 in even degrees, (Z/3)^l2 in odd degrees."""
    if parity == "even":
        count = j.l1
    elif parity == "odd":
        count = j.l2
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return FinAbGroup(0, (3,) * count)


def fixed_points(action: LatticeAction) -> FinAbGroup:
    """The fixed lattice ker(s - 1); free, being a saturated sublattice."""
    return FinAbGroup.free(action._invariants[0])


def jordan_type_mod3(action: LatticeAction) -> JordanType:
    """Jordan type of the action reduced mod 3, from the ranks of s - 1 and N mod 3."""
    return _type_from_ranks(action.rank, [action.shifted().rank_mod(3), action.norm().rank_mod(3)])


# Up to genus, every order-3 lattice decomposes into three indecomposables:
# the trivial lattice, the hexagonal rotation plane, and the regular
# (cyclic permutation) lattice.  Their mod-3 types are N1, N2, N3.
_TRIVIAL_BLOCK = ((1,),)
_ROTATION_BLOCK = ((0, -1), (1, -1))
_REGULAR_BLOCK = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def random_unimodular(rng, n: int, ops: int | None = None) -> tuple[IntMatrix, IntMatrix]:
    """A random determinant +-1 matrix together with its exact inverse."""
    if ops is None:
        ops = n + 4
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    minv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                m[i][col] += c * m[j][col]
            for row in range(n):
                minv[row][j] -= c * minv[row][i]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
            for row in minv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
            for row in minv:
                row[i] = -row[i]
    p, pinv = IntMatrix(m, n), IntMatrix(minv, n)
    if not (p @ pinv).is_identity():
        raise InvariantError("the tracked inverse of a random unimodular matrix is wrong")
    return p, pinv


def random_conjugated_block_action(rng, max_rank: int = 12) -> tuple[LatticeAction, JordanType]:
    """A random block sum of the three indecomposables in a scrambled basis.

    Returns the action together with the block counts it was built from,
    which equal its mod-3 Jordan type.
    """
    while True:
        l1 = rng.randrange(max_rank + 1)
        l2 = rng.randrange(max_rank // 2 + 1)
        l3 = rng.randrange(max_rank // 3 + 1)
        n = l1 + 2 * l2 + 3 * l3
        if 1 <= n <= max_rank:
            break
    blocks = (
        [IntMatrix(_TRIVIAL_BLOCK)] * l1
        + [IntMatrix(_ROTATION_BLOCK)] * l2
        + [IntMatrix(_REGULAR_BLOCK)] * l3
    )
    rng.shuffle(blocks)
    p, pinv = random_unimodular(rng, n)
    return LatticeAction(p @ IntMatrix.block_diag(blocks) @ pinv), JordanType(l1, l2, l3)


def cross_validate(rng, samples: int, max_rank: int) -> bool:
    """Whether the closed form matches SNF on ``samples`` random lattices.

    Stops at the first lattice whose mod-3 type differs from its block
    counts or whose cohomology in degrees 1..4 differs from the closed form.
    """
    for _ in range(samples):
        action, counts = random_conjugated_block_action(rng, max_rank=max_rank)
        observed = jordan_type_mod3(action)
        if observed != counts or any(
            cohomology_snf(action, p) != cohomology_closed_form(observed, ("even", "odd")[p % 2])
            for p in range(1, 5)
        ):
            return False
    return True
