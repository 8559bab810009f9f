"""Integral cohomology of the cyclic group of order 3 acting on a lattice.

For a generator s with s^3 = 1 on Z^n and norm N = 1 + s + s^2, the
positive-degree group cohomology is 2-periodic:

    even degrees:  ker(s - 1) / im(N)
    odd degrees:   ker(N) / im(s - 1)

Both quotients are computed exactly: a saturated kernel basis from the
Smith normal form, image generators rewritten in that basis by an exact
integer solve, and the cokernel of the rewritten matrix.

Each computation first splits the lattice into direct summands.  The
connected components of the off-diagonal non-zero pattern of s partition
the coordinates, and each component spans an s-stable coordinate
sublattice, because s e_j only involves coordinates in the component of j.
So s - 1 and N are block diagonal after a coordinate permutation, and the
kernel, the quotients and hence every H^p are the direct sums of those of
the blocks.  Smith normal form then runs block by block: the degree-4
lattice of the rank-8 model has rank 70 but blocks of rank at most 16.
The split, the kernel of s - 1 and both parities are computed once per
action and kept on it: the fixed lattice and every degree read them.

There is also a closed form in terms of the mod-3 Jordan type of the
action: (Z/3)^l1 in even degrees and (Z/3)^l2 in odd degrees.  The closed
form is imported here as a theorem about lattices, not reproved; the
cross-validation suite certifies it against the direct computation on
randomized block-sum lattices, which is the guard for this dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

from .jordan import JordanType, jordan_type_unipotent
from .linalg import (
    BadDegreeError,
    FinAbGroup,
    IntMatrix,
    InvariantError,
    cokernel,
    kernel_basis,
    solve_exact,
)

__all__ = [
    "LatticeAction",
    "cohomology_closed_form",
    "cohomology_snf",
    "fixed_points",
    "jordan_type_mod3",
    "random_conjugated_block_action",
    "random_unimodular",
]


@dataclass(frozen=True)
class LatticeAction:
    """An order-3 (or trivial) integer action on Z^n, given by its generator."""

    matrix: IntMatrix
    _square: IntMatrix = field(init=False, repr=False, compare=False)
    _norm: IntMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("the generator must be square")
        square = m @ m
        if not (square @ m).is_identity():
            raise ValueError("the generator must cube to the identity")
        object.__setattr__(self, "_square", square)
        object.__setattr__(self, "_norm", IntMatrix.identity(m.rows) + m + square)

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
        return self.matrix - IntMatrix.identity(self.rank)

    @cached_property
    def _summands(self) -> tuple[tuple[IntMatrix, IntMatrix, IntMatrix], ...]:
        """Per coordinate direct summand: the blocks of s - 1 and N, and ker(s - 1).

        Computed on first use and kept, so the fixed lattice and both
        cohomology parities share one split and one kernel of s - 1.
        """
        delta, norm = self.shifted(), self._norm
        out = []
        for idx in _components(self.matrix):
            delta_block = delta.principal_submatrix(idx)
            out.append((delta_block, norm.principal_submatrix(idx), kernel_basis(delta_block)))
        return tuple(out)

    @cached_property
    def _cohomology(self) -> tuple[FinAbGroup, FinAbGroup]:
        """(even, odd) cohomology: ker(s - 1) / im(N) and ker(N) / im(s - 1)."""
        even, odd = [], []
        for delta, norm, fixed in self._summands:
            even.append(_lattice_quotient(fixed, norm))
            odd.append(_lattice_quotient(kernel_basis(norm), delta))
        zero = FinAbGroup.zero()
        return zero.direct_sum(*even), zero.direct_sum(*odd)


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


def _lattice_quotient(basis: IntMatrix, image_gens: IntMatrix) -> FinAbGroup:
    # basis columns span a saturated sublattice containing the image; the
    # solve is exact by construction, so a failure is a math bug upstream.
    if basis.cols == 0:
        return FinAbGroup.zero()
    coords = solve_exact(basis, image_gens)
    return cokernel(coords)


def cohomology_snf(action: LatticeAction, degree: int) -> FinAbGroup:
    """H^degree(Z/3, lattice) for degree >= 1, from first principles.

    Both parities are computed together on the first call for an action
    and kept on it, so later degrees cost a lookup.
    """
    if degree < 1:
        raise BadDegreeError("positive degrees only; degree 0 is the fixed lattice")
    return action._cohomology[degree % 2]


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
    return FinAbGroup.free(sum(fixed.cols for _, _, fixed in action._summands))


def jordan_type_mod3(action: LatticeAction) -> JordanType:
    """Jordan type of the action reduced mod 3."""
    return jordan_type_unipotent(action.matrix.reduce_mod(3))


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
