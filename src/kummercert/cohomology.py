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

An action works on sparse rows, the non-zero entries of each row, as the
exterior powers it acts on are sparse: the wedge squares of scrambled
lattices of rank up to 12 have a median of one entry in eleven non-zero,
on sides of up to 66.  It reads the generator's ``sparse_rows``.  s^2
and the check s^3 = 1 over Z are made once over the non-zeros of s when
the action is built; the integer rows of s - 1 and N are built on the
first read by a cokernel, and dense rows are formed only for the blocks
below and on request.  The random lattices are built the same way: the
unimodular pair is handed over as sparse rows, checked to multiply to 1
on those rows, and conjugates a block sum of prebuilt blocks.

Each computation first splits the lattice into coordinate direct
summands: the connected components of the off-diagonal non-zero pattern
of s, each s-stable because s e_j only involves coordinates in the
component of j.  Both cokernels are the direct sums of those of the
blocks, so Smith normal form runs block by block, on the dense principal
submatrices cut from the rows: the degree-4 lattice of the rank-8 model
has rank 70 but blocks of rank at most 16.  The fixed rank and both
parities are computed once per action and kept on it.

The mod-3 Jordan type needs no product over F_3.  (s - 1)^2 = N - 3s is
N mod 3, and (s - 1)^3 = s^3 - 1 - 3s(s - 1) is 0 mod 3 because s^3 = 1,
which is checked over Z when the action is built.  So the ranks of
(s - 1)^j mod 3 are those of s - 1 and N, which the cokernels already
use, for j = 1, 2, and 0 from j = 3 on.  Both ranks are eliminated on
bit-sliced F_3 rows, two integer bit masks per row (``linalg._f3_rows``),
built straight from the sparse rows of s and s^2: N is (s - 1) + (s^2 - 1)
mod 3.  An action asked only for its type, as the wedge squares in the
cross-validation are, never builds the integer rows of s - 1 or N.

There is also a closed form in terms of the mod-3 Jordan type of the
action: (Z/3)^l1 in even degrees and (Z/3)^l2 in odd degrees.  The closed
form is imported here as a theorem about lattices, not reproved; the
cross-validation suite certifies it against the direct computation on
randomized block-sum lattices, which is the guard for this dependency.
"""

from __future__ import annotations

from functools import cached_property

from .jordan import JordanType, _type_from_ranks
from .linalg import (
    BadDegreeError,
    FinAbGroup,
    IntMatrix,
    InvariantError,
    Value,
    _f3_add,
    _f3_rows,
    _nonzero,
    _product_rows,
    _rank_f3,
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

    Its working form is sparse rows, dicts {column: value}: s as the
    generator's own ``sparse_rows``, and s^2 built from those when the
    action is built, with s^3 = 1 checked exactly over Z on every row.
    The rows of s - 1 and N are built from s and s^2 on their first read,
    by a cokernel, ``shifted`` or ``norm``, and may keep a zero where
    entries cancel; the mod-3 type reads s and s^2 alone.  ``squared``,
    ``norm`` and ``shifted`` build matrices only when called.  It has no
    ``__slots__``: the rows and ``_invariants`` are kept in its
    ``__dict__``.
    """

    _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        _set(self, "matrix", matrix)
        self.__post_init__()  # a method of its own: the benchmark's tracing wraps it

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("the generator must be square")
        items = [row.items() for row in m.sparse_rows]
        square = _product_rows(items, items)
        if _product_rows(map(dict.items, square), items) != [{i: 1} for i in range(m.rows)]:
            raise ValueError("the generator must cube to the identity")
        _set(self, "_square", square)

    @property
    def rank(self) -> int:
        return self.matrix.rows

    def squared(self) -> "LatticeAction":
        """The action of the other generator, s^2."""
        return LatticeAction(IntMatrix._from_rows(self._square, self.rank))

    def norm(self) -> IntMatrix:
        """N = 1 + s + s^2."""
        return _block(self._norm, range(self.rank))

    def shifted(self) -> IntMatrix:
        """s - 1."""
        return _block(self._shifted, range(self.rank))

    @cached_property
    def _shifted(self) -> list[dict[int, int]]:
        """The rows of s - 1, built on the first read by a cokernel or ``shifted``."""
        rows = [dict(row) for row in self.matrix.sparse_rows]
        for i, row in enumerate(rows):
            row[i] = row.get(i, 0) - 1
        return rows

    @cached_property
    def _norm(self) -> list[dict[int, int]]:
        """The rows of N = 1 + s + s^2, built on the first read by a cokernel or ``norm``."""
        rows = [dict(row_sq) for row_sq in self._square]
        for i, (row, total) in enumerate(zip(self.matrix.sparse_rows, rows)):
            for j, x in row.items():
                total[j] = total.get(j, 0) + x
            total[i] = total.get(i, 0) + 1
        return rows

    @cached_property
    def _invariants(self) -> tuple[int, FinAbGroup, FinAbGroup]:
        """(fixed rank, even, odd): two cokernels per coordinate direct summand."""
        fixed, even, odd = 0, [], []
        for idx in _components(self.matrix.sparse_rows):
            by_delta = cokernel(_block(self._shifted, idx))
            by_norm = cokernel(_block(self._norm, idx))
            if by_delta.rank + by_norm.rank != len(idx):
                raise InvariantError(
                    f"coker(s - 1) and coker(N) free ranks do not add up to {len(idx)}"
                )
            fixed += by_delta.rank
            even.extend(by_norm.torsion)
            odd.extend(by_delta.torsion)
        return fixed, FinAbGroup.from_factors(0, even), FinAbGroup.from_factors(0, odd)


def _components(rows: list[dict[int, int]]) -> list[list[int]]:
    """Index sets of the connected components of the off-diagonal non-zeros.

    ``rows`` gives each row's non-zero entries as a dict {column: value}.
    """
    parent = list(range(len(rows)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, row in enumerate(rows):
        for j in row:
            if i != j:
                parent[root(i)] = root(j)
    groups: dict[int, list[int]] = {}
    for i in range(len(rows)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def _block(rows: list[dict[int, int]], idx) -> IntMatrix:
    """The principal submatrix on ``idx``, which holds every column its rows use.

    The rows may hold zeros, as s - 1 and N do where entries cancel; the
    block keeps only the non-zeros.
    """
    local = {j: t for t, j in enumerate(idx)}
    block = [{local[j]: x for j, x in rows[i].items() if x} for i in idx]
    return IntMatrix._from_rows(block, len(local))


def cohomology_snf(action: LatticeAction, degree: int) -> FinAbGroup:
    """H^degree(Z/3, lattice) for degree >= 1, from first principles.

    Computed on the first call for an action and kept on it.
    """
    if degree < 1:
        raise BadDegreeError("positive degrees only; degree 0 is the fixed lattice")
    _, even, odd = action._invariants
    return odd if degree % 2 else even


def cohomology_closed_form(j: JordanType, degree: int) -> FinAbGroup:
    """Closed form for degree >= 1: (Z/3)^l1 in even degrees, (Z/3)^l2 in odd degrees."""
    if degree < 1:
        raise BadDegreeError("positive degrees only; degree 0 is the fixed lattice")
    return FinAbGroup(0, (3,) * (j.l2 if degree % 2 else j.l1))


def fixed_points(action: LatticeAction) -> FinAbGroup:
    """The fixed lattice ker(s - 1); free, being a saturated sublattice."""
    return FinAbGroup.free(action._invariants[0])


def jordan_type_mod3(action: LatticeAction) -> JordanType:
    """Jordan type of the action reduced mod 3, from the F_3 ranks of s - 1 and N on masks."""
    # N = (s - 1) + (s^2 - 1) + 3, so the two masks add up to N mod 3.
    shifted = _f3_rows(map(dict.items, action.matrix.sparse_rows), -1)
    norm = map(_f3_add, shifted, _f3_rows(map(dict.items, action._square), -1))
    return _type_from_ranks(action.rank, [_rank_f3(shifted), _rank_f3(norm)])


# Up to genus, every order-3 lattice decomposes into three indecomposables:
# the trivial lattice, the hexagonal rotation plane, and the regular
# (cyclic permutation) lattice.  Their mod-3 types are N1, N2, N3.
_TRIVIAL_BLOCK = IntMatrix(((1,),))
_ROTATION_BLOCK = IntMatrix(((0, -1), (1, -1)))
_REGULAR_BLOCK = IntMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))


def _check_inverse(p: IntMatrix, pinv: IntMatrix) -> None:
    """Raise InvariantError unless p @ pinv is the identity."""
    if not (p @ pinv).is_identity():
        raise InvariantError("the tracked inverse of a random unimodular matrix is wrong")


def random_unimodular(rng, n: int, ops: int | None = None) -> tuple[IntMatrix, IntMatrix]:
    """A random determinant +-1 matrix together with its exact inverse.

    Both are tracked as integer lists and handed over as sparse rows; the
    tracked inverse is checked on those rows.
    """
    if n == 0:
        return IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 0)
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
            for row in minv:
                row[j] -= c * row[i]
        elif kind == 1 and i != j:
            m[i], m[j] = m[j], m[i]
            for row in minv:
                row[i], row[j] = row[j], row[i]
        elif kind == 2:
            m[i] = [-x for x in m[i]]
            for row in minv:
                row[i] = -row[i]
    p = IntMatrix._from_rows([dict(_nonzero(row)) for row in m], n)
    pinv = IntMatrix._from_rows([dict(_nonzero(row)) for row in minv], n)
    _check_inverse(p, pinv)
    return p, pinv


def random_conjugated_block_action(rng, max_rank: int = 12) -> tuple[LatticeAction, JordanType]:
    """A random block sum of the three indecomposables in a scrambled basis.

    Returns the action together with the block counts it was built from,
    which equal its mod-3 Jordan type.
    """
    if max_rank < 1:
        raise ValueError(f"max_rank must be at least 1, got {max_rank}")
    while True:
        l1 = rng.randrange(max_rank + 1)
        l2 = rng.randrange(max_rank // 2 + 1)
        l3 = rng.randrange(max_rank // 3 + 1)
        n = l1 + 2 * l2 + 3 * l3
        if 1 <= n <= max_rank:
            break
    blocks = [_TRIVIAL_BLOCK] * l1 + [_ROTATION_BLOCK] * l2 + [_REGULAR_BLOCK] * l3
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
            cohomology_snf(action, p) != cohomology_closed_form(observed, p) for p in range(1, 5)
        ):
            return False
    return True
