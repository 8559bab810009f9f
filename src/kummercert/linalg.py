"""Exact linear algebra over prime fields and over the integers, stdlib only.

Matrices over Z keep one form, sparse rows of Python integers (one dict
{column: value} of the non-zero entries per row), and are immune to
overflow.  Matrices over F_p (p < 256) keep each row as ``bytes`` with
entries in [0, p).  Both multiply with one product over sparse rows, which
the lattice actions of ``cohomology`` call directly: each non-zero a[i][k]
meets only the non-zero entries of row k of b, so the block-sparse
matrices this package builds cost in proportion to their non-zeros.
Smith normal form, cokernels and determinants eliminate on dense lists
written out from the rows.  Ranks over F_p of F_p matrices run one sparse
elimination; the lattice actions take their ranks over F_3 on bit-sliced
rows, two integer bit masks per row.  Every operation is a pure
function and returns a new value.  ``FinAbGroup`` and the other ``Value``
types refuse assignment; the two matrix types are immutable by convention
only, as their slots can be assigned, and no code here assigns them after
construction.

Instances are tiny (nothing beyond roughly 100 x 100), so the algorithms
favour simplicity and verifiability over asymptotics: sparse Gaussian
elimination for ranks over F_p, elimination on bit masks over F_3, one
loop of division with remainder by a least pivot for Smith normal form,
Bareiss for determinants, and column-wedge expansion over the non-zero
entries for compound (exterior-power) matrices.
"""

from __future__ import annotations

import itertools
import operator

# Tuples of rows are built from lists, never from generators or map objects:
# tuple() of an iterator of unknown length allocates a guessed size and then
# resizes it, and CPython files each resized small tuple on the free list of
# its new size, where such tuples pile up for the life of the process.

__all__ = [
    "BadDegreeError",
    "ExactSolveError",
    "InvariantError",
    "FinAbGroup",
    "FpMatrix",
    "IntMatrix",
    "Value",
    "cokernel",
    "exterior_power",
    "kernel_basis",
    "kronecker",
    "prime_factors",
    "smith_normal_form",
    "solve_exact",
]


class BadDegreeError(ValueError):
    """Requested degree is outside the valid range for the operation."""


class InvariantError(RuntimeError):
    """An internal invariant was violated: a bug, never bad input.

    Raised explicitly rather than by ``assert``, so the check survives
    ``python -O``.
    """


class ExactSolveError(InvariantError):
    """An integer linear system that must be solvable by construction is not.

    Raised only when an internal exactness invariant is violated; never a
    user error.
    """


def prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# Field assignment past Value.__setattr__, for the value types' __init__.
_set = object.__setattr__


class Value:
    """Base of the package's immutable value types, without ``dataclasses``.

    A subclass names its fields, in constructor order, in ``_fields`` and
    sets them in ``__init__`` with ``_set`` or ``_init``.  Instances compare
    and hash field-wise (only with instances of the same class), print in
    the dataclass format and refuse assignment and deletion.  Types on hot
    paths spell out ``__eq__`` and ``__hash__`` instead of these loops; the
    ledger's hash-consed facts set their fields in ``__new__`` instead and
    compare by identity.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        """Set the fields to ``values``; for types built too rarely to spell it out."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()

    def replace(self, **changes):
        """A copy with ``changes`` applied; an unknown field is a TypeError."""
        fields = {name: getattr(self, name) for name in self._fields}
        fields.update(changes)
        return self.__class__(**fields)


class FinAbGroup(Value):
    """Finitely generated abelian group: free rank plus invariant factors.

    The torsion part is the divisibility chain d1 | d2 | ... with every
    d_i >= 2, so two groups are isomorphic exactly when their ranks and
    chains are equal, which is what ``==`` compares.
    """

    __slots__ = _fields = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        rank = operator.index(rank)
        torsion = tuple([operator.index(d) for d in torsion])
        if rank < 0:
            raise ValueError("rank must be non-negative")
        prev = 1
        for d in torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        _set(self, "rank", rank)
        _set(self, "torsion", torsion)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.rank, self.torsion))

    @classmethod
    def zero(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def from_factors(cls, rank: int, factors) -> "FinAbGroup":
        """Canonicalize an arbitrary multiset of cyclic orders into a chain."""
        primes: dict[int, list[int]] = {}
        for m in factors:
            if m < 2:
                raise ValueError("cyclic factors must be >= 2")
            for p, e in prime_factors(m).items():
                primes.setdefault(p, []).append(e)
        chain = [1] * max((len(v) for v in primes.values()), default=0)
        for p, exps in primes.items():
            # The largest exponents go into the largest invariant factors.
            for i, e in enumerate(sorted(exps, reverse=True)):
                chain[i] *= p**e
        chain.reverse()
        return cls(rank, chain)

    def direct_sum(self, *others: "FinAbGroup") -> "FinAbGroup":
        rank = self.rank + sum(g.rank for g in others)
        factors = list(self.torsion)
        for g in others:
            factors.extend(g.torsion)
        return FinAbGroup.from_factors(rank, factors)

    def multiple(self, copies: int) -> "FinAbGroup":
        """Direct sum of ``copies`` copies of this group."""
        if copies < 0:
            raise ValueError("copies must be non-negative")
        # Sorted, the repeated chain is again a divisibility chain.  An empty
        # chain is not repeated: ``() * copies`` overflows from 2^63 copies.
        torsion = sorted(self.torsion * copies) if self.torsion else ()
        return FinAbGroup(self.rank * copies, torsion)

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion

    def torsion_primes(self) -> frozenset[int]:
        primes: set[int] = set()
        for d in set(self.torsion):  # a chain has few distinct factors
            primes.update(prime_factors(d))
        return frozenset(primes)

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class FpMatrix:
    """Dense matrix over the prime field F_p, p < 256, entries in [0, p).

    Each row is a ``bytes`` object, so a matrix is compact, its rows cannot
    change, and a row's entries read back as small Python ints.  Its slots
    ``p``, ``data`` and ``cols`` can be assigned: it is immutable by
    convention only.
    """

    __slots__ = ("p", "data", "cols")

    def __init__(self, p: int, rows, cols: int | None = None):
        _check_modulus(p)
        data = tuple([bytes([operator.index(x) % p for x in row]) for row in rows])
        self.p = p
        self.data = data
        self.cols = _width(data, cols)

    @classmethod
    def _trusted(cls, p: int, data: tuple, cols: int) -> "FpMatrix":
        """Wrap rows this module built itself, skipping the constructor's checks.

        ``data`` must already be a tuple of ``cols``-long ``bytes`` rows
        with entries in [0, p) for a checked modulus p.
        """
        m = object.__new__(cls)
        m.p = p
        m.data = data
        m.cols = cols
        return m

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        _check_modulus(p)
        return cls._trusted(p, tuple([bytes(i) + b"\x01" + bytes(n - i - 1) for i in range(n)]), n)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        _check_modulus(p)
        return cls._trusted(p, (bytes(cols),) * rows, cols)

    @property
    def rows(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.cols == other.cols
            and self.data == other.data
        )

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        if self.cols != other.rows:
            raise ValueError("mismatched shapes")
        p, width = self.p, other.cols
        out = []
        for acc in _product_rows(map(_nonzero, self.data), [list(_nonzero(r)) for r in other.data]):
            row = bytearray(width)
            for j, x in acc.items():
                row[j] = x % p
            out.append(bytes(row))
        return FpMatrix._trusted(p, tuple(out), width)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.rows != other.rows or self.cols != other.cols:
            raise ValueError("mismatched operands")
        p = self.p
        out = []
        for r, s in zip(self.data, other.data):
            row = bytearray(r)
            for j, y in _nonzero(s):
                row[j] = (row[j] - y) % p
            out.append(bytes(row))
        return FpMatrix._trusted(p, tuple(out), self.cols)

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == FpMatrix.identity(self.p, self.rows)

    def is_zero(self) -> bool:
        return not any(map(any, self.data))

    def rank(self) -> int:
        """Row rank by exact Gaussian elimination over F_p."""
        return _rank_mod(map(_nonzero, self.data), self.p)

    def lift(self) -> "IntMatrix":
        """The entries read as integers in [0, p)."""
        return IntMatrix._from_rows([dict(_nonzero(row)) for row in self.data], self.cols)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.data]

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.to_lists()!r})"


def _width(data, cols: int | None) -> int:
    """The common length of the rows ``data`` (``cols`` or 0 if none); ``cols`` must agree."""
    if not data:
        return 0 if cols is None else cols
    width = len(data[0])
    if any(len(row) != width for row in data):
        raise ValueError("ragged rows")
    if cols is not None and cols != width:
        raise ValueError("explicit column count disagrees with the rows")
    return width


def _check_modulus(p: int) -> None:
    if p >= 256:
        raise ValueError(f"modulus {p} does not fit a byte; F_p matrices need p < 256")
    if prime_factors(p) != {p: 1}:
        raise ValueError(f"modulus {p} is not prime")


def _nonzero(row):
    """(index, value) for the non-zero entries of a row, in order."""
    return zip(itertools.compress(itertools.count(), row), filter(None, row))


def _rank_mod(rows, p: int) -> int:
    """Rank over F_p of integer rows, by exact Gaussian elimination.

    Its only caller is ``FpMatrix.rank``.  An F_p matrix may have any prime
    p < 256 (the tests use 2, 5 and 251), which the two bit masks of
    ``_rank_f3`` cannot hold, and the mod-3 oracle stays on F_p matrices
    until it moves onto integer rows and masks as a whole; the lattice
    actions take their ranks mod 3 on the masks.

    Each row comes as (column, value) pairs, of its non-zero entries or of
    any superset, and is kept as a dict of its entries that are non-zero
    mod p, so the work follows the non-zeros and their fill-in rather than
    the full width.  Zero rows are dropped and the rest reduced sparsest
    first, one at a time against the pivot rows found so far: the rank does
    not depend on the order, and sparse pivots cause less fill-in.
    """
    reduced = [{j: y for j, x in row if (y := x % p)} for row in rows]
    reduced = sorted(filter(None, reduced), key=len)
    # Pivot column -> pivot row, scaled to 1 there and zero before it.
    pivots: dict[int, dict[int, int]] = {}
    for row in reduced:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: x * inv % p for j, x in row.items()}
                break
            f = row[c]
            for j, x in pivot.items():
                y = (row.get(j, 0) - f * x) % p
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
    return len(pivots)


# Rows over F_3, bit-sliced: a row is two Python ints (a, b), bit j of a set
# where the entry is 1 mod 3 and bit j of b where it is 2 mod 3, so a row
# operation is a few bitwise operations on rows of any width (Boothby and
# Bradshaw, "Bitslicing and the Method of Four Russians Over Larger Finite
# Fields", 2009).  Negation, and so scaling by 2, swaps the two masks.


def _f3_rows(rows, diagonal: int) -> list[tuple[int, int]]:
    """The masks of integer rows, each given as (column, value) pairs.

    Zeros may be listed and a column may not repeat; ``diagonal`` is added
    to the entry in column i of row i, so -1 turns a square s into s - 1.
    """
    unit = diagonal % 3
    c, d = unit & 1, unit >> 1  # the masks of the diagonal entry, moved along the rows
    out = []
    for row in rows:
        a = b = 0
        for j, x in row:
            r = x % 3
            if r == 1:
                a |= 1 << j
            elif r:
                b |= 1 << j
        t = (a | d) ^ (b | c)  # _f3_add, inlined on this hot path
        out.append(((b | d) ^ t, (a | c) ^ t))
        c <<= 1
        d <<= 1
    return out


def _f3_add(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """The sum of two mask rows over F_3."""
    a, b = u
    c, d = v
    t = (a | d) ^ (b | c)
    return (b | d) ^ t, (a | c) ^ t


def _rank_f3(rows) -> int:
    """Rank over F_3 of mask rows, by Gaussian elimination on the masks.

    A pivot sits at the highest set bit of a | b, keyed by its bit length,
    and is kept scaled to 1 there.  A row holding f at a pivot's bit
    subtracts f times the pivot row: it adds the pivot when f = 2 and the
    swapped (negated) pivot when f = 1.
    """
    # Bit length -> pivot row, 1 at its top bit and zero above it.
    pivots: dict[int, tuple[int, int]] = {}
    for a, b in rows:
        while support := a | b:
            top = support.bit_length()
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = (a, b) if a.bit_length() == top else (b, a)
                break
            c, d = pivot
            if a.bit_length() == top:
                c, d = d, c
            t = (a | d) ^ (b | c)  # _f3_add, inlined on this hot path
            a, b = (b | d) ^ t, (a | c) ^ t
    return len(pivots)


def _product_rows(a_rows, b_rows) -> list[dict[int, int]]:
    """The rows of the exact product a @ b, each a dict of its non-zeros.

    Every row of a and of b comes as the (column, value) pairs of its
    non-zero entries; a row of b is read once for every entry of a that
    meets it, so b's rows must be lists or dict views.  Each non-zero
    a[i][k] is multiplied into the non-zero entries of row k of b, so the
    work is the number of non-zero products rather than rows * inner *
    width.  Serves IntMatrix, FpMatrix (before reduction mod p) and the
    lattice actions alike.
    """
    out = []
    for row in a_rows:
        acc: dict[int, int] = {}
        for k, x in row:
            for j, y in b_rows[k]:
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def kronecker(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product with the left factor as the outer (block) index."""
    if a.p != b.p:
        raise ValueError("mismatched moduli")
    p = a.p
    zero = bytes(b.cols)
    # scaled[x][k] is x * (row k of b), for each value x that occurs in a.
    scaled = {0: (zero,) * b.rows, 1: b.data}
    for x in set().union(*a.data) - {0, 1}:
        scaled[x] = tuple([bytes([x * y % p for y in row]) for row in b.data])
    out = [b"".join([scaled[x][k] for x in row]) for row in a.data for k in range(b.rows)]
    return FpMatrix._trusted(p, tuple(out), a.cols * b.cols)


class IntMatrix:
    """Matrix with arbitrary-precision integer entries, kept as sparse rows.

    ``sparse_rows`` is a list holding, for each row, a dict {column: value}
    of its non-zero entries; it is the only form stored.  ``data`` and
    ``to_lists`` write the dense rows out from it on each call.  A matrix is
    immutable by convention only: its slots ``rows``, ``cols`` and
    ``sparse_rows`` can be assigned and its row dicts changed, and nothing
    here does either, so matrices may share rows.
    """

    __slots__ = ("rows", "cols", "sparse_rows")

    def __init__(self, rows, cols: int | None = None):
        data = [[operator.index(x) for x in row] for row in rows]
        self.rows = len(data)
        self.cols = _width(data, cols)
        self.sparse_rows = [dict(_nonzero(row)) for row in data]

    @classmethod
    def _from_rows(cls, rows: list[dict[int, int]], cols: int) -> "IntMatrix":
        """Wrap sparse rows this package built itself, skipping the constructor's checks.

        ``rows`` must be a list of dicts {column: value}, one per row, each
        holding only non-zero ints in columns below ``cols``; no caller may
        mutate them afterwards.
        """
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = cols
        m.sparse_rows = rows
        return m

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """The dense rows as tuples, written out from the sparse rows on each read."""
        return tuple([tuple(row) for row in self.to_lists()])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._from_rows([{i: 1} for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls._from_rows([{} for _ in range(rows)], cols)

    @classmethod
    def block_diag(cls, blocks) -> "IntMatrix":
        rows: list[dict[int, int]] = []
        offset = 0
        for b in blocks:
            rows += [{offset + j: x for j, x in row.items()} for row in b.sparse_rows]
            offset += b.cols
        return cls._from_rows(rows, offset)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.sparse_rows == other.sparse_rows
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("mismatched shapes")
        b_rows = [row.items() for row in other.sparse_rows]
        rows = _product_rows(map(dict.items, self.sparse_rows), b_rows)
        return IntMatrix._from_rows(rows, other.cols)

    def mat_pow(self, e: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        if e < 0:
            raise ValueError("non-negative exponent required")
        out = IntMatrix.identity(self.rows)
        for _ in range(e):
            out = out @ self
        return out

    def is_identity(self) -> bool:
        return self.rows == self.cols and self.sparse_rows == [{i: 1} for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.sparse_rows)

    def column_submatrix(self, indices) -> "IntMatrix":
        idx = list(indices)
        if not all(0 <= j < self.cols for j in idx):
            raise IndexError("column index out of range")
        rows = [{c: x for c, j in enumerate(idx) if (x := row.get(j))} for row in self.sparse_rows]
        return IntMatrix._from_rows(rows, len(idx))

    def reduce_mod(self, p: int) -> FpMatrix:
        _check_modulus(p)
        out = []
        for entries in self.sparse_rows:
            row = bytearray(self.cols)
            for j, x in entries.items():
                row[j] = x % p
            out.append(bytes(row))
        return FpMatrix._trusted(p, tuple(out), self.cols)

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def to_lists(self) -> list[list[int]]:
        """The dense rows as fresh lists, written out from the sparse rows."""
        out = []
        for entries in self.sparse_rows:
            row = [0] * self.cols
            for j, x in entries.items():
                row[j] = x
            out.append(row)
        return out

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


def _diagonalize(a: list[list[int]], nrows: int, ncols: int) -> int:
    """Bring the leading nrows x ncols block of ``a`` to Smith form in place.

    Returns the rank.  The pivots are sought in that block only, but a row
    operation acts on a whole row of ``a`` and a column operation on every
    row, so the entries past column ncols and the rows past row nrows ride
    along as companions: ``smith_normal_form`` puts the identity beside and
    below the matrix there to record u and v, ``cokernel`` puts nothing.

    One loop does the elimination (Newman's division algorithm).  Each
    pass moves the entry of least non-zero absolute value in the block
    from (t, t) on, t the rank so far, to (t, t), makes it positive and
    divides every other entry of row t and column t by it with remainder.
    A non-zero remainder is smaller than the pivot and starts another
    pass.  Once row and column t are clear, a row holding an entry the
    pivot does not divide is added into row t; the next pass meets the
    pivot first at (t, t) and leaves that entry's non-zero remainder.  So
    the pivot never grows and shrinks at least every second pass, which
    ends the passes at t with a pivot dividing every entry left, the gcd
    of the block.  Every later pivot is a multiple of it, so the diagonal
    is a divisibility chain with no second pass.
    """
    rank = 0
    while rank < min(nrows, ncols):
        t = rank
        pr = pc = -1
        best = 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                e = row[j]
                if e and (best == 0 or -best < e < best):
                    best = abs(e)
                    pr, pc = i, j
        if pr < 0:
            break
        a[t], a[pr] = a[pr], a[t]
        if pc != t:
            for row in a:
                row[t], row[pc] = row[pc], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        pivot_row = a[t]
        pivot = pivot_row[t]
        clear = True
        for i in range(t + 1, nrows):
            if q := a[i][t] // pivot:
                a[i] = [x - q * y for x, y in zip(a[i], pivot_row)]
            clear = clear and not a[i][t]
        for j in range(t + 1, ncols):
            if q := pivot_row[j] // pivot:
                for row in a:
                    row[j] -= q * row[t]
            clear = clear and not pivot_row[j]
        if clear and pivot > 1:
            for row in a[t + 1 : nrows]:
                if any(row[j] % pivot for j in range(t + 1, ncols)):
                    a[t] = [x + y for x, y in zip(pivot_row, row)]
                    clear = False
                    break
        if clear:
            rank += 1

    for t in range(rank):
        if a[t][t] <= 0:
            raise InvariantError(f"Smith normal form pivot {t} is {a[t][t]}, not positive")
    return rank


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: unimodular u, v with u @ m @ v = d diagonal.

    The diagonal of d is non-negative and forms a divisibility chain
    d1 | d2 | ... .  u is recorded as columns beside m and v as rows below
    it, through which ``_diagonalize`` carries its row and column
    operations.
    """
    nrows, ncols = m.rows, m.cols
    a = [row + [1 if i == j else 0 for j in range(nrows)] for i, row in enumerate(m.to_lists())]
    a += [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    _diagonalize(a, nrows, ncols)
    return (
        IntMatrix._from_rows([dict(_nonzero(row[ncols:])) for row in a[:nrows]], nrows),
        IntMatrix._from_rows([dict(_nonzero(row[:ncols])) for row in a[:nrows]], ncols),
        IntMatrix._from_rows([dict(_nonzero(row)) for row in a[nrows:]], ncols),
    )


def _diagonal(d: IntMatrix) -> list[int]:
    return [d.sparse_rows[i].get(i, 0) for i in range(min(d.rows, d.cols))]


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Invariants of Z^rows modulo the column span of m."""
    a = m.to_lists()
    rank = _diagonalize(a, m.rows, m.cols)
    return FinAbGroup(m.rows - rank, [a[i][i] for i in range(rank) if a[i][i] > 1])


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel of m.

    The basis columns are columns of the unimodular right transform of the
    Smith normal form, so the kernel they span is saturated (a direct
    summand of the ambient lattice).
    """
    _, d, v = smith_normal_form(m)
    s = len([x for x in _diagonal(d) if x != 0])
    return v.column_submatrix(range(s, m.cols))


def solve_exact(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Solve a @ x = b over the integers, exactly.

    Raises ExactSolveError when no integral solution exists; callers use
    this for systems that are solvable by construction, so a failure
    signals a mathematical bug rather than bad input.
    """
    if a.rows != b.rows:
        raise ValueError("mismatched shapes")
    u, d, v = smith_normal_form(a)
    ub = (u @ b).to_lists()
    diag = _diagonal(d)
    s = len([x for x in diag if x != 0])
    z = []
    for i in range(a.cols):
        if i < s:
            row = []
            for val in ub[i]:
                q, r = divmod(val, diag[i])
                if r:
                    raise ExactSolveError("no integral solution (divisibility fails)")
                row.append(q)
            z.append(row)
        else:
            z.append([0] * b.cols)
    for i in range(s, a.rows):
        if any(ub[i]):
            raise ExactSolveError("no integral solution (inconsistent system)")
    return v @ IntMatrix(z, b.cols)


def exterior_power(m: IntMatrix, k: int) -> IntMatrix:
    """The k-th compound matrix: all k x k minors of a square matrix.

    Rows and columns are indexed by the size-k subsets of {0, ..., n-1} in
    lexicographic order (the same order on both sides), and the (S, T)
    entry is the determinant of the submatrix with rows S and columns T.
    Column T = (t1 < ... < tk) is the wedge m e_t1 ^ ... ^ m e_tk, expanded
    over the non-zero entries of each column of m.  Column prefixes are
    visited depth first, so the partial wedge of every prefix
    (t1, ..., tj) is built once and shared by all its extensions, and a
    prefix whose wedge vanishes is dropped with all of them.  The columns
    of m are gathered from its sparse rows, and the result keeps the row
    form: one dict per subset S of the non-zero minors in its row.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    if k < 0 or k > n:
        raise BadDegreeError(f"degree {k} out of range for a {n} x {n} matrix")
    # Subsets are bit masks; e_i moves into place past the set bits above i.
    columns: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(m.sparse_rows):
        for t, x in row.items():
            columns[t].append((i, 1 << i, x))
    bits = [1 << i for i in range(n)]
    index = {sum(subset): r for r, subset in enumerate(itertools.combinations(bits, k))}
    out: list[dict[int, int]] = [{} for _ in index]
    # (partial wedge, columns taken as a mask, next column, columns taken)
    stack: list[tuple[dict[int, int], int, int, int]] = [({0: 1}, 0, 0, 0)]
    while stack:
        partial, prefix, start, depth = stack.pop()
        if depth == k:
            col = index[prefix]
            for subset, coeff in partial.items():
                out[index[subset]][col] = coeff
            continue
        for t in range(start, n - k + depth + 1):
            wedge: dict[int, int] = {}
            for subset, coeff in partial.items():
                for i, bit, x in columns[t]:
                    if subset & bit:
                        continue
                    term = -coeff * x if (subset >> i).bit_count() & 1 else coeff * x
                    key = subset | bit
                    wedge[key] = wedge.get(key, 0) + term
            wedge = {subset: coeff for subset, coeff in wedge.items() if coeff}
            if wedge:
                stack.append((wedge, prefix | 1 << t, t + 1, depth + 1))
    return IntMatrix._from_rows(out, len(index))
