"""Exact dense linear algebra over prime fields and over the integers.

Matrices over F_p are backed by small numpy integer arrays; every value
stays far below 2**63, so the arithmetic is exact.  Matrices over Z hold
Python integers and are immune to overflow.  Their product runs in numpy
int64 only when ``cols * max|a| * max|b| < 2**62`` proves that no partial
sum can overflow, and otherwise falls back to an exact pure-Python loop;
either way the entries stay Python integers.  All values are immutable and
every operation is a pure function, so everything here is safe to share
between threads.

Instances are tiny (nothing beyond roughly 100 x 100), so the algorithms
favour simplicity and verifiability over asymptotics: Gaussian elimination
for ranks, minimal-pivot reduction for Smith normal form, Bareiss for
determinants, and column-wedge expansion over the non-zero entries for
compound (exterior-power) matrices, so that sparse inputs cost in
proportion to their non-zeros.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BadDegreeError",
    "ExactSolveError",
    "InvariantError",
    "FinAbGroup",
    "FpMatrix",
    "IntMatrix",
    "cokernel",
    "exterior_power",
    "kernel_basis",
    "kronecker",
    "prime_factors",
    "rank_fp",
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group: free rank plus invariant factors.

    The torsion part is the divisibility chain d1 | d2 | ... with every
    d_i >= 2, so equality of groups is equality of the dataclass.
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        prev = 1
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
            if d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

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
        length = max((len(v) for v in primes.values()), default=0)
        chain = []
        for i in range(length):
            d = 1
            for p, exps in primes.items():
                ordered = sorted(exps, reverse=True)
                if i < len(ordered):
                    d *= p ** ordered[i]
            chain.append(d)
        chain.reverse()
        return cls(rank, tuple(chain))

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
        return FinAbGroup.from_factors(self.rank * copies, self.torsion * copies)

    @property
    def is_zero(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def is_torsion_free(self) -> bool:
        return not self.torsion

    def torsion_primes(self) -> frozenset[int]:
        primes: set[int] = set()
        for d in self.torsion:
            primes.update(prime_factors(d))
        return frozenset(primes)

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "FinAbGroup":
        return cls(int(d["rank"]), tuple(int(x) for x in d["torsion"]))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class FpMatrix:
    """Dense matrix over the prime field F_p, entries reduced into [0, p)."""

    __slots__ = ("p", "array")

    def __init__(self, p: int, array: np.ndarray):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        arr = np.asarray(array, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError("a 2-dimensional array is required")
        self.p = p
        self.array = arr % p
        self.array.setflags(write=False)

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(p, np.zeros((0, 0), dtype=np.int64))
        return cls(p, np.array(rows, dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.array.shape == other.array.shape
            and bool((self.array == other.array).all())
        )

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p:
            raise ValueError("mismatched moduli")
        if self.cols != other.rows:
            raise ValueError("mismatched shapes")
        return FpMatrix(self.p, (self.array @ other.array) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.array.shape != other.array.shape:
            raise ValueError("mismatched operands")
        return FpMatrix(self.p, (self.array - other.array) % self.p)

    def is_identity(self) -> bool:
        return self.rows == self.cols and bool(
            (self.array == np.eye(self.rows, dtype=np.int64)).all()
        )

    def is_zero(self) -> bool:
        return not self.array.any()

    def rank(self) -> int:
        """Row rank by exact Gaussian elimination over F_p."""
        a = self.array.copy()
        p = self.p
        nrows, ncols = a.shape
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pivots = np.nonzero(a[r:, c])[0]
            if pivots.size == 0:
                continue
            i = r + int(pivots[0])
            if i != r:
                a[[r, i]] = a[[i, r]]
            inv = pow(int(a[r, c]), -1, p)
            a[r] = (a[r] * inv) % p
            below = a[r + 1 :]
            if below.size:
                a[r + 1 :] = (below - np.outer(below[:, c], a[r])) % p
            r += 1
        return r

    def lift(self) -> "IntMatrix":
        """The entries read as integers in [0, p)."""
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in self.array), self.cols)

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.array]

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.to_lists()!r})"


def rank_fp(m: FpMatrix) -> int:
    """Rank of a matrix over F_p."""
    return m.rank()


def kronecker(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """Kronecker product with the left factor as the outer (block) index."""
    if a.p != b.p:
        raise ValueError("mismatched moduli")
    return FpMatrix(a.p, np.kron(a.array, b.array) % a.p)


class IntMatrix:
    """Immutable dense matrix with arbitrary-precision integer entries."""

    __slots__ = ("data", "cols")

    def __init__(self, rows, cols: int | None = None):
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with the rows")
            cols = width
        elif cols is None:
            cols = 0
        self.data = data
        self.cols = cols

    @classmethod
    def _trusted(cls, data: tuple, cols: int) -> "IntMatrix":
        """Wrap rows this module built itself, skipping the constructor's checks.

        ``data`` must already be a tuple of ``cols``-wide tuples of Python
        ints; only results computed here qualify, never caller input.
        """
        m = object.__new__(cls)
        m.data = data
        m.cols = cols
        return m

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(rows)

    @classmethod
    def from_json(cls, text: str) -> "IntMatrix":
        """Parse a nested-integer-array literal, e.g. ``[[1, 0], [0, 1]]``."""
        return cls(json.loads(text))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        rows = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        return cls._trusted(rows, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(tuple((0,) * cols for _ in range(rows)), cols)

    @classmethod
    def block_diag(cls, blocks) -> "IntMatrix":
        blocks = list(blocks)
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[0] * m for _ in range(n)]
        i = j = 0
        for b in blocks:
            for r, row in enumerate(b.data):
                out[i + r][j : j + b.cols] = row
            i += b.rows
            j += b.cols
        return cls(out, m)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.data == other.data
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._trusted(
            tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(self.data, other.data)),
            self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix._trusted(
            tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(self.data, other.data)),
            self.cols,
        )

    def _same_shape(self, other: "IntMatrix") -> None:
        if not isinstance(other, IntMatrix) or self.shape != other.shape:
            raise ValueError("mismatched shapes")

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("mismatched shapes")
        if not (self.rows and self.cols and other.cols):
            return _matmul_reference(self, other)
        bound = self.cols * _max_abs(self) * _max_abs(other)
        if not 0 < bound < _INT64_SAFE:
            return _matmul_reference(self, other)
        # A non-zero bound caps every entry too, so the conversion is exact.
        product = np.array(self.data, dtype=np.int64) @ np.array(other.data, dtype=np.int64)
        return IntMatrix._trusted(tuple(map(tuple, product.tolist())), other.cols)

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
        return self == IntMatrix.identity(self.rows) and self.rows == self.cols

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.data)

    def column_submatrix(self, indices) -> "IntMatrix":
        idx = list(indices)
        return IntMatrix._trusted(tuple(tuple(row[j] for j in idx) for row in self.data), len(idx))

    def principal_submatrix(self, indices) -> "IntMatrix":
        """The rows and columns at the given indices, in the given order."""
        idx = list(indices)
        data = self.data
        return IntMatrix._trusted(tuple(tuple(data[i][j] for j in idx) for i in idx), len(idx))

    def reduce_mod(self, p: int) -> FpMatrix:
        if not self.data:
            return FpMatrix.zeros(p, 0, self.cols)
        return FpMatrix.from_rows(p, [[x % p for x in row] for row in self.data])

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("square matrix required")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.data]
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
        return [list(row) for row in self.data]

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


# Below this bound on cols * max|a| * max|b| no partial sum of a matrix
# product leaves int64, whose range is [-2**63, 2**63).
_INT64_SAFE = 2**62


def _max_abs(m: IntMatrix) -> int:
    return max(map(abs, itertools.chain.from_iterable(m.data)))


def _matmul_reference(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The exact product in Python integers; the oracle for the int64 path."""
    if a.cols == 0:
        return IntMatrix.zeros(a.rows, b.cols)
    cols = tuple(zip(*b.data))
    out = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a.data)
    return IntMatrix._trusted(out, b.cols)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _swap_rows(a, u, i, j):
    if i != j:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    if i != j:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]


def _row_combine(a, u, i, j, q):
    # row_i -= q * row_j
    for mat in (a, u):
        ri, rj = mat[i], mat[j]
        for c in range(len(ri)):
            ri[c] -= q * rj[c]


def _col_combine(a, v, i, j, q):
    # col_i -= q * col_j
    for mat in (a, v):
        for row in mat:
            row[i] -= q * row[j]


def _two_rows(a, u, r1, r2, c11, c12, c21, c22):
    # (row_r1, row_r2) <- (c11*row_r1 + c12*row_r2, c21*row_r1 + c22*row_r2)
    for mat in (a, u):
        row1, row2 = mat[r1], mat[r2]
        for k in range(len(row1)):
            e1, e2 = row1[k], row2[k]
            row1[k] = c11 * e1 + c12 * e2
            row2[k] = c21 * e1 + c22 * e2


def _two_cols(a, v, c1, c2, c11, c12, c21, c22):
    # (col_c1, col_c2) <- (c11*col_c1 + c12*col_c2, c21*col_c1 + c22*col_c2)
    for mat in (a, v):
        for row in mat:
            e1, e2 = row[c1], row[c2]
            row[c1] = c11 * e1 + c12 * e2
            row[c2] = c21 * e1 + c22 * e2


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: unimodular u, v with u @ m @ v = d diagonal.

    The diagonal of d is non-negative and forms a divisibility chain
    d1 | d2 | ... .  Each off-pivot entry is removed by a single
    determinant-one transform built from an extended gcd (rather than by
    repeated Euclidean subtraction of whole rows), which keeps coefficient
    growth tame; the divisibility chain is then restored by pairwise
    gcd/lcm fix-ups on the diagonal.
    """
    nrows, ncols = m.rows, m.cols
    a = [list(row) for row in m.data]
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    v = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    rank = 0
    for t in range(min(nrows, ncols)):
        # Move the entry of minimal non-zero absolute value to the pivot.
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
        _swap_rows(a, u, t, pr)
        _swap_cols(a, v, t, pc)
        if a[t][t] < 0:
            for c in range(ncols):
                a[t][c] = -a[t][c]
            for c in range(nrows):
                u[t][c] = -u[t][c]

        while True:
            pivot = a[t][t]
            for i in range(t + 1, nrows):
                e = a[i][t]
                if not e:
                    continue
                if e % pivot == 0:
                    _row_combine(a, u, i, t, e // pivot)
                else:
                    g, x, y = _xgcd(pivot, e)
                    _two_rows(a, u, t, i, x, y, -(e // g), pivot // g)
                    pivot = g
            for j in range(t + 1, ncols):
                e = a[t][j]
                if not e:
                    continue
                if e % pivot == 0:
                    _col_combine(a, v, j, t, e // pivot)
                else:
                    # The gcd transform rewrites column t, so the cleared
                    # column can get dirty again; the pivot strictly
                    # shrinks each time, so the outer loop terminates.
                    g, x, y = _xgcd(pivot, e)
                    _two_cols(a, v, t, j, x, y, -(e // g), pivot // g)
                    pivot = g
            if not any(a[i][t] for i in range(t + 1, nrows)) and not any(
                a[t][j] for j in range(t + 1, ncols)
            ):
                break
        rank = t + 1

    # Restore the divisibility chain with gcd/lcm fix-ups: after pass i,
    # the i-th diagonal entry divides every later one.
    for i in range(rank):
        for j in range(i + 1, rank):
            di, dj = a[i][i], a[j][j]
            if dj % di == 0:
                continue
            # Pull d_j into row i, then one gcd transform on columns
            # (i, j) leaves diag entries gcd and lcm.
            _row_combine(a, u, i, j, -1)
            g, x, y = _xgcd(a[i][i], a[i][j])
            _two_cols(a, v, i, j, x, y, -(a[i][j] // g), a[i][i] // g)
            _row_combine(a, u, j, i, a[j][i] // a[i][i])

    for t in range(rank):
        if a[t][t] <= 0:
            raise InvariantError(f"Smith normal form pivot {t} is {a[t][t]}, not positive")
    return (
        IntMatrix._trusted(tuple(map(tuple, u)), nrows),
        IntMatrix._trusted(tuple(map(tuple, a)), ncols),
        IntMatrix._trusted(tuple(map(tuple, v)), ncols),
    )


def _diagonal(d: IntMatrix) -> list[int]:
    return [d.data[i][i] for i in range(min(d.rows, d.cols))]


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Invariants of Z^rows modulo the column span of m."""
    _, d, _ = smith_normal_form(m)
    nonzero = [x for x in _diagonal(d) if x != 0]
    rank = m.rows - len(nonzero)
    return FinAbGroup(rank, tuple(x for x in nonzero if x > 1))


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
    ub = u @ b
    diag = _diagonal(d)
    s = len([x for x in diag if x != 0])
    z = []
    for i in range(a.cols):
        if i < s:
            row = []
            for val in ub.data[i]:
                q, r = divmod(val, diag[i])
                if r:
                    raise ExactSolveError("no integral solution (divisibility fails)")
                row.append(q)
            z.append(row)
        else:
            z.append([0] * b.cols)
    for i in range(s, a.rows):
        if any(ub.data[i]):
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
    prefix whose wedge vanishes is dropped with all of them.
    """
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    n = m.rows
    if k < 0 or k > n:
        raise BadDegreeError(f"degree {k} out of range for a {n} x {n} matrix")
    # Subsets are bit masks; e_i moves into place past the set bits above i.
    columns = [
        [(i, 1 << i, m.data[i][t]) for i in range(n) if m.data[i][t]] for t in range(n)
    ]
    index = {
        sum(1 << i for i in subset): r
        for r, subset in enumerate(itertools.combinations(range(n), k))
    }
    out = [[0] * len(index) for _ in index]
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
    return IntMatrix._trusted(tuple(map(tuple, out)), len(index))
