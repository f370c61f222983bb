"""Dense matrices and vectors over exact rationals or complex floats.

Two scalar modes exist and never mix silently: ``"rational"`` entries are
``fractions.Fraction`` and all comparisons are exact; ``"complex"`` entries
are Python ``complex`` and comparisons use a tolerance.

A matrix computes a dense array form of itself on first use and keeps it
(``Matrix.array_form``).  In rational mode that is an integer numerator
array, one positive common denominator and the largest numerator
magnitude; the array is numpy int64 when that bound allows it and a
Python-int ``object`` array otherwise.  In complex mode it is a complex
ndarray.  Rational products multiply the cached numerator arrays (in int64
only when no partial sum can overflow), so the denominators of a matrix
are cleared once, not once per product.  The cache assumes that a
matrix's ``entries`` are never mutated after construction; no code in this
package does so, and callers must build a new ``Matrix`` instead.

Exact elimination has one kernel, ``bareiss_eliminate``: fraction-free
Gauss-Jordan elimination on Python integers, after E. H. Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968).  Every entry it produces is a minor of
its input, so each division it makes is exact and no gcd is taken.  The
rational ``inverse`` runs it on ``[N | I]``, where ``N`` is the cached
numerator array of ``array_form``; ``cones`` runs it for null spaces.
Complex mode inverts by Gauss-Jordan with partial pivoting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

RATIONAL = "rational"
COMPLEX = "complex"

ScalarInput = Union[int, Fraction, float, complex, str]


class ModeMismatchError(ValueError):
    """Raised when rational and complex operands are combined."""


class SingularMatrixError(ValueError):
    """Raised when no valid pivot exists during elimination."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison slack for complex mode; ignored in rational mode."""

    eps: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, not {self.eps}")


def _coerce(value: ScalarInput, mode: str):
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise TypeError(f"cannot use {value!r} as a rational entry")
    if mode == COMPLEX:
        if isinstance(value, Fraction):
            value = float(value)
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"complex entries must be finite, got {z}")
        return z
    raise ValueError(f"unknown scalar mode {mode!r}")


def _require_same_mode(a, b):
    if a.mode != b.mode:
        raise ModeMismatchError(f"mode mismatch: {a.mode} vs {b.mode}")


class Vector:
    """Dense vector with a fixed scalar mode."""

    __slots__ = ("mode", "entries")

    def __init__(self, entries: Iterable[ScalarInput], mode: str):
        self.mode = mode
        self.entries = [_coerce(v, mode) for v in entries]
        if not self.entries:
            raise ValueError("vectors must be nonempty")

    @classmethod
    def rational(cls, entries: Iterable[ScalarInput]) -> "Vector":
        return cls(entries, RATIONAL)

    @classmethod
    def complex_(cls, entries: Iterable[ScalarInput]) -> "Vector":
        return cls(entries, COMPLEX)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Vector)
            and self.mode == other.mode
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.mode, tuple(self.entries)))

    def __repr__(self) -> str:
        return f"Vector({self.entries!r}, mode={self.mode!r})"

    def __add__(self, other: "Vector") -> "Vector":
        _require_same_mode(self, other)
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return Vector([a + b for a, b in zip(self.entries, other.entries)], self.mode)

    def scale(self, alpha: ScalarInput) -> "Vector":
        a = _coerce(alpha, self.mode)
        return Vector([a * v for v in self.entries], self.mode)

    def to_complex(self) -> "Vector":
        if self.mode == COMPLEX:
            return self
        return Vector([complex(v) for v in self.entries], COMPLEX)


def basis_vector(n: int, k: int, mode: str = RATIONAL) -> Vector:
    """Canonical basis vector e_k (1-based) in dimension n."""
    if not 1 <= k <= n:
        raise ValueError(f"basis index {k} out of range for dimension {n}")
    one = Fraction(1) if mode == RATIONAL else complex(1)
    zero = Fraction(0) if mode == RATIONAL else complex(0)
    return Vector([one if i == k - 1 else zero for i in range(n)], mode)


def ones_vector(n: int, mode: str = RATIONAL) -> Vector:
    one = Fraction(1) if mode == RATIONAL else complex(1)
    return Vector([one] * n, mode)


class IntegerForm(NamedTuple):
    """Rational entries as ``num / den`` with one common denominator."""

    num: np.ndarray  # int64, or object (Python ints) when bound >= _INT64_SAFE
    den: int  # positive
    bound: int  # largest |numerator|


class Matrix:
    """Dense matrix with a fixed scalar mode; entries stored row-major.

    Matrices are immutable by convention: ``array_form`` caches an array
    form of ``entries`` on first use.
    """

    __slots__ = ("mode", "entries", "_form")

    def __init__(self, rows: Sequence[Sequence[ScalarInput]], mode: str):
        self.mode = mode
        self._form = None
        self.entries = [[_coerce(v, mode) for v in row] for row in rows]
        if not self.entries or not self.entries[0]:
            raise ValueError("matrices must be nonempty")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("all rows must have equal length")

    @classmethod
    def rational(cls, rows: Sequence[Sequence[ScalarInput]]) -> "Matrix":
        return cls(rows, RATIONAL)

    @classmethod
    def complex_(cls, rows: Sequence[Sequence[ScalarInput]]) -> "Matrix":
        return cls(rows, COMPLEX)

    @classmethod
    def identity(cls, n: int, mode: str = RATIONAL) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], mode)

    def array_form(self) -> Union[IntegerForm, np.ndarray]:
        """Cached array form: an ``IntegerForm`` in rational mode, a complex
        ndarray in complex mode."""
        if self._form is None:
            if self.mode == RATIONAL:
                self._form = integer_form(self.entries)
            else:
                self._form = np.array(self.entries, dtype=complex)
        return self._form

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.mode == other.mode
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.mode, tuple(tuple(r) for r in self.entries)))

    def __repr__(self) -> str:
        return f"Matrix({self.entries!r}, mode={self.mode!r})"

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        """Row i (0-based) as a vector."""
        return Vector(self.entries[i], self.mode)

    def col(self, j: int) -> Vector:
        return Vector([row[j] for row in self.entries], self.mode)

    def rows(self) -> List[Vector]:
        return [self.row(i) for i in range(self.nrows)]

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.entries)), self.mode)

    def to_complex(self) -> "Matrix":
        if self.mode == COMPLEX:
            return self
        return Matrix([[complex(v) for v in row] for row in self.entries], COMPLEX)

    def __add__(self, other: "Matrix") -> "Matrix":
        _require_same_mode(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.mode,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        _require_same_mode(self, other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
            self.mode,
        )

    def scale(self, alpha: ScalarInput) -> "Matrix":
        a = _coerce(alpha, self.mode)
        return Matrix([[a * v for v in row] for row in self.entries], self.mode)

    def scale_columns(self, x: Vector) -> "Matrix":
        """Return self @ diag(x) without building the diagonal matrix."""
        _require_same_mode(self, x)
        if x.dim != self.ncols:
            raise ValueError("dimension mismatch")
        return Matrix(
            [[v * xv for v, xv in zip(row, x.entries)] for row in self.entries],
            self.mode,
        )

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _require_same_mode(self, other)
            if self.ncols != other.dim:
                raise ValueError("dimension mismatch")
            return Vector(
                [_dot(row, other.entries) for row in self.entries], self.mode
            )
        if not isinstance(other, Matrix):
            return NotImplemented
        _require_same_mode(self, other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        if self.mode == RATIONAL:
            return _matmul_rational(self, other)
        return Matrix((self.array_form() @ other.array_form()).tolist(), COMPLEX)


def _dot(a, b):
    total = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        total += x * y
    return total


# Integer products run in numpy int64 when no partial result can overflow;
# otherwise Python big integers (numpy object arrays) take over.
_INT64_SAFE = 2**62


def integer_form(rows) -> IntegerForm:
    """Clear the denominators of rows of Fractions."""
    den = 1
    for row in rows:
        for v in row:
            den = den * v.denominator // math.gcd(den, v.denominator)
    cleared = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    bound = max(abs(v) for row in cleared for v in row)
    dtype = np.int64 if bound < _INT64_SAFE else object
    return IntegerForm(np.array(cleared, dtype=dtype), den, bound)


def integer_product(op, a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``op(a, b)`` on integer arrays, exact.

    ``bound`` must bound the magnitude of every partial result; below
    ``_INT64_SAFE`` the operation runs in int64, otherwise on Python ints.
    """
    if bound < _INT64_SAFE:
        return op(a, b)
    return op(a.astype(object), b.astype(object))


def _matmul_rational(A: Matrix, B: Matrix) -> Matrix:
    a, b = A.array_form(), B.array_form()
    prod = integer_product(np.matmul, a.num, b.num, a.bound * b.bound * A.ncols)
    den = a.den * b.den
    return Matrix(
        [[Fraction(v, den) for v in row] for row in prod.tolist()], RATIONAL
    )


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, blockwise [a_ij * B]."""
    _require_same_mode(A, B)
    out = []
    for arow in A.entries:
        for brow in B.entries:
            out.append([a * b for a in arow for b in brow])
    return Matrix(out, A.mode)


def kron_vec(x: Vector, y: Vector) -> Vector:
    """Kronecker product of vectors: entry i is x_ceil(i/n) * y_((i-1)%n+1)."""
    _require_same_mode(x, y)
    return Vector([a * b for a in x.entries for b in y.entries], x.mode)


def diag_embed(x: Vector) -> Matrix:
    """Diagonal matrix with x on the diagonal."""
    zero = Fraction(0) if x.mode == RATIONAL else complex(0)
    n = x.dim
    return Matrix(
        [[x[i] if i == j else zero for j in range(n)] for i in range(n)], x.mode
    )


def diag_kron_identity(x: Vector, y: Vector) -> bool:
    """Executable oracle: diag(x) (x) diag(y) == diag(x (x) y)."""
    _require_same_mode(x, y)
    return kron(diag_embed(x), diag_embed(y)) == diag_embed(kron_vec(x, y))


def bareiss_eliminate(M: np.ndarray) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer array, in place.

    ``M`` is a numpy ``object`` array of Python ints.  Columns are taken in
    order; each pivots on its first nonzero entry at or below the rows
    already pivoted, and a column without one is skipped.  A pivot step
    with pivot p, after the previous pivot ``prev``, replaces every other
    row by ``(p * row - row[c] * pivot_row) // prev``, one row at a time;
    the division is exact by Sylvester's identity.

    Returns the pivot columns, in the order of their pivot rows, and the
    last pivot (1 if there is none).  On return the rows holding pivots
    come first, each has the last pivot in its own pivot column and zeros
    in the other pivot columns, and the remaining rows are zero.
    """
    nrows, ncols = M.shape
    pivots: List[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(M[r:, c])
        if not len(nonzero):
            continue
        k = r + int(nonzero[0])
        if k != r:
            M[[r, k]] = M[[k, r]]
        p = M[r, c]
        pivot_row = M[r]
        for i in range(nrows):
            if i == r:
                continue
            f = M[i, c]
            if f:
                M[i] = (p * M[i] - f * pivot_row) // prev
            elif p != prev:
                M[i] = p * M[i] // prev
        pivots.append(c)
        prev = p
    return pivots, prev


def inverse(S: Matrix) -> Matrix:
    """Exact inverse in rational mode, Gauss-Jordan inverse in complex mode.

    Rational mode eliminates ``[N | I]`` with ``bareiss_eliminate``, where
    S = N / d; the left block ends as det * I and S^{-1} is d / det times
    the right block.  Pivoting: first nonzero entry in rational mode,
    maximum modulus in complex mode.  Either way a singular matrix raises
    ``SingularMatrixError`` naming the first column without a pivot.
    """
    if not S.is_square:
        raise ValueError("only square matrices are invertible")
    n = S.nrows
    if S.mode == RATIONAL:
        form = S.array_form()
        aug = np.zeros((n, 2 * n), dtype=object)
        aug[:, :n] = form.num
        aug[:, n:] = np.identity(n, dtype=int)
        pivots, det = bareiss_eliminate(aug)
        if pivots[:n] != list(range(n)):
            col = next(c for c, p in enumerate(pivots + [n]) if c != p)
            raise SingularMatrixError(f"no pivot in column {col + 1}")
        d = form.den
        return Matrix(
            [[Fraction(v * d, det) for v in row[n:]] for row in aug.tolist()],
            RATIONAL,
        )
    aug = [
        list(row) + [complex(i == j) for j in range(n)]
        for i, row in enumerate(S.entries)
    ]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) == 0:
            raise SingularMatrixError(f"no pivot in column {col + 1}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return Matrix([row[n:] for row in aug], COMPLEX)


def p_norm(x: Vector, p: Union[int, float]) -> float:
    """Standard p-norm for p in [1, inf]; the inf-norm is the max modulus."""
    if p == math.inf:
        return max(abs(complex(v)) if x.mode == COMPLEX else abs(float(v)) for v in x)
    if p < 1:
        raise ValueError(f"p-norms require p >= 1, got {p}")
    mags = [abs(complex(v)) if x.mode == COMPLEX else abs(float(v)) for v in x]
    return sum(m**p for m in mags) ** (1.0 / p)


def inf_norm_exact(x: Vector) -> Fraction:
    """Exact infinity norm; rational mode only."""
    if x.mode != RATIONAL:
        raise ModeMismatchError("exact norms require rational mode")
    return max(abs(v) for v in x.entries)


def is_entrywise_nonneg(A: Matrix, tol: Tolerance = Tolerance()) -> bool:
    """Entrywise nonnegativity; complex entries must be (nearly) real."""
    if A.mode == RATIONAL:
        return all(v >= 0 for row in A.entries for v in row)
    return all(
        abs(v.imag) <= tol.eps and v.real >= -tol.eps
        for row in A.entries
        for v in row
    )


def vector_is_nonneg(x: Vector, tol: Tolerance = Tolerance(), sign: int = 1) -> bool:
    """Whether sign * x is entrywise nonnegative (nearly real in complex mode)."""
    if x.mode == RATIONAL:
        return all(sign * v >= 0 for v in x.entries)
    return all(
        abs(v.imag) <= tol.eps and sign * v.real >= -tol.eps for v in x.entries
    )


def matrices_close(A: Matrix, B: Matrix, tol: Tolerance = Tolerance()) -> bool:
    """Equality test: exact in rational mode, entrywise within eps otherwise."""
    _require_same_mode(A, B)
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        return False
    if A.mode == RATIONAL:
        return A == B
    return all(
        abs(a - b) <= tol.eps
        for ra, rb in zip(A.entries, B.entries)
        for a, b in zip(ra, rb)
    )


def kron_factor(
    z: Vector, m: int, n: int, tol: Tolerance = Tolerance()
) -> Optional[Tuple[Vector, Vector]]:
    """Factor z as x (x) y with x of dimension m, y of dimension n.

    Reshapes z row-major into an m-by-n matrix; a factorization exists iff
    that matrix has rank at most 1.  The returned y has first nonzero entry
    equal to 1.  Returns None when no factorization exists.
    """
    if z.dim != m * n:
        raise ValueError(f"dimension mismatch: {z.dim} != {m} * {n}")
    rows = [z.entries[i * n : (i + 1) * n] for i in range(m)]
    if z.mode == RATIONAL:
        def nonzero(v):
            return v != 0
    else:
        scale = max(abs(v) for v in z.entries)
        thresh = tol.eps * max(scale, 1.0)

        def nonzero(v):
            return abs(v) > thresh

    pivot = next(
        ((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if nonzero(v)),
        None,
    )
    one = Fraction(1) if z.mode == RATIONAL else complex(1)
    zero = Fraction(0) if z.mode == RATIONAL else complex(0)
    if pivot is None:
        # z = 0 reshapes to the zero matrix (rank 0); any y works with x = 0.
        return (
            Vector([zero] * m, z.mode),
            Vector([one] + [zero] * (n - 1), z.mode),
        )
    i0, j0 = pivot
    y = [v / rows[i0][j0] for v in rows[i0]]
    x = [rows[i][j0] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expected = x[i] * y[j]
            if z.mode == RATIONAL:
                if rows[i][j] != expected:
                    return None
            elif abs(rows[i][j] - expected) > thresh:
                return None
    return Vector(x, z.mode), Vector(y, z.mode)
