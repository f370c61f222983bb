"""Dense matrices and vectors over exact rationals or complex floats.

Two scalar modes exist and never mix silently: ``"rational"`` entries are
``fractions.Fraction`` and all comparisons are exact; ``"complex"`` entries
are Python ``complex`` and comparisons use a tolerance.

The only state of a rational ``Vector`` or ``Matrix`` is its
``IntegerForm``: a numerator array over one positive denominator in lowest
terms (a zero array is 0/1), with the largest numerator magnitude as its
bound.  The array is int64 when the bound is below 2**62 and a Python-int
``object`` array otherwise.  A complex array holds a complex ndarray.
``array_form()`` returns the state, and equality and hashing read it.
``entries`` is a view, nested lists of ``Fraction`` or ``complex`` built on
first use; an array built from input keeps its coerced input as the view.
Arrays are immutable: callers build a new array instead of mutating one.

Every rational result passes through one lowest-terms constructor, and
``integer_product`` runs each integer operation in int64 or on Python ints.
Complex elementwise products round exactly as Python's complex product
does, and every complex result must be finite.  The entry tests (``support``,
``inf_norm``, ``matrices_close``, nonnegativity) live here and read the state;
a complex modulus is ``hypot(re, im)``, which rounds as Python's ``abs`` does.

Exact elimination has one kernel, ``bareiss_eliminate``: fraction-free
Gauss-Jordan elimination on Python integers, after E. H. Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968).  Every entry it produces is a minor of
its input, so each division it makes is exact and no gcd is taken.  The
rational ``inverse`` runs it on ``[N | I]``, where ``N`` is the numerator
array of the matrix; ``cones`` runs it for null spaces.  Complex mode
inverts by Gauss-Jordan with partial pivoting.
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


class IntegerForm(NamedTuple):
    """Rational entries as ``num / den`` with one common denominator."""

    num: np.ndarray  # int64, or object (Python ints) when bound >= _INT64_SAFE
    den: int  # positive
    bound: int  # largest |numerator|


# Integer arithmetic runs in numpy int64 when no operand or partial result
# can overflow; otherwise Python big integers (numpy object arrays) take over.
_INT64_SAFE = 2**62


def integer_form(rows) -> IntegerForm:
    """Clear the denominators of rows of Fractions.

    The result is in lowest terms: a prime dividing the common denominator
    divides the denominator of some entry as often, and that entry's
    cleared numerator is prime to it.
    """
    den = math.lcm(*(v.denominator for row in rows for v in row))
    cleared = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    bound = max(abs(v) for row in cleared for v in row)
    dtype = np.int64 if bound < _INT64_SAFE else object
    return IntegerForm(np.array(cleared, dtype=dtype), den, bound)


def integer_product(op, *operands, bound: int) -> np.ndarray:
    """``op(*operands)`` on integer arrays and Python ints, exact.

    ``bound`` must bound the magnitude of every partial result.  The
    operation runs in int64 when ``bound`` and every int operand are below
    ``_INT64_SAFE``, and on Python ints otherwise.  An int operand counts
    on its own, because numpy casts it to int64 even where the array it
    multiplies is zero.
    """
    scalars = (abs(v) for v in operands if isinstance(v, int))
    if bound < _INT64_SAFE and all(s < _INT64_SAFE for s in scalars):
        return op(*operands)
    return op(*(v.astype(object) if isinstance(v, np.ndarray) else v for v in operands))


def _lowest_terms(num: np.ndarray, den: int) -> IntegerForm:
    """The canonical ``IntegerForm`` of ``num / den`` for a positive ``den``."""
    bound = int(abs(num).max())
    if bound == 0:
        return IntegerForm(np.zeros(num.shape, dtype=np.int64), 1, 0)
    if den != 1:
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
        if g != 1:
            num, den, bound = num // g, den // g, bound // g
    dtype = np.int64 if bound < _INT64_SAFE else object
    return IntegerForm(num if num.dtype == dtype else num.astype(dtype), den, bound)


def _complex_product(op, a, b) -> np.ndarray:
    """``op(a, b)`` on complex operands.  The elementwise products
    ``np.multiply`` and ``np.kron`` are formed from real and imaginary
    parts, so each rounds as Python's complex product does."""
    with np.errstate(over="ignore", invalid="ignore"):
        if op is np.matmul:
            return a @ b
        real = op(a.real, b.real) - op(a.imag, b.imag)
        imag = op(a.real, b.imag) + op(a.imag, b.real)
    out = real.astype(complex)
    out.imag = imag
    return out


def _product(cls, a, b, op, terms: int = 1):
    """``op(a, b)`` as a ``cls`` array, for a product ``op`` whose entries
    each sum ``terms`` products of an entry of ``a`` and one of ``b``."""
    if a.mode == COMPLEX:
        return cls._complex(_complex_product(op, a._state, b._state))
    s, t = a._state, b._state
    num = integer_product(op, s.num, t.num, bound=s.bound * t.bound * terms)
    return cls._rational(num, s.den * t.den)


class _Array:
    """The state, view and shared operations of ``Vector`` and ``Matrix``."""

    __slots__ = ("mode", "_state", "_entries")

    def _set_input(self, entries: list, mode: str) -> None:
        """Hold coerced input ``entries`` as the view and derive the state."""
        self.mode, self._entries = mode, entries
        if mode == COMPLEX:
            self._state = np.array(entries, dtype=complex)
        elif isinstance(self, Matrix):
            self._state = integer_form(entries)
        else:
            form = integer_form([entries])
            self._state = form._replace(num=form.num[0])

    @classmethod
    def _of(cls, mode: str, state):
        array = object.__new__(cls)
        array.mode, array._state, array._entries = mode, state, None
        return array

    @classmethod
    def _rational(cls, num: np.ndarray, den: int):
        """The rational array ``num / den`` in lowest terms."""
        return cls._of(RATIONAL, _lowest_terms(num, den))

    @classmethod
    def _complex(cls, values: np.ndarray):
        """The complex array of ``values``, which must all be finite."""
        finite = np.isfinite(values)
        if not finite.all():
            first = complex(values.ravel()[np.flatnonzero(~finite.ravel())[0]])
            raise ValueError(f"complex entries must be finite, got {first}")
        return cls._of(COMPLEX, values)

    @classmethod
    def rational(cls, entries):
        return cls(entries, RATIONAL)

    @classmethod
    def complex_(cls, entries):
        return cls(entries, COMPLEX)

    def array_form(self) -> Union[IntegerForm, np.ndarray]:
        """The state: an ``IntegerForm`` in rational mode, a complex ndarray
        in complex mode."""
        return self._state

    @property
    def _values(self) -> np.ndarray:
        return self._state.num if self.mode == RATIONAL else self._state

    @property
    def _den(self) -> Optional[int]:
        return self._state.den if self.mode == RATIONAL else None

    def _with_values(self, cls, values: np.ndarray):
        """A ``cls`` array of ``values`` in this array's mode; rational values
        are numerators over this array's denominator."""
        if self.mode == RATIONAL:
            return cls._rational(values, self._den)
        return cls._complex(values)

    @property
    def entries(self) -> list:
        """``Fraction`` or ``complex`` entries in (nested) lists: a view of
        the state, built once."""
        if self._entries is None:
            values = self._values.tolist()
            if self.mode == RATIONAL:
                values = _fractions(values, self._den)
            self._entries = values
        return self._entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _Array)
            and self.mode == other.mode
            and self._den == other._den
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self):
        values = self._values
        return hash((self.mode, values.shape, self._den, tuple(values.ravel().tolist())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.entries!r}, mode={self.mode!r})"

    def __add__(self, other):
        return self._sum(other, 1)

    def _sum(self, other, sign: int):
        """self + sign * other, for sign = 1 or -1."""
        _require_same_mode(self, other)
        if self._values.shape != other._values.shape:
            raise ValueError(self._shape_error)
        if self.mode == COMPLEX:
            with np.errstate(over="ignore", invalid="ignore"):
                values = (np.add if sign > 0 else np.subtract)(self._state, other._state)
            return type(self)._complex(values)
        a, b = self._state, other._state
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        num = integer_product(
            lambda p, fp, q, fq: p * fp + q * fq,
            a.num, fa, b.num, fb,
            bound=a.bound * fa + b.bound * abs(fb),
        )
        return type(self)._rational(num, den)

    def scale(self, alpha: ScalarInput):
        a = _coerce(alpha, self.mode)
        if self.mode == COMPLEX:
            return type(self)._complex(_complex_product(np.multiply, self._state, a))
        s = self._state
        num = integer_product(
            np.multiply, s.num, a.numerator, bound=s.bound * abs(a.numerator)
        )
        return type(self)._rational(num, s.den * a.denominator)

    def to_complex(self):
        if self.mode == COMPLEX:
            return self
        num, den, _ = self._state
        # Python int true division rounds each num/den correctly.
        values = [v / den for v in num.ravel().tolist()]
        return type(self)._complex(np.array(values, dtype=complex).reshape(num.shape))


def _fractions(values: list, den: int) -> list:
    """Nested lists of ints as Fractions over ``den``."""
    return [
        _fractions(v, den) if isinstance(v, list) else Fraction(v, den) for v in values
    ]


class Vector(_Array):
    """Dense vector with a fixed scalar mode."""

    __slots__ = ()
    _shape_error = "dimension mismatch"

    def __init__(self, entries: Iterable[ScalarInput], mode: str):
        entries = [_coerce(v, mode) for v in entries]
        if not entries:
            raise ValueError("vectors must be nonempty")
        self._set_input(entries, mode)

    @property
    def dim(self) -> int:
        return len(self._values)

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int):
        return self.entries[i]


def basis_vector(n: int, k: int, mode: str = RATIONAL) -> Vector:
    """Canonical basis vector e_k (1-based) in dimension n."""
    if not 1 <= k <= n:
        raise ValueError(f"basis index {k} out of range for dimension {n}")
    return Vector([int(i == k - 1) for i in range(n)], mode)


def ones_vector(n: int, mode: str = RATIONAL) -> Vector:
    return Vector([1] * n, mode)


class Matrix(_Array):
    """Dense matrix with a fixed scalar mode; entries stored row-major."""

    __slots__ = ()
    _shape_error = "shape mismatch"

    def __init__(self, rows: Sequence[Sequence[ScalarInput]], mode: str):
        entries = [[_coerce(v, mode) for v in row] for row in rows]
        if not entries or not entries[0]:
            raise ValueError("matrices must be nonempty")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have equal length")
        self._set_input(entries, mode)

    @classmethod
    def identity(cls, n: int, mode: str = RATIONAL) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)], mode)

    @property
    def nrows(self) -> int:
        return self._values.shape[0]

    @property
    def ncols(self) -> int:
        return self._values.shape[1]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: Tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        """Row i (0-based) as a vector."""
        return self._with_values(Vector, self._values[i])

    def col(self, j: int) -> Vector:
        return self._with_values(Vector, self._values[:, j])

    def rows(self) -> List[Vector]:
        return [self.row(i) for i in range(self.nrows)]

    def transpose(self) -> "Matrix":
        return self._with_values(Matrix, self._values.T)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, -1)

    def scale_columns(self, x: Vector) -> "Matrix":
        """Return self @ diag(x) without building the diagonal matrix."""
        _require_same_mode(self, x)
        if x.dim != self.ncols:
            raise ValueError("dimension mismatch")
        return _product(Matrix, self, x, np.multiply)

    def __matmul__(self, other):
        if not isinstance(other, (Vector, Matrix)):
            return NotImplemented
        _require_same_mode(self, other)
        if self.ncols != len(other._values):
            raise ValueError("dimension mismatch")
        return _product(type(other), self, other, np.matmul, self.ncols)


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, blockwise [a_ij * B]."""
    _require_same_mode(A, B)
    return _product(Matrix, A, B, np.kron)


def kron_vec(x: Vector, y: Vector) -> Vector:
    """Kronecker product of vectors: entry i is x_ceil(i/n) * y_((i-1)%n+1)."""
    _require_same_mode(x, y)
    return _product(Vector, x, y, np.kron)


def diag_embed(x: Vector) -> Matrix:
    """Diagonal matrix with x on the diagonal."""
    return x._with_values(Matrix, np.diag(x._values))


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
        num = aug[:, n:] * (form.den if det > 0 else -form.den)
        return Matrix._rational(num, abs(det))
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
    return Matrix._complex(np.array([row[n:] for row in aug], dtype=complex))


def p_norm(x: Vector, p: Union[int, float]) -> float:
    """Standard p-norm for p in [1, inf]; the inf-norm is the max modulus."""
    if p == math.inf:
        return float(inf_norm(x))
    if p < 1:
        raise ValueError(f"p-norms require p >= 1, got {p}")
    mags = [abs(complex(v)) if x.mode == COMPLEX else abs(float(v)) for v in x]
    return sum(m**p for m in mags) ** (1.0 / p)


def inf_norm(x: Vector) -> Union[Fraction, float]:
    """Infinity norm: exact in rational mode, the largest modulus in complex mode."""
    if x.mode == RATIONAL:
        return Fraction(x._state.bound, x._state.den)
    return float(_moduli(x._state).max())


def inf_norm_exact(x: Vector) -> Fraction:
    """Exact infinity norm; rational mode only."""
    if x.mode != RATIONAL:
        raise ModeMismatchError("exact norms require rational mode")
    return inf_norm(x)


def _moduli(values: np.ndarray) -> np.ndarray:
    """Each modulus rounded as Python's ``abs`` rounds it; ``np.abs`` need not."""
    return np.hypot(values.real, values.imag)


def support(A: _Array, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Boolean array of the nonzero entries of A: exact in rational mode,
    modulus above eps in complex mode.  ``Tolerance(0)`` is exact in both."""
    if A.mode == RATIONAL:
        return A._state.num != 0
    return _moduli(A._state) > tol.eps


def is_entrywise_nonneg(A: Matrix, tol: Tolerance = Tolerance()) -> bool:
    """Entrywise nonnegativity; complex entries must be (nearly) real."""
    return _nonneg(A, tol, 1)


def vector_is_nonneg(x: Vector, tol: Tolerance = Tolerance(), sign: int = 1) -> bool:
    """Whether sign * x is entrywise nonnegative (nearly real in complex mode)."""
    return _nonneg(x, tol, sign)


def _nonneg(a: _Array, tol: Tolerance, sign: int) -> bool:
    # A positive denominator leaves each sign to its numerator.
    if a.mode == RATIONAL:
        return bool((sign * a._state.num >= 0).all())
    v = a._state
    return bool(((np.abs(v.imag) <= tol.eps) & (sign * v.real >= -tol.eps)).all())


def matrices_close(A: _Array, B: _Array, tol: Tolerance = Tolerance()) -> bool:
    """Equality test of two vectors or two matrices: exact in rational mode,
    entrywise within eps otherwise.  Arrays of different shapes differ."""
    _require_same_mode(A, B)
    if A._values.shape != B._values.shape:
        return False
    if A.mode == RATIONAL:
        return A == B
    with np.errstate(over="ignore"):
        return bool((_moduli(A._state - B._state) <= tol.eps).all())


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
    if pivot is None:
        # z = 0 reshapes to the zero matrix (rank 0); any y works with x = 0.
        return Vector([0] * m, z.mode), Vector([1] + [0] * (n - 1), z.mode)
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
