"""Dense matrices and vectors over exact rationals or complex floats.

Two scalar modes exist and never mix silently: ``"rational"`` entries are
exact, integer numerators over one denominator that read as
``fractions.Fraction`` only through a view, and all comparisons are exact;
``"complex"`` entries are Python ``complex`` and comparisons use a
tolerance.  A ``str`` rational entry passes ``check_exponent``, which
refuses a power of ten too long to write, before ``Fraction`` parses it.

The only state of a rational ``Vector`` or ``Matrix`` is its
``IntegerForm``: a numerator array over one positive denominator in lowest
terms (a zero array is 0/1), with the largest numerator magnitude as its
bound.  The array is int64 when the bound is below 2**62 and a Python-int
``object`` array otherwise.  A complex array holds a complex ndarray.
``array_form()`` returns the state, and equality and hashing read it.
``entries`` is a view, nested lists of ``Fraction`` or ``complex`` built on
first use; an array built from input keeps its coerced input as the view.
``from_pairs`` and ``to_pairs`` move entries in and out as pairs of numbers,
``(p, q)`` or ``(re, im)``, without the view; ``from_pairs`` also takes each
distinct entry once with one index per entry, as ``distinct_pairs`` gives
a rational array's entries back.
Arrays are immutable: callers build a new array instead of mutating one.

Numbers become an array only through ``from_pairs``: ``Vector`` and
``Matrix`` input, wire documents, the closed-form inverse's column scales
and ``verification``'s seeded rational draws all take it, and it clears
rational pairs with ``_cleared``.
Computed values become an array only through one constructor,
``_of_values``: it refuses an empty array and an unknown mode, puts
rational numerators over their denominator in lowest terms and refuses a
complex value that is not finite.  ``_cleared`` and ``_lowest_terms``
alone build an ``IntegerForm``, ``integer_array`` stores an integer array
in int64 or on Python ints by its bound, for the state and for the simplex
tableau in ``cones``, and ``integer_product`` runs each integer operation
exactly, by one rule read off the bound of its partial results: a matmul
below 2**53 is formed in float64 from tiles small enough for one thread,
where every partial sum is an integer a double holds (J.-G. Dumas, P.
Giorgi & C. Pernet, "Dense linear algebra over word-size prime fields:
the FFLAS and FFPACK packages", ACM Trans. Math. Softw. 35(3) (2008)),
any operation below 2**62 runs in int64, and every other one on Python
ints.
Every product of arrays is formed by ``_product``, which holds the
per-mode product: matmul, ``kron``, ``face_split``, ``scale_columns`` and
``scale``, which multiplies by the one-entry vector of its scalar.  Only
the complex branches of ``inverse`` and ``kron_factor`` also call
``_complex_product``, on columns of their own working arrays.
``kron`` and ``kron_vec`` form a product by ``_kron``: one broadcast
product of every entry of one factor with every entry of the other,
reshaped to the blockwise layout (A (x) B is a reshaped outer product, as
Van Loan's survey cited below puts it); numpy's ``kron`` is not used.  Every
complex product, matmul and ``kron`` too, is formed from real and imaginary
parts, so it rounds as Python's complex product does; every complex result
must be finite.  The entry tests (``support``, ``inf_norm``,
``has_unit_inf_norm``, ``matrices_close``, nonnegativity) live here and
read the state; a complex modulus is ``hypot(re, im)``, which rounds as
Python's ``abs`` does.

Exact elimination has one kernel, ``_rank_profile``: the column rank
profile of an integer array over Q, found modulo a word-size prime and
certified.  Gauss-Jordan in int64 modulo p = 1048573, or the next smaller
prime where that one fails, gives the pivot columns P and rows R.  The
block B of the pivot rows and columns is then nonsingular, and its
inverse mod p is lifted p-adically to the exact B^-1 = Y / d (J. D.
Dixon, "Exact solution of linear equations using p-adic expansions",
Numer. Math. 40 (1982)), each product by ``integer_product``.  Rational
reconstruction gives d, one comparison of integers proves Y exact, and
one exact product proves each column without a pivot a combination of
the pivot columns left of it.  The rational ``inverse`` reads the
profile of its numerator array ``N``, which is the inverse at full rank
and names the first column without a pivot otherwise, and
``integer_kernel`` reads the kernel vector of the ray scan in ``cones``.  Fraction-free elimination (E. H.
Bareiss, Math. Comp. 22 (1968)) is the tests' oracle; its ``rank_one``
update pivots the simplex tableau in ``cones``.
The rational ``inverse`` takes a closed form when ``N`` has pairwise
orthogonal nonzero rows, as below.  Orthogonal rows are the paper's case:
Sylvester Hadamard matrices have them, and a Kronecker product keeps them
(C. F. Van Loan, "The ubiquitous Kronecker product", J. Comput. Appl. Math.
123 (2000)).  When the Gram matrix ``N N^T`` is diagonal, the inverse is
``N^T`` with each column divided by its diagonal entry, one exact integer
product in place of an O(n^3) big-integer elimination; row 0 is tested
against every row first, so most other matrices are refused in O(n^2)
before the full Gram product.  Complex mode
inverts by Gauss-Jordan with partial pivoting on the ``[S | I]`` complex
array, one rank-1 update of the rows with a nonzero factor per pivot, so
it rounds as the entry-by-entry loop over Python ``complex`` does: a
floating-point Gram test would route some matrices, the DFT among them,
to a closed form that rounds differently.

The Sylvester Hadamard matrix H_n, n a power of two, is H_1 = [1] and
H_2n = [[H_n, H_n], [H_n, -H_n]]; with 0-based indices its entry (i, j) is
(-1)**popcount(i & j), so H_n = H_n^T and H_n^{-1} = H_n / n.  Entry
(i, j) of H diag(x) H^{-1} is therefore (H x)[i XOR j] / n, and x is in
the spectracone of H iff H x >= 0 (C. R. Johnson & P. Paparella, "Perron
spectratopes and the real nonnegative inverse eigenvalue problem", Linear
Algebra Appl. (2016)).  ``is_sylvester`` recognises H_n exactly, and
``perron.in_spectracone`` decides by the one exact product H x.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Callable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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


# The exponent of a decimal entry, in the grammar `Fraction` parses.
_EXPONENT = re.compile(r"e[-+]?0*(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def check_exponent(text: str) -> None:
    """Refuse rational text whose power of ten would have more decimal
    digits than Python writes an int with (``sys.get_int_max_str_digits()``,
    or its default 4300 where there is no cap): ``Fraction`` builds
    ``10**e`` before anything else, and for ``1e999999999`` it would not
    finish."""
    match = _EXPONENT.search(text)
    if match is None:
        return
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    digits = match.group(1).replace("_", "")
    if len(digits) > len(str(limit)) or int(digits) >= limit:
        raise ValueError(
            f"rational entry exponents must stay below {limit} in magnitude, "
            f"not {match.group(0).strip()[:40]!r}"
        )


def _coerce(value: ScalarInput, mode: str):
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, str):
            check_exponent(value)
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

# Every integer up to this magnitude is a float64.
_FLOAT64_EXACT = 2**53

# The side of the tiles a float64 product is formed from.  OpenBLAS keeps a
# product on one thread while m * n * k is at most 4 * 65536, its default
# threshold, which 64**3 meets; a whole product of order 128 would wake a
# second thread, and that thread spins on after the call.
_TILE = 64


def _cleared(
    ps: Sequence[int], qs: Sequence[int], shape, index: Optional[Iterable[int]] = None
) -> IntegerForm:
    """The ``IntegerForm`` of ``shape`` whose entries, row-major, are the
    fractions ``ps[k] / qs[k]``, or whose entry k is the fraction at
    ``index[k]`` when ``index`` is given, as numerators over ``lcm(qs)``.
    Each fraction is in lowest terms with a positive denominator, and with
    ``index`` each is some entry's.

    The result is in lowest terms: a prime dividing the common denominator
    divides the denominator of some entry as often, and that entry's
    cleared numerator is prime to it.
    """
    den = math.lcm(*set(qs))
    num = ps if den == 1 else [p * (den // q) for p, q in zip(ps, qs)]
    bound = max(map(abs, num))
    num = integer_array(num, bound)
    if index is not None:
        num = num[np.fromiter(index, dtype=np.intp, count=math.prod(shape))]
    return IntegerForm(num.reshape(shape), den, bound)


def integer_array(values, bound: int) -> np.ndarray:
    """``values``, integers at most ``bound`` in magnitude, as an int64
    array when ``bound`` is below ``_INT64_SAFE`` and as an ``object``
    array of Python ints otherwise; an array whose dtype already fits is
    returned as it is, not copied."""
    return np.asarray(values, dtype=np.int64 if bound < _INT64_SAFE else object)


def integer_product(op, *operands, bound: int) -> np.ndarray:
    """``op(*operands)`` on integer arrays and Python ints, exact.

    ``bound`` must bound the magnitude of every partial result, and it
    alone picks the arithmetic.  ``np.matmul`` of two integer arrays, the
    right one a matrix or a vector, is formed in float64 by
    ``_tiled_matmul`` and cast back to int64 when ``bound`` is below
    2**53: every partial sum is then an integer a double holds, so no order
    of summation rounds.  An entry above ``bound`` in magnitude meets only
    zeros, so a Python-int entry is clipped to ``bound`` first: a float
    cannot hold every Python int.  Otherwise the operation runs in int64 when ``bound`` and
    every int operand are below ``_INT64_SAFE``, and on Python ints
    otherwise.  An int operand counts on its own, because numpy casts it to
    int64 even where the array it multiplies is zero.
    """
    if op is np.matmul and bound < _FLOAT64_EXACT:
        a, b = (np.clip(v, -bound, bound) if v.dtype == object else v for v in operands)
        return _tiled_matmul(a.astype(float), b.astype(float)).astype(np.int64)
    scalars = (abs(v) for v in operands if isinstance(v, int))
    if bound < _INT64_SAFE and all(s < _INT64_SAFE for s in scalars):
        return op(*operands)
    return op(*(v.astype(object) if isinstance(v, np.ndarray) else v for v in operands))


def _tiled_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a float64 matrix ``a`` and a float64 matrix or vector
    ``b``, summed from products of tiles at most ``_TILE`` on a side; a
    vector is taken as one column."""
    if b.ndim == 1:
        return _tiled_matmul(a, b[:, None])[:, 0]
    t = _TILE
    if max(a.shape + b.shape) <= t:
        return a @ b
    out = np.zeros((len(a), b.shape[1]))
    for i in range(0, len(a), t):
        for j in range(0, b.shape[1], t):
            for k in range(0, len(b), t):
                out[i : i + t, j : j + t] += a[i : i + t, k : k + t] @ b[k : k + t, j : j + t]
    return out


def _lowest_terms(num: np.ndarray, den: int) -> IntegerForm:
    """The canonical ``IntegerForm`` of ``num / den`` for a positive ``den``."""
    bound = int(abs(num).max())
    if bound == 0:
        return IntegerForm(np.zeros(num.shape, dtype=np.int64), 1, 0)
    if den != 1:
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), den)
        if g != 1:
            num, den, bound = num // g, den // g, bound // g
    return IntegerForm(integer_array(num, bound), den, bound)


def _complex_product(op, a, b) -> np.ndarray:
    """``op(a, b)`` on complex operands, formed from real and imaginary
    parts; each elementwise product rounds as Python's complex product
    does, and no product reaches complex BLAS.  Callers run it under
    ``np.errstate(over="ignore", invalid="ignore")`` and refuse a result
    that is not finite."""
    real = op(a.real, b.real) - op(a.imag, b.imag)
    imag = op(a.real, b.imag) + op(a.imag, b.real)
    out = real.astype(complex)
    out.imag = imag
    return out


def _product(cls, a, b, op, terms: int = 1):
    """``op(a, b)`` as a ``cls`` array, for a product ``op`` whose entries
    each sum ``terms`` products of an entry of ``a`` and one of ``b``."""
    if a.mode == COMPLEX:
        with np.errstate(over="ignore", invalid="ignore"):
            values = _complex_product(op, a._state, b._state)
        return cls._of_values(values, COMPLEX)
    s, t = a._state, b._state
    num = integer_product(op, s.num, t.num, bound=s.bound * t.bound * terms)
    return cls._of_values(num, RATIONAL, s.den * t.den)


class _Array:
    """The state, view and shared operations of ``Vector`` and ``Matrix``."""

    __slots__ = ("mode", "_state", "_entries")

    def _set_input(self, entries: list, shape: Tuple[int, ...], mode: str) -> None:
        """Hold coerced input ``entries`` as the view and derive the state
        through ``from_pairs``."""
        rows = [entries] if len(shape) == 1 else entries
        if mode == RATIONAL:
            pairs = [v.as_integer_ratio() for row in rows for v in row]
        else:
            pairs = [(v.real, v.imag) for row in rows for v in row]
        self.mode, self._entries = mode, entries
        self._state = self.from_pairs(pairs, shape, mode)._state

    @classmethod
    def _of(cls, mode: str, state):
        array = object.__new__(cls)
        array.mode, array._state, array._entries = mode, state, None
        return array

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence[Tuple],
        shape: Tuple[int, ...],
        mode: str,
        index: Optional[Iterable[int]] = None,
    ):
        """The array of ``shape`` whose entries, row-major, are ``pairs``, or
        whose entry k is ``pairs[index[k]]`` when ``index`` is given.

        This is the one way numbers become an array: ``Vector`` and
        ``Matrix`` pass their coerced input, the wire decoder each distinct
        entry once with one index per entry, the rational ``inverse`` its
        column scales, and ``verification`` its seeded rational draws.  In
        rational mode a pair is ``(p, q)``, ints for the fraction p/q in
        lowest terms with q > 0, and the pairs are cleared to numerators
        over ``lcm(q)``.  With ``index``, one position per entry and
        rational mode only, each pair is cleared once and the numerators are
        gathered with one numpy indexing; every pair must be some entry's.
        In complex mode a pair is ``(re, im)``, floats that go straight into
        the complex array, which must be finite.  No entry is coerced on its
        own.  The caller has checked that ``pairs`` is not
        empty, that the entries fill ``shape`` and that ``mode`` is known.
        """
        if mode == RATIONAL:
            ps, qs = zip(*pairs)
            return cls._of(RATIONAL, _cleared(ps, qs, shape, index))
        values = np.array(pairs, dtype=float).view(complex).reshape(shape)
        return cls._of_values(values, COMPLEX)

    def to_pairs(self) -> Iterator[Tuple]:
        """The entries, row-major, as the pairs ``from_pairs`` takes: each
        rational entry in lowest terms, read off one vectorised gcd of the
        numerators with the denominator; each complex entry as its real and
        imaginary parts.  The encoder takes each distinct rational entry once
        from ``distinct_pairs`` instead."""
        if self.mode == COMPLEX:
            flat = self._state.ravel()
            return zip(flat.real.tolist(), flat.imag.tolist())
        num, den, bound = self._state
        g = integer_product(np.gcd, num, den, bound=bound)
        return zip((num // g).ravel().tolist(), (den // g).ravel().tolist())

    def distinct_pairs(self) -> Tuple[Iterator[Tuple[int, int]], List[int]]:
        """The ``pairs`` and ``index`` that ``from_pairs`` takes, for a
        rational array: an iterator over each distinct entry once, as
        ``(p, q)`` in lowest terms and in ascending order, and a list holding
        for each entry, row-major, the position of its pair.  One
        ``np.unique`` of the numerators finds both, and one vectorised gcd of
        the distinct numerators with the denominator reduces them."""
        num, den, bound = self._state
        values, index = np.unique(num, return_inverse=True)
        g = integer_product(np.gcd, values, den, bound=bound)
        # numpy 1.24 and 2.x shape the inverse differently.
        return zip((values // g).tolist(), (den // g).tolist()), index.ravel().tolist()

    @classmethod
    def _of_values(cls, values: np.ndarray, mode: str, den: int = 1):
        """The ``cls`` array of the computed ``values`` in ``mode``, built
        without coercing each entry: in rational mode the integer numerators
        ``values`` over the positive ``den``, put in lowest terms; in complex
        mode ``values``, which must all be finite.  An empty array and an
        unknown mode are refused."""
        if not values.size:
            raise ValueError(cls._empty_error)
        if mode == RATIONAL:
            return cls._of(RATIONAL, _lowest_terms(values, den))
        if mode == COMPLEX:
            values = values.astype(complex, copy=False)
            finite = np.isfinite(values)
            if not finite.all():
                first = complex(values.ravel()[np.flatnonzero(~finite.ravel())[0]])
                raise ValueError(f"complex entries must be finite, got {first}")
            return cls._of(COMPLEX, values)
        raise ValueError(f"unknown scalar mode {mode!r}")

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
        return cls._of_values(values, self.mode, self._den)

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
            return type(self)._of_values(values, COMPLEX)
        a, b = self._state, other._state
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        num = integer_product(
            lambda p, fp, q, fq: p * fp + q * fq,
            a.num, fa, b.num, fb,
            bound=a.bound * fa + b.bound * abs(fb),
        )
        return type(self)._of_values(num, RATIONAL, den)

    def scale(self, alpha: ScalarInput):
        """alpha times each entry: the product with the one-entry vector of
        alpha, broadcast."""
        return _product(type(self), self, Vector([alpha], self.mode), np.multiply)

    def to_complex(self):
        if self.mode == COMPLEX:
            return self
        num, den, _ = self._state
        # Python int true division rounds each num/den correctly.
        values = np.array([v / den for v in num.ravel().tolist()], dtype=complex)
        return type(self)._of_values(values.reshape(num.shape), COMPLEX)


def _fractions(values: list, den: int) -> list:
    """Nested lists of ints as Fractions over ``den``."""
    return [
        _fractions(v, den) if isinstance(v, list) else Fraction(v, den) for v in values
    ]


class Vector(_Array):
    """Dense vector with a fixed scalar mode."""

    __slots__ = ()
    _shape_error = "dimension mismatch"
    _empty_error = "vectors must be nonempty"

    def __init__(self, entries: Iterable[ScalarInput], mode: str):
        entries = [_coerce(v, mode) for v in entries]
        if not entries:
            raise ValueError(self._empty_error)
        self._set_input(entries, (len(entries),), mode)

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
    values = np.zeros(n, dtype=np.int64)
    values[k - 1] = 1
    return Vector._of_values(values, mode)


def ones_vector(n: int, mode: str = RATIONAL) -> Vector:
    return Vector._of_values(np.ones(max(n, 0), dtype=np.int64), mode)


class Matrix(_Array):
    """Dense matrix with a fixed scalar mode; entries stored row-major."""

    __slots__ = ()
    _shape_error = "shape mismatch"
    _empty_error = "matrices must be nonempty"

    def __init__(self, rows: Sequence[Sequence[ScalarInput]], mode: str):
        entries = [[_coerce(v, mode) for v in row] for row in rows]
        if not entries or not entries[0]:
            raise ValueError(self._empty_error)
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("all rows must have equal length")
        self._set_input(entries, (len(entries), width), mode)

    @classmethod
    def identity(cls, n: int, mode: str = RATIONAL) -> "Matrix":
        return cls._of_values(np.identity(max(n, 0), dtype=np.int64), mode)

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

    def row_block(self, start: int, stop: int) -> "Matrix":
        """Rows start to stop - 1 (0-based) as a matrix."""
        return self._with_values(Matrix, self._values[start:stop])

    def transpose(self) -> "Matrix":
        return self._with_values(Matrix, self._values.T)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._sum(other, -1)

    def scale_columns(self, x: Union[Vector, "Matrix"]) -> "Matrix":
        """Return self @ diag(x) without building the diagonal matrix; for a
        matrix x, the blocks self @ diag(x_b), one per row x_b, stacked."""
        _require_same_mode(self, x)
        if x._values.shape[-1] != self.ncols:
            raise ValueError("dimension mismatch")
        return _product(Matrix, x, self, _face_split)

    def __matmul__(self, other):
        if not isinstance(other, (Vector, Matrix)):
            return NotImplemented
        _require_same_mode(self, other)
        if self.ncols != len(other._values):
            raise ValueError("dimension mismatch")
        return _product(type(other), self, other, np.matmul, self.ncols)


def index_matrix(c: Vector, index: Callable) -> Matrix:
    """The n-by-n matrix with entry (i, j), 0-based, ``c[index(i, j) mod n]``
    for n = c.dim; ``index`` maps integer arrays of row and column indices
    to an integer array.  The entries of c are taken as they are, so the n
    values reach the n**2 entries without coercing each one."""
    n = c.dim
    rows, cols = np.ogrid[:n, :n]
    return c._with_values(Matrix, c._values[index(rows, cols) % n])


def kron(A: Matrix, B: Matrix) -> Matrix:
    """Kronecker product, blockwise [a_ij * B]."""
    _require_same_mode(A, B)
    return _product(Matrix, A, B, _kron)


def kron_vec(x: Vector, y: Vector) -> Vector:
    """Kronecker product of vectors: entry i is x_ceil(i/n) * y_((i-1)%n+1)."""
    _require_same_mode(x, y)
    return _product(Vector, x, y, _kron)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two vectors or two matrices, as one
    broadcast product reshaped: entry (i * p + k, j * q + l) of a (x) b,
    for b of shape (p, q), is ``a[i, j] * b[k, l]``."""
    if a.ndim == 1:
        return (a[:, None] * b).ravel()
    return (a[:, None, :, None] * b[:, None]).reshape(len(a) * len(b), -1)


def face_split(A: Matrix, B: Matrix) -> Matrix:
    """Row-wise Kronecker (face-splitting) product: row (i, j), flattened
    as i * B.nrows + j, is the elementwise product A[i, :] * B[j, :]."""
    _require_same_mode(A, B)
    if A.ncols != B.ncols:
        raise ValueError("shape mismatch")
    return _product(Matrix, A, B, _face_split)


def _face_split(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a`` (a vector is one row) times each row of ``b``,
    stacked: row i * len(b) + j is ``a[i] * b[j]``."""
    return (a[..., None, :] * b).reshape(-1, a.shape[-1])


def diag_embed(x: Vector) -> Matrix:
    """Diagonal matrix with x on the diagonal."""
    return x._with_values(Matrix, np.diag(x._values))


def diag_kron_identity(x: Vector, y: Vector) -> bool:
    """Executable oracle: diag(x) (x) diag(y) == diag(x (x) y)."""
    _require_same_mode(x, y)
    return kron(diag_embed(x), diag_embed(y)) == diag_embed(kron_vec(x, y))


def is_sylvester(S: Matrix) -> bool:
    """Whether S is exactly the Sylvester Hadamard matrix H_n: rational with
    the integer form (H_n, 1), n a power of two, and equal to the matrix the
    recurrence H_2n = [[H_n, H_n], [H_n, -H_n]] builds from H_1 = [1]."""
    if S.mode != RATIONAL or not S.is_square:
        return False
    num, den, bound = S._state
    n = S.nrows
    if den != 1 or bound != 1 or n & (n - 1):
        return False
    H = np.ones((1, 1), dtype=np.int64)
    while len(H) < n:
        H = np.block([[H, H], [H, -H]])
    return np.array_equal(num, H)


def rank_one(block: np.ndarray, p, f: np.ndarray, pivot: np.ndarray) -> np.ndarray:
    """``p * block - outer(f, pivot)``: each row of ``block`` times ``p`` (a
    scalar, or a column with one factor per row) minus its entry of ``f``
    times the pivot row."""
    return block * p - np.outer(f, pivot)


# The first prime of the exact elimination: the largest below 2**20, so that
# a product of two residues is below 2**40 and three digits pack below 2**60.
_PRIME = 1048573

def _primes() -> Iterator[int]:
    """``_PRIME`` and then the odd primes below it in descending order,
    each found by trial division when it is asked for."""
    yield _PRIME
    for q in range(_PRIME - 2, 2, -2):
        if all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _profile_mod_prime(num: np.ndarray, p: int) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """The column rank profile of an integer array modulo the prime p, by
    Gauss-Jordan in int64 on ``[num mod p | I]``: columns are taken in
    order, each pivots on its first nonzero residue at or below the rows
    already pivoted, and a column without one is skipped.  Returns the
    pivot columns P, their pivot rows R in ascending order and the inverse
    of the block ``num[R, P]`` mod p.  Each pivot row is its input row
    plus multiples of earlier pivot rows, so the right block's pivot rows
    are zero outside the columns R, which hold the inverse.  A pivot row is
    zero left of its pivot column, and the update skips those columns."""
    m, n = num.shape
    aug = np.hstack([(num % p).astype(np.int64), np.identity(m, dtype=np.int64)])
    pivots: List[int] = []
    for c in range(n):
        r = len(pivots)
        nonzero = np.flatnonzero(aug[r:, c])
        if not len(nonzero):
            continue
        k = r + int(nonzero[0])
        if k != r:
            aug[[r, k]] = aug[[k, r]]
        aug[r, c:] = aug[r, c:] * pow(int(aug[r, c]), -1, p) % p
        f = aug[:, c].copy()
        f[r] = 0
        aug[:, c:] = (aug[:, c:] - np.outer(f, aug[r, c:])) % p
        pivots.append(c)
    rows = np.flatnonzero(aug[: len(pivots), n:].any(axis=0))
    return pivots, rows, aug[: len(pivots), n + rows]


def _reconstructed_denominator(residue: int, modulus: int, limit: int) -> Optional[int]:
    """The denominator b of the fraction a/b, |a| <= limit and
    0 < b <= limit, with a = b * residue mod ``modulus``, or None when the
    search finds none: the extended Euclidean algorithm on ``modulus`` and
    ``residue``, stopped at the first remainder at most ``limit`` (P. S.
    Wang, "A p-adic algorithm for univariate partial fractions", SYMSAC
    1981).  With 2 * limit**2 < modulus there is at most one such fraction."""
    r0, r1, t0, t1 = modulus, residue, 0, 1
    while r1 > limit:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if abs(t1) <= limit else None


def _lifted_inverse(
    num: np.ndarray, inverse_mod_p: np.ndarray, bound: int, p: int
) -> Optional[Tuple[np.ndarray, int]]:
    """(Y, d) with ``num @ Y = d I`` and d > 0, for a square integer array
    whose entries are at most ``bound`` in magnitude and its inverse C
    modulo the prime p, by Dixon's p-adic lifting; None where the result
    fails its bound test.

    With R_0 = I, each step takes the digit X_i = C (R_i mod p) mod p and
    the residual R_{i+1} = (R_i - num X_i) / p, an exact division, with
    |R_i| <= n bound; after k steps X = sum X_i p**i satisfies
    num X = I mod m = p**k.  Each product is one ``integer_product``, with
    the bound n p**2 or n bound p, so float64 while that is below 2**53.
    Three digits pack into one int64 word as they arrive (p**3 < 2**60),
    and the words become Python ints once, by Horner's rule.  k is the
    least with m > 2 H**2 n bound, for the Hadamard bound H on |det num|
    and on every cofactor, so the reduced entries a/b of num^-1,
    |a|, b <= H, are within the reconstruction limit L = isqrt((m - 1) / 2).

    The denominator d starts at 1, and Y is the symmetric residue of d X
    mod m.  Column by column, while an entry of the column of Y exceeds L,
    the first such entry of X is reconstructed as a fraction and d takes
    the lcm with its denominator; the lifting gives up unless d grows and
    stays at most L, as the least common denominator of num^-1 does.
    num Y = d I mod m holds by construction, and each entry of num Y - d I
    is at most n bound max|Y| + d in magnitude, so when that is below m the
    equation is exact: one comparison of integers, and no verification
    product.
    """
    n = len(num)
    squares = integer_product(lambda a: (a * a).sum(axis=1), num, bound=n * bound**2)
    target = 2 * math.prod(squares.tolist()) * n * bound
    k, m = 1, p
    while m <= target:
        k, m = k + 1, m * p
    top = n * bound * p  # bounds num X_i and the residual
    residual = np.identity(n, dtype=np.int64)
    words: List[np.ndarray] = []
    for i in range(k):
        if i:
            step = integer_product(np.matmul, num, digit, bound=top)
            residual = integer_product(lambda r, s: (r - s) // p, residual, step, bound=top)
        digit = integer_product(np.matmul, inverse_mod_p, residual % p, bound=n * p**2) % p
        if i % 3:
            words[-1] += digit * p ** (i % 3)
        else:
            words.append(digit)
    x = words.pop().astype(object)
    while words:
        x = x * p**3 + words.pop()
    limit = math.isqrt((m - 1) // 2)
    d, columns = 1, []
    for j in range(n):
        while True:
            r = x[:, j] * d % m
            out = np.flatnonzero((r > limit) & (r < m - limit))
            if not len(out):
                break
            b = _reconstructed_denominator(int(x[out[0], j]), m, limit)
            grown = math.lcm(d, b) if b else d
            if not d < grown <= limit:
                return None
            d = grown
        columns.append((np.where(r > limit, r - m, r), d))
    # A column taken at an earlier d is the residue at d times d // that d.
    y = np.stack([c * (d // dc) for c, dc in columns], axis=1)
    if n * bound * int(abs(y).max()) + d >= m:
        return None
    return y, d


def _rank_profile(num: np.ndarray, bound: int) -> Tuple[List[int], np.ndarray, int, np.ndarray]:
    """(P, Y, d, Z) for an m-by-n integer array ``num`` whose entries are at
    most ``bound`` in magnitude: P is its column rank profile over Q, the
    columns that are not combinations of the columns left of them;
    B Y = d I with d > 0 for the block B = ``num[R, P]`` of some rows R;
    and ``num[:, F] d = num[:, P] Z`` for the other columns F, if any, and
    Z None otherwise.

    Each prime from ``_primes`` in turn gives P, R and B^-1 mod p by
    ``_profile_mod_prime``, so B is nonsingular, and ``_lifted_inverse``
    gives Y and d.  Z = Y ``num[R, F]`` certifies P as the profile over Q
    when it is zero at each pivot column right of its column f and one
    exact product gives ``num[:, P] Z = d num[:, F]``: each f is then a
    combination of the pivot columns left of it.  Over the true profile
    both hold, so a prime fails only where it divides a nonzero minor of
    ``num``, of at most the product of max(1, |row|) over the rows: only
    finitely many fail.
    """
    for p in _primes():
        pivots, rows, inverse_mod_p = _profile_mod_prime(num, p)
        block = num[np.ix_(rows, pivots)]
        lifted = _lifted_inverse(block, inverse_mod_p, bound, p) if pivots else (block, 1)
        if lifted is None:
            continue
        y, d = lifted
        free = sorted(set(range(num.shape[1])) - set(pivots))
        if not free:
            return pivots, y, d, None
        top = len(pivots) * int(abs(y).max(initial=0)) * bound
        z = integer_product(np.matmul, y, num[np.ix_(rows, free)], bound=top)
        if np.count_nonzero(z[np.array(pivots)[:, None] > np.array(free)]):
            continue
        combined = integer_product(np.matmul, num[:, pivots], z, bound=len(pivots) * bound * top)
        if np.array_equal(combined, integer_product(np.multiply, num[:, free], d, bound=bound * d)):
            return pivots, y, d, z
    raise ArithmeticError("no prime below 2**20 decides the elimination")


def integer_kernel(A: np.ndarray) -> Optional[np.ndarray]:
    """The primitive integer kernel vector k of an (n-1)-by-n integer array
    of rank n - 1, as an ``object`` array of Python ints, or None when its
    rank is lower: ``_rank_profile`` leaves one column f out of the profile
    P, and k holds d at f and -Z at P, so A k = d A[:, f] - A[:, P] Z = 0,
    over the gcd of its entries.  Z is zero at the pivot columns right of
    f, so the positive entry at f is k's last nonzero entry."""
    bound = int(abs(A).max(initial=0))
    pivots, _, d, z = _rank_profile(integer_array(A, bound), bound)
    if len(pivots) != A.shape[1] - 1:
        return None
    k = np.full(A.shape[1], d, dtype=object)
    k[pivots] = -z[:, 0]
    return k // math.gcd(*k.tolist())


def _orthogonal_row_norms(num: np.ndarray, bound: int) -> Optional[List[int]]:
    """The diagonal of the Gram matrix ``num num^T`` of a square integer
    array whose entries are at most ``bound`` in magnitude, when the Gram
    matrix is diagonal with no zero on its diagonal, and None otherwise.

    Row 0 of the Gram matrix comes first, O(n^2): unless its one nonzero
    entry is its diagonal entry (which is nonzero unless row 0 is zero, and
    then all of it is), it refuses before the O(n^3) full product."""
    n = len(num)
    bound = n * bound**2
    first = integer_product(np.matmul, num, num[0], bound=bound)
    if np.count_nonzero(first) != 1:
        return None
    gram = integer_product(np.matmul, num, num.T, bound=bound)
    g = np.diagonal(gram).tolist()
    return g if all(g) and np.count_nonzero(gram) == n else None


def inverse(S: Matrix) -> Matrix:
    """Exact inverse in rational mode, Gauss-Jordan inverse in complex mode.

    In rational mode S = N / d.  When the Gram matrix G = N N^T is diagonal
    with no zero on its diagonal g, S^{-1} = d N^T diag(1/g): ``N^T`` with
    its columns scaled by the vector that ``from_pairs`` builds of the
    pairs d / g_j; ``_orthogonal_row_norms`` decides that from row 0 of G
    and then all of G, each one ``integer_product``, in float64 tiles while
    its bound is below 2**53.  Otherwise ``_rank_profile`` eliminates N in
    a prime field and certifies its rank profile.  At full rank it gives Y and D > 0 with
    N Y = D I by p-adic lifting, and S^{-1} = d Y / D, the same canonical
    result as the closed form; below full rank the first column without a
    pivot is named.  A zero row takes the elimination.  Complex mode keeps
    Gauss-Jordan: a floating-point Gram test would send the DFT to a closed
    form that rounds differently, and its inverse would change bit for bit.
    It pivots ``[S | I]`` in place on the first row of largest modulus,
    divides the pivot row entry by entry with Python's complex quotient
    (numpy's rounds differently), and subtracts one rank-1 product, built
    as ``_complex_product`` builds it by broadcasting the factor column
    over the pivot row, from each other row whose factor is nonzero:
    subtracting 0 * p could turn -0.0 into 0.0.  The whole elimination runs
    under one ``np.errstate``.  Either way a singular matrix raises
    ``SingularMatrixError`` naming the first column without a pivot, in
    rational mode the first that is a combination of the columns left of
    it.  In complex mode a pivot whose modulus overflows, or whose quotient
    by itself is not finite because Python's quotient overflows inside (as
    for 8.99e307 + 8.99e307j), raises ``ValueError``.
    """
    if not S.is_square:
        raise ValueError("only square matrices are invertible")
    n = S.nrows
    if S.mode == RATIONAL:
        form = S.array_form()
        g = _orthogonal_row_norms(form.num, form.bound)
        if g is not None:
            # S^-1 = d N^T diag(1/g): column j of N^T times d / g_j, g_j > 0.
            d = form.den
            scale = [(d // math.gcd(d, v), v // math.gcd(d, v)) for v in g]
            return Matrix._of_values(form.num.T, RATIONAL).scale_columns(
                Vector.from_pairs(scale, (n,), RATIONAL)
            )
        pivots, y, d, _ = _rank_profile(form.num, form.bound)
        if len(pivots) < n:
            raise SingularMatrixError(f"no pivot in column {min(set(range(n)) - set(pivots)) + 1}")
        return Matrix._of_values(y * form.den, RATIONAL, d)
    aug = np.hstack([S.array_form(), np.identity(n)])
    with np.errstate(over="ignore", invalid="ignore"):
        for col in range(n):
            moduli = _moduli(aug[col:, col])
            best = int(moduli.argmax())
            if moduli[best] == 0:
                raise SingularMatrixError(f"no pivot in column {col + 1}")
            if moduli[best] == math.inf:
                raise ValueError(
                    f"the pivot modulus in column {col + 1} exceeds the largest float"
                )
            aug[[col, col + best]] = aug[[col + best, col]]
            row = aug[col].tolist()
            aug[col] = [v / row[col] for v in row]
            if not np.isfinite(aug[col, col]):
                raise ValueError(f"the pivot in column {col + 1} overflows complex division")
            rows = np.flatnonzero((aug[:, col] != 0) & (np.arange(n) != col))
            aug[rows] -= _complex_product(np.multiply, aug[rows, col][:, None], aug[col])
    return Matrix._of_values(aug[:, n:].copy(), COMPLEX)


def p_norm(x: Vector, p: Union[int, float]) -> float:
    """Standard p-norm for p in [1, inf]; the inf-norm is the max modulus."""
    if p == math.inf:
        return float(inf_norm(x))
    if not p >= 1:
        raise ValueError(f"p-norms require p >= 1, got {p}")
    mags = [abs(v) for v in x.to_complex().array_form().tolist()]
    return sum(m**p for m in mags) ** (1.0 / p)


def inf_norm(x: Vector) -> Union[Fraction, float]:
    """Infinity norm: exact in rational mode, the largest modulus in complex mode."""
    if x.mode == RATIONAL:
        return Fraction(x._state.bound, x._state.den)
    return float(_moduli(x._state).max())


def has_unit_inf_norm(x: Vector, tol: Tolerance = Tolerance()) -> bool:
    """Whether the infinity norm of x is 1: exactly in rational mode, within
    eps in complex mode."""
    if x.mode == RATIONAL:
        return inf_norm(x) == 1
    return abs(inf_norm(x) - 1.0) <= tol.eps


def row_inf_norms(A: Matrix) -> List[Union[Fraction, float]]:
    """``inf_norm`` of each row of A, read off the state."""
    if A.mode == RATIONAL:
        return [Fraction(v, A._den) for v in abs(A._values).max(axis=1).tolist()]
    return _moduli(A._state).max(axis=1).tolist()


def _moduli(values: np.ndarray) -> np.ndarray:
    """Each modulus rounded as Python's ``abs`` rounds it; ``np.abs`` need not.
    A modulus beyond the largest float is inf."""
    with np.errstate(over="ignore"):
        return np.hypot(values.real, values.imag)


def support(A: _Array, tol: Tolerance = Tolerance()) -> np.ndarray:
    """Boolean array of the nonzero entries of A: exact in rational mode,
    modulus above eps in complex mode.  ``Tolerance(0)`` is exact in both."""
    if A.mode == RATIONAL:
        return A._state.num != 0
    return _moduli(A._state) > tol.eps


def is_entrywise_nonneg(A: _Array, tol: Tolerance = Tolerance()) -> bool:
    """Entrywise nonnegativity of a vector or matrix; complex entries must be
    (nearly) real."""
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

    Reshapes z row-major into an m-by-n matrix Z; a factorization exists iff
    Z = x y^T has rank at most 1 (Van Loan, "The ubiquitous Kronecker
    product", 2000).  x is the column of Z through its first nonzero entry
    p, and y is p's row over p, so y has first nonzero entry 1.  In rational
    mode z factors iff ``kron_vec(x, y) == z``; in complex mode iff the
    residual Z - x y^T stays within the tolerance.  Returns None when no
    factorization exists.
    """
    if z.dim != m * n:
        raise ValueError(f"dimension mismatch: {z.dim} != {m} * {n}")
    Z = z._values.reshape(m, n)
    if z.mode == RATIONAL:
        nonzero = Z != 0
    else:
        scale = inf_norm(z)
        if scale == math.inf:
            raise OverflowError("absolute value too large")
        thresh = tol.eps * max(scale, 1.0)
        nonzero = _moduli(Z) > thresh
    if not nonzero.any():
        # z = 0 reshapes to the zero matrix (rank 0); any y works with x = 0.
        return basis_vector(m, 1, z.mode).scale(0), basis_vector(n, 1, z.mode)
    i0, j0 = divmod(int(np.flatnonzero(nonzero)[0]), n)
    col, row = Z[:, j0], Z[i0]
    if z.mode == RATIONAL:
        p = int(Z[i0, j0])
        x = Vector._of_values(col, RATIONAL, z._den)
        y = Vector._of_values(row if p > 0 else -row, RATIONAL, abs(p))
        return (x, y) if kron_vec(x, y) == z else None
    # Python's complex division, which numpy's need not match.
    p = complex(Z[i0, j0])
    y = np.array([v / p for v in row.tolist()], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _moduli(Z - _complex_product(np.outer, col, y))
    if (residual > thresh).any():
        return None
    return Vector._of_values(col, COMPLEX), Vector._of_values(y, COMPLEX)
