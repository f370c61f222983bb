"""Differential tests: ``scale`` as a product formed by ``_product``
against the formula it replaced, which multiplied the state by the coerced
scalar in a branch of its own per mode, and ``kron_factor``'s zero case,
which ``scale`` now builds.

``scale(alpha)`` is the broadcast product of the array with the one-entry
vector of alpha.  In rational mode the numerators meet alpha's numerator
through ``integer_product`` (int64 or Python ints as the bound decides) over
the product of the denominators; in complex mode each product is formed
from real and imaginary parts.  So every result must equal the old
formula's bit for bit: the same ``array_form()`` (dtype, denominator and
bound too) and, in complex mode, the same sign bit on both parts.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import linalg
from perronkron.linalg import COMPLEX, RATIONAL, Matrix, Vector, kron_factor
from test_kron_kernel import PARTS, assert_same_bits, complex_entry


def oracle_scale(A, alpha):
    """``A.scale(alpha)`` as its own per-mode formula computed it."""
    a = linalg._coerce(alpha, A.mode)
    state = A.array_form()
    if A.mode == COMPLEX:
        with np.errstate(over="ignore", invalid="ignore"):
            values = linalg._complex_product(np.multiply, state, a)
        return type(A)._of_values(values, COMPLEX)
    num = linalg.integer_product(
        np.multiply, state.num, a.numerator, bound=state.bound * abs(a.numerator)
    )
    return type(A)._of_values(num, RATIONAL, state.den * a.denominator)


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_scales_alike(A, alpha):
    got = _outcome(lambda: A.scale(alpha))
    want = _outcome(lambda: oracle_scale(A, alpha))
    if isinstance(want, str):
        assert got == want
        return
    assert type(got) is type(A)
    assert_same_bits(got, want)


# Rational operands: int64 numerators whose product with alpha crosses
# 2**62, Python-int numerators that alpha reduces back into int64, and
# zero arrays.
RATIONAL_ARRAYS = [
    Vector.rational([1, -2, 3]),
    Vector.rational([2**31, -(2**31) + 1]),
    Vector.rational([Fraction(2**40 + 1, 3), Fraction(-(2**39), 5)]),
    Vector.rational([2**70, -(2**71), 0]),
    Vector.rational([Fraction(2**65, 3), Fraction(-(2**64), 7)]),
    Vector.rational([0, 0]),
    Matrix.rational([[0]]),
    Matrix.rational([[Fraction(1, 2**70), 0], [3, -4]]),
    Matrix.rational([[2**61, -(2**61)], [Fraction(2**61, 3), 1]]),
    Matrix.rational([[0, 0, 0], [0, 0, 0]]),
]
# alpha = 0, negative, a numerator at or past 2**62, 1/2**70, and the
# scalars that undo the Python-int operands above.
RATIONAL_SCALARS = [
    0, 1, -1, 7, -5, Fraction(-3, 4), "3/7", 2**31, 2**62, -(2**62), 2**80 + 1,
    Fraction(2**63 + 1, 5), Fraction(1, 2**70), Fraction(3, 2**64), Fraction(21, 2**65),
    Fraction(-1, 2**70),
]


@pytest.mark.parametrize("A", RATIONAL_ARRAYS, ids=lambda A: repr(A)[:48])
@pytest.mark.parametrize("alpha", RATIONAL_SCALARS, ids=str)
def test_rational_scale_matches_the_old_formula(A, alpha):
    assert_scales_alike(A, alpha)


def test_the_rational_cases_cross_both_ways():
    """The cases above do what their comments claim: some products leave
    int64, and some Python-int operands come back into it."""
    dtypes = {
        (A.array_form().num.dtype, A.scale(alpha).array_form().num.dtype)
        for A in RATIONAL_ARRAYS
        for alpha in RATIONAL_SCALARS
    }
    assert (np.dtype(np.int64), np.dtype(object)) in dtypes
    assert (np.dtype(object), np.dtype(np.int64)) in dtypes


def _complex_arrays():
    rng = random.Random(30)
    yield Vector.complex_([complex(p, q) for p in PARTS[:4] for q in PARTS[:4]])
    yield Vector.complex_([0j])
    yield Vector.complex_([complex(-0.0, -0.0), complex(0.0, -0.0)])
    for shape in ((1, 1), (3, 2), (2, 5)):
        m, n = shape
        yield Matrix.complex_([[complex_entry(rng) for _ in range(n)] for _ in range(m)])
    yield Matrix.complex_([[1e300, -1e300j], [1.0, 0.0]])


# alpha = -0.0 and signed zeros, subnormals, ordinary values, and values
# whose products with the large entries above overflow.
COMPLEX_SCALARS = [
    0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    5e-324, complex(-5e-324, 2.5e-310), 1, -1, 1.5j, complex(-2.25, 3.0),
    Fraction(1, 3), 1e10, complex(1e10, -1e10),
]


@pytest.mark.parametrize("A", list(_complex_arrays()), ids=lambda A: repr(A)[:48])
@pytest.mark.parametrize("alpha", COMPLEX_SCALARS, ids=str)
def test_complex_scale_matches_the_old_formula_bit_for_bit(A, alpha):
    assert_scales_alike(A, alpha)


def test_an_overflowing_complex_scale_is_refused_as_before():
    A = Matrix.complex_([[1e300, 1.0]])
    with pytest.raises(ValueError) as info:
        A.scale(1e10)
    assert str(info.value) == "complex entries must be finite, got (inf+0j)"
    assert _outcome(lambda: oracle_scale(A, 1e10)) == f"ValueError: {info.value}"


@pytest.mark.parametrize("mode, alpha, error", [
    (RATIONAL, 0.5, TypeError),
    (RATIONAL, "x", ValueError),
    (COMPLEX, float("inf"), ValueError),
    (COMPLEX, complex(0.0, float("nan")), ValueError),
])
def test_a_bad_scalar_is_refused_as_before(mode, alpha, error):
    A = Vector([1, 2], mode)
    with pytest.raises(error) as got:
        A.scale(alpha)
    with pytest.raises(error) as want:
        oracle_scale(A, alpha)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("mode", [RATIONAL, COMPLEX])
def test_scale_coerces_alpha_once(mode, monkeypatch):
    seen = []

    def counting(value, mode):
        seen.append(value)
        return coerce(value, mode)

    coerce = linalg._coerce
    A = Matrix.identity(3, mode)
    monkeypatch.setattr(linalg, "_coerce", counting)
    A.scale(Fraction(2, 3))
    assert seen == [Fraction(2, 3)]


@pytest.mark.parametrize("mode", [RATIONAL, COMPLEX])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 3), (3, 1), (2, 3)])
def test_kron_factor_of_zero_is_zero_times_e1(mode, m, n):
    """z = 0 factors as 0 (x) e_1, which ``kron_factor`` builds as
    ``basis_vector(m, 1).scale(0)`` and ``basis_vector(n, 1)``: the same
    arrays as those entries give, signed zeros included."""
    x, y = kron_factor(Vector([0] * (m * n), mode), m, n)
    assert_same_bits(x, Vector([0] * m, mode))
    assert_same_bits(y, Vector([1] + [0] * (n - 1), mode))
