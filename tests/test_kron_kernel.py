"""Differential tests: the broadcast Kronecker kernel of ``kron`` and
``kron_vec`` against ``np.kron``, the reference it replaced, and complex
``kron`` against the blockwise oracle of Python ``complex`` products.

``linalg._kron`` forms a (x) b as one broadcast product, reshaped.  Each
entry is still one product of two entries: through ``integer_product`` in
rational mode (int64, or Python ints when the bound says so) and through
``_complex_product``'s real and imaginary parts in complex mode.  So every
result must equal the ``np.kron`` one bit for bit: the same ``array_form()``
(dtype, denominator and bound too) and, in complex mode, the same sign bit
on both parts, so a signed zero or a subnormal that differs fails.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import linalg
from perronkron.linalg import COMPLEX, RATIONAL, Matrix, Vector, kron, kron_vec
from test_linalg import blockwise_kron

# m x n (x) p x q: 1 x 1, 1 x n and n x 1 on either side, and all four sizes
# different.
MATRIX_SHAPES = [
    ((1, 1), (1, 1)),
    ((1, 1), (2, 3)),
    ((3, 2), (1, 1)),
    ((1, 4), (3, 1)),
    ((4, 1), (1, 3)),
    ((1, 3), (1, 2)),
    ((3, 1), (2, 1)),
    ((2, 3), (4, 5)),
    ((5, 4), (3, 2)),
]
VECTOR_LENGTHS = [(1, 1), (1, 4), (4, 1), (3, 5)]
# Signed zeros, the smallest subnormal, subnormals and products that underflow
# to one or to a signed zero, next to ordinary values.
PARTS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-160, 1e-170, 1.5, -2.25, 3.0]


def rational_entry(rng, big):
    """A fraction whose numerator needs about 40 bits when ``big``."""
    top = 2**40 if big else 5
    return Fraction(rng.randint(-top, top), rng.randint(1, 4))


def complex_entry(rng):
    return complex(rng.choice(PARTS), rng.choice(PARTS))


def matrix(rng, shape, mode, big=False):
    m, n = shape
    if mode == RATIONAL:
        return Matrix.rational([[rational_entry(rng, big) for _ in range(n)] for _ in range(m)])
    return Matrix.complex_([[complex_entry(rng) for _ in range(n)] for _ in range(m)])


def vector(rng, length, mode, big=False):
    if mode == RATIONAL:
        return Vector.rational([rational_entry(rng, big) for _ in range(length)])
    return Vector.complex_([complex_entry(rng) for _ in range(length)])


def assert_same_bits(got, want):
    g, w = got.array_form(), want.array_form()
    assert got.mode == want.mode
    if got.mode == RATIONAL:
        assert (g.num.dtype, g.num.shape, g.den, g.bound) == (
            w.num.dtype, w.num.shape, w.den, w.bound
        )
        assert np.array_equal(g.num, w.num)
        return
    assert g.shape == w.shape
    for part in (lambda v: v.real, lambda v: v.imag):
        assert np.array_equal(part(g), part(w))
        assert np.array_equal(np.signbit(part(g)), np.signbit(part(w)))


def np_kron(cls, a, b):
    """The product the library formed before, with ``np.kron`` as kernel."""
    return linalg._product(cls, a, b, np.kron)


@pytest.mark.parametrize("shapes", MATRIX_SHAPES, ids=str)
@pytest.mark.parametrize("mode, big", [(RATIONAL, False), (RATIONAL, True), (COMPLEX, False)])
def test_kron_matches_np_kron_bit_for_bit(shapes, mode, big):
    rng = random.Random(f"{shapes}{mode}{big}")
    for _ in range(5):
        A, B = (matrix(rng, shape, mode, big) for shape in shapes)
        assert_same_bits(kron(A, B), np_kron(Matrix, A, B))


@pytest.mark.parametrize("lengths", VECTOR_LENGTHS, ids=str)
@pytest.mark.parametrize("mode, big", [(RATIONAL, False), (RATIONAL, True), (COMPLEX, False)])
def test_kron_vec_matches_np_kron_bit_for_bit(lengths, mode, big):
    rng = random.Random(f"{lengths}{mode}{big}")
    for _ in range(5):
        x, y = (vector(rng, length, mode, big) for length in lengths)
        assert_same_bits(kron_vec(x, y), np_kron(Vector, x, y))


def test_big_factors_take_the_python_int_product():
    """Each factor is int64, but the bound of their product is not, so the
    product runs on Python ints; factors already past int64 do too."""
    rng = random.Random(3)
    A, B = matrix(rng, (2, 3), RATIONAL, True), matrix(rng, (3, 2), RATIONAL, True)
    a, b = A.array_form(), B.array_form()
    assert a.num.dtype == b.num.dtype == np.int64
    assert a.bound * b.bound >= linalg._INT64_SAFE
    assert kron(A, B).array_form().num.dtype == object
    huge = Matrix.rational([[2**70 + 1, -(2**65)], [3, 2**63]])
    assert huge.array_form().num.dtype == object
    for left, right in [(huge, A), (A, huge), (huge, huge)]:
        product = kron(left, right)
        assert product.array_form().num.dtype == object
        assert_same_bits(product, np_kron(Matrix, left, right))


@pytest.mark.parametrize("shapes", MATRIX_SHAPES, ids=str)
def test_complex_kron_matches_blockwise_oracle(shapes):
    """Every entry of a complex ``kron`` is the Python ``complex`` product of
    its two factors, bit for bit."""
    rng = random.Random(f"blockwise{shapes}")
    for _ in range(5):
        A, B = (matrix(rng, shape, COMPLEX) for shape in shapes)
        assert_same_bits(kron(A, B), blockwise_kron(A, B))


@pytest.mark.parametrize("lengths", VECTOR_LENGTHS, ids=str)
def test_complex_kron_vec_matches_entry_products(lengths):
    rng = random.Random(f"entrywise{lengths}")
    for _ in range(5):
        x, y = (vector(rng, length, COMPLEX) for length in lengths)
        oracle = Vector.complex_([u * v for u in x.entries for v in y.entries])
        assert_same_bits(kron_vec(x, y), oracle)


def test_complex_kron_hands_the_kernel_real_parts_only(monkeypatch):
    """A complex product is four real products, one for each pair of real and
    imaginary parts, so none reaches numpy's complex multiply."""
    dtypes = []
    kernel = linalg._kron

    def spy(a, b):
        dtypes.append((a.dtype, b.dtype))
        return kernel(a, b)

    monkeypatch.setattr(linalg, "_kron", spy)
    rng = random.Random(11)
    kron(matrix(rng, (2, 3), COMPLEX), matrix(rng, (3, 2), COMPLEX))
    kron_vec(vector(rng, 3, COMPLEX), vector(rng, 2, COMPLEX))
    assert dtypes == [(np.dtype(float), np.dtype(float))] * 8
