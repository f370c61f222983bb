"""The integer form is the only state of a rational Vector or Matrix.

Every rational operation is compared with a ``Fraction`` oracle computed
from ``entries``, and every result must be in canonical form.  Inputs come
at three sizes: small values, numerators near 2**40 (whose products need
Python ints), and integers near the int64 edge (whose sums and products
cross 2**62).  Complex results must equal Python's complex arithmetic on
``entries`` exactly.
"""
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from perronkron import families, linalg
from perronkron.linalg import (
    RATIONAL,
    Matrix,
    ModeMismatchError,
    Vector,
    diag_embed,
    inf_norm,
    integer_array,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_vec,
    vector_is_nonneg,
)

LIMIT = 2**62


def _small(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _near_2_40(rng):
    return Fraction(rng.choice([-1, 1]) * (2**40 + rng.randrange(2**20)), rng.randint(1, 9))


def _near_int64_edge(rng):
    # Sums of two such integers cross 2**62; so do products of any two
    # above 2**31.
    magnitude = rng.choice([2**61 - rng.randrange(2**10), 2**31 + rng.randrange(2**10), 0])
    return Fraction(rng.choice([-1, 1]) * magnitude)


SIZES = {"small": _small, "near_2_40": _near_2_40, "int64_edge": _near_int64_edge}


def _canonical(a):
    """Assert the invariant of a rational array's state; return the array."""
    form = a.array_form()
    num = form.num
    values = [int(v) for v in num.ravel().tolist()]
    assert form.den > 0
    assert math.gcd(*values, form.den) == 1
    assert form.bound == max(abs(v) for v in values)
    assert (num.dtype == np.int64) == (form.bound < LIMIT)
    assert num.dtype in (np.int64, object)
    if form.bound == 0:
        assert form.den == 1
    return a


def _fractions(a):
    """The entries of a rational array, recomputed from its state."""
    form = a.array_form()
    flat = [Fraction(v, form.den) for v in form.num.ravel().tolist()]
    if form.num.ndim == 1:
        return flat
    n = form.num.shape[1]
    return [flat[i : i + n] for i in range(0, len(flat), n)]


def _rational(a, expected):
    """``a`` is canonical, and its view and its state both equal ``expected``."""
    _canonical(a)
    assert a.entries == expected
    assert _fractions(a) == expected
    rows = a.entries if isinstance(a, Matrix) else [a.entries]
    assert all(type(v) is Fraction for row in rows for v in row)


def _matrix(rng, draw, m, n):
    return Matrix.rational([[draw(rng) for _ in range(n)] for _ in range(m)])


def _vector(rng, draw, n):
    return Vector.rational([draw(rng) for _ in range(n)])


def _cases(size, count=6):
    rng = random.Random(f"{size}")
    draw = SIZES[size]
    for _ in range(count):
        m, k, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        yield rng, draw, m, k, n


@pytest.mark.parametrize("size", SIZES)
def test_inputs_are_canonical(size):
    for rng, draw, m, k, n in _cases(size):
        A = _matrix(rng, draw, m, n)
        x = _vector(rng, draw, n)
        _canonical(A)
        _canonical(x)
        assert _fractions(A) == A.entries
        assert _fractions(x) == x.entries


@pytest.mark.parametrize("size", SIZES)
def test_sum_difference_and_scale(size):
    for rng, draw, m, k, n in _cases(size):
        A, B = _matrix(rng, draw, m, n), _matrix(rng, draw, m, n)
        x, y = _vector(rng, draw, n), _vector(rng, draw, n)
        _rational(A + B, [[a + b for a, b in zip(r, s)] for r, s in zip(A.entries, B.entries)])
        _rational(A - B, [[a - b for a, b in zip(r, s)] for r, s in zip(A.entries, B.entries)])
        _rational(A - A, [[Fraction(0)] * n for _ in range(m)])
        _rational(x + y, [a + b for a, b in zip(x.entries, y.entries)])
        for alpha in (draw(rng), Fraction(0), Fraction(-1), Fraction(3, 2**64 + 1)):
            _rational(A.scale(alpha), [[alpha * a for a in r] for r in A.entries])
            _rational(x.scale(alpha), [alpha * a for a in x.entries])


@pytest.mark.parametrize("size", SIZES)
def test_products(size):
    for rng, draw, m, k, n in _cases(size):
        A, B = _matrix(rng, draw, m, k), _matrix(rng, draw, k, n)
        x, v = _vector(rng, draw, k), _vector(rng, draw, n)
        _rational(
            A @ B,
            [[sum(A[i, t] * B[t, j] for t in range(k)) for j in range(n)] for i in range(m)],
        )
        _rational(A @ x, [sum(A[i, t] * x[t] for t in range(k)) for i in range(m)])
        _rational(A.scale_columns(x), [[a * c for a, c in zip(r, x.entries)] for r in A.entries])
        _rational(
            kron(A, B),
            [[a * b for a in ra for b in rb] for ra in A.entries for rb in B.entries],
        )
        _rational(kron_vec(x, v), [a * b for a in x.entries for b in v.entries])


def inf_norm_exact(x: Vector) -> Fraction:
    """Exact infinity norm; rational mode only."""
    if x.mode != RATIONAL:
        raise ModeMismatchError("exact norms require rational mode")
    return inf_norm(x)


@pytest.mark.parametrize("size", SIZES)
def test_structural_operations(size):
    for rng, draw, m, k, n in _cases(size):
        A = _matrix(rng, draw, m, n)
        x = _vector(rng, draw, n)
        _rational(A.transpose(), [list(c) for c in zip(*A.entries)])
        for i in range(m):
            _rational(A.row(i), A.entries[i])
        for j in range(n):
            _rational(A.col(j), [r[j] for r in A.entries])
        _rational(
            diag_embed(x),
            [[x[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)],
        )
        assert inf_norm_exact(x) == max(abs(v) for v in x.entries)
        assert type(inf_norm_exact(x)) is Fraction
        assert A.to_complex().entries == [[complex(v) for v in r] for r in A.entries]


@pytest.mark.parametrize("size", SIZES)
def test_signs(size):
    for rng, draw, m, k, n in _cases(size, 12):
        A = _matrix(rng, draw, m, n)
        x = _vector(rng, draw, n)
        for B in (A, A.scale(-1), A.scale_columns(x) @ A.transpose()):
            assert is_entrywise_nonneg(B) == all(v >= 0 for r in B.entries for v in r)
        for sign in (1, -1):
            for z in (x, x.scale(sign)):
                assert vector_is_nonneg(z, sign=sign) == all(sign * v >= 0 for v in z)


@pytest.mark.parametrize("size", SIZES)
def test_inverse(size):
    for rng, draw, m, k, n in _cases(size, 10):
        A = _matrix(rng, draw, n, n)
        try:
            A_inv = inverse(A)
        except linalg.SingularMatrixError:
            continue
        _canonical(A_inv)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        product = [
            [sum(A[i, t] * A_inv[t, j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == identity


def test_int64_edge_of_the_state():
    _canonical(Vector.rational([2**62 - 1, 0]))
    assert Vector.rational([2**62 - 1]).array_form().num.dtype == np.int64
    assert Vector.rational([2**62]).array_form().num.dtype == object
    # An object-path result that reduces below the edge comes back as int64.
    big = Vector.rational([2**70, 2**71])
    small = big.scale(Fraction(1, 2**70))
    assert small.array_form().num.dtype == np.int64
    _rational(small, [Fraction(1), Fraction(2)])
    # int64 operands whose sum crosses the edge.
    edge = Vector.rational([2**61 + 1])
    _rational(edge + edge, [Fraction(2**62 + 2)])


@pytest.mark.parametrize("make", [
    list,
    lambda values: np.array(values, dtype=np.int64),
    lambda values: np.array(values, dtype=object),
], ids=["list", "int64", "object"])
def test_integer_array_is_int64_below_the_edge_and_python_ints_from_it(make):
    values = [0, -3, LIMIT - 1]
    for bound, dtype in ((LIMIT - 1, np.int64), (LIMIT, object)):
        got = integer_array(make(values), bound)
        assert got.dtype == dtype
        assert got.tolist() == values
        assert all(type(v) is int for v in got.tolist())


def test_integer_array_returns_an_array_whose_dtype_fits_as_it_is():
    small = np.array([[1, -2], [3, LIMIT - 1]], dtype=np.int64)
    big = np.array([1, 2**70], dtype=object)
    assert integer_array(small, LIMIT - 1) is small
    assert integer_array(big, 2**70) is big
    assert integer_array(small, LIMIT) is not small


def test_zero_arrays_are_zero_over_one():
    sum_ = Vector.rational([0, 0]) + Vector.rational([Fraction(1, 2**70), 0])
    _rational(sum_, [Fraction(1, 2**70), Fraction(0)])
    assert sum_.array_form().den == 2**70
    zero = Vector.rational([Fraction(1, 2**70), 0]).scale(0)
    _rational(zero, [Fraction(0), Fraction(0)])
    assert zero.array_form().den == 1
    _rational(Vector.rational([0, 0]).scale(2**70), [Fraction(0), Fraction(0)])
    A = Matrix.rational([[Fraction(1, 3), 0], [0, Fraction(2**80, 7)]])
    _rational(A - A, [[Fraction(0)] * 2] * 2)
    assert (A - A).array_form().den == 1


def test_equal_values_by_different_routes_are_equal_keys():
    for depth in (2, 3, 4):
        H = families.hadamard_like(depth)
        n = H.nrows
        assert inverse(H) == H.scale(Fraction(1, n))
        assert hash(inverse(H)) == hash(H.scale(Fraction(1, n)))
    S, T = families.counterexample_factors()
    pairs = [(S, T), (T, S), (T, T), (families.hadamard_like(3), T)]
    for P, Q in pairs:
        left, right = kron(inverse(P), inverse(Q)), inverse(kron(P, Q))
        assert left == right and hash(left) == hash(right)
        assert {left: "key"}[right] == "key"
    x = Vector.rational([Fraction(1, 2), 1])
    y = Vector.rational([1, 2]).scale(Fraction(1, 2))
    assert x == y and hash(x) == hash(y)
    assert x != Vector.rational([Fraction(1, 2), 2])
    assert x != x.to_complex()
    assert Matrix.rational([[1, 2]]) != Vector.rational([1, 2])


def test_entries_view_is_built_once_and_arithmetic_never_coerces(monkeypatch):
    rows = [[Fraction(1, 2), 3], [-1, Fraction(5, 7)]]
    A = Matrix.rational(rows)
    assert A.entries is A.entries
    calls = []
    original = linalg._coerce
    monkeypatch.setattr(linalg, "_coerce", lambda v, m: calls.append(v) or original(v, m))
    x = A.row(0)
    results = [A + A, A - A, A @ A, A @ x, A.scale_columns(x), kron(A, A), kron_vec(x, x),
               A.transpose(), A.col(1), diag_embed(x), A.to_complex(), inverse(A), x + x]
    for B in results:
        assert B.entries is B.entries
    assert calls == []
    A.scale(2)
    assert calls == [2]


def _same_state(got, expected):
    a, b = got.array_form(), expected.array_form()
    if got.mode == "rational":
        assert (a.den, a.bound, a.num.dtype) == (b.den, b.bound, b.num.dtype)
        a, b = a.num, b.num
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("mode", ["rational", "complex"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_unit_constructors_match_the_coerced_construction(monkeypatch, mode, n):
    """basis_vector, ones_vector and Matrix.identity build their state
    directly: state, view and hash equal those of coerced input."""
    coerced = {
        "ones": Vector([1] * n, mode),
        "identity": Matrix([[int(i == j) for j in range(n)] for i in range(n)], mode),
    }
    for k in range(1, n + 1):
        coerced[k] = Vector([int(i == k - 1) for i in range(n)], mode)
    calls = []
    monkeypatch.setattr(linalg, "_coerce", lambda v, m: calls.append(v))
    built = {
        "ones": linalg.ones_vector(n, mode),
        "identity": Matrix.identity(n, mode),
        **{k: linalg.basis_vector(n, k, mode) for k in range(1, n + 1)},
    }
    assert calls == []
    monkeypatch.undo()
    for key, expected in coerced.items():
        got = built[key]
        _same_state(got, expected)
        assert got == expected and hash(got) == hash(expected)
        assert got.entries == expected.entries
        flat = [v for row in got.entries for v in (row if key == "identity" else [row])]
        assert {type(v) for v in flat} == {Fraction if mode == "rational" else complex}


def test_unit_constructors_reject_unknown_modes_and_empty_shapes():
    for build in (lambda m: linalg.ones_vector(3, m), lambda m: Matrix.identity(3, m),
                  lambda m: linalg.basis_vector(3, 2, m)):
        with pytest.raises(ValueError, match="unknown scalar mode 'real'"):
            build("real")
    for n in (0, -1):
        with pytest.raises(ValueError, match="vectors must be nonempty"):
            linalg.ones_vector(n)
        with pytest.raises(ValueError, match="matrices must be nonempty"):
            Matrix.identity(n, "complex")
    with pytest.raises(ValueError, match="basis index 1 out of range for dimension 0"):
        linalg.basis_vector(0, 1)


def _complex_matrix(rng, m, n):
    def entry():
        return complex(rng.choice([-1, 1]) * rng.random() * 10 ** rng.randint(-3, 3),
                       rng.choice([-1, 1, 0.0, -0.0]) * rng.random())

    return Matrix.complex_([[entry() for _ in range(n)] for _ in range(m)])


def _same(got, expected):
    """Equal, down to the sign of each zero."""
    assert repr(got) == repr(expected)


def test_complex_results_equal_python_arithmetic():
    rng = random.Random(5)
    for _ in range(30):
        m, n, p, q = (rng.randint(1, 4) for _ in range(4))
        A, B = _complex_matrix(rng, m, n), _complex_matrix(rng, m, n)
        C = _complex_matrix(rng, p, q)
        x, y = _complex_matrix(rng, 1, n).row(0), _complex_matrix(rng, 1, q).row(0)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        _same((A + B).entries, [[a + b for a, b in zip(r, s)] for r, s in zip(A.entries, B.entries)])
        _same((A - B).entries, [[a - b for a, b in zip(r, s)] for r, s in zip(A.entries, B.entries)])
        _same(A.scale(alpha).entries, [[alpha * a for a in r] for r in A.entries])
        _same(x.scale(alpha).entries, [alpha * a for a in x.entries])
        _same(A.scale_columns(x).entries, [[a * c for a, c in zip(r, x.entries)] for r in A.entries])
        _same(kron(A, C).entries, [[a * b for a in ra for b in rb] for ra in A.entries for rb in C.entries])
        _same(kron_vec(x, y).entries, [a * b for a in x.entries for b in y.entries])
        _same(A.transpose().entries, [list(c) for c in zip(*A.entries)])
        _same(diag_embed(x).entries, [[x[i] if i == j else 0j for j in range(n)] for i in range(n)])
    R = _matrix(random.Random(6), _near_2_40, 3, 3)
    _same(R.to_complex().entries, [[complex(v) for v in r] for r in R.entries])


@pytest.mark.parametrize("build", [
    lambda A: A + A,
    lambda A: A - A.scale(-1),
    lambda A: A.scale(10),
    lambda A: A.scale_columns(Vector.complex_([10, 1])),
    lambda A: A @ A,
    lambda A: kron(A, A),
    lambda A: kron_vec(A.row(0), A.row(0)),
])
def test_complex_overflow_raises_the_finite_entries_error_without_warnings(build):
    A = Matrix.complex_([[1e308, 0], [0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^complex entries must be finite, got \(inf"):
            build(A)
