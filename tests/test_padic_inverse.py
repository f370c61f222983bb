"""Differential tests of the rational ``inverse``'s p-adic lifting.

A matrix whose numerator rows are not orthogonal is inverted mod the prime
p = 1048573 and lifted (``linalg._lifted_inverse``).  A singular matrix is
decided by the certified rank profile at the same prime, and a determinant
divisible by p, or a lifted result that fails its bound test, takes the
next prime.  The oracles are the Fraction Gauss-Jordan loop of
``test_bareiss`` and the inverse read off ``test_bareiss.bareiss_eliminate``
on ``[N | I]``, as ``inverse`` formed every dense inverse before the
lifting.  Outcomes compare the whole canonical state (numerator dtype,
denominator, bound and numerators) or the exception.
"""
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from perronkron import linalg
from perronkron.families import hadamard_like
from perronkron.linalg import Matrix, SingularMatrixError, inverse
from test_bareiss import _counting_primes, _oracle_inverse, _random_rows, bareiss_eliminate

P = 1048573


def _bareiss_inverse(S: Matrix) -> Matrix:
    """d / det times the right block of ``[N | I]`` after Bareiss."""
    num, den, _ = S.array_form()
    n = S.nrows
    aug = np.hstack([num, np.identity(n, dtype=int)]).astype(object)
    pivots, det = bareiss_eliminate(aug)
    if pivots[:n] != list(range(n)):
        col = next(c for c, p in enumerate(pivots + [n]) if c != p)
        raise SingularMatrixError(f"no pivot in column {col + 1}")
    return Matrix._of_values(aug[:, n:] * (den if det > 0 else -den), linalg.RATIONAL, abs(det))


def _outcome(invert, S):
    try:
        form = invert(S).array_form()
    except SingularMatrixError as exc:
        return f"SingularMatrixError: {exc}"
    return form.num.dtype, form.den, form.bound, form.num.tolist()


def _workload_rows(rng, n):
    """Entries p/q with |p| <= 9 and 1 <= q <= 9."""
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]


def _not_orthogonal(S):
    form = S.array_form()
    return linalg._orthogonal_row_norms(form.num, form.bound) is None


@pytest.mark.parametrize("n", list(range(1, 17)) + [20, 24, 32, 48, 64])
def test_lifting_matches_both_oracles_on_seeded_matrices(monkeypatch, n):
    rng = random.Random(3300 + n)
    trials = 9 if n <= 16 else 3
    cases = []
    for trial in range(trials):
        if trial % 3 == 0:
            rows = _random_rows(rng, n, n, rng.randint(0, n - 1))
        elif trial % 3 == 1:
            rows = _random_rows(rng, n, n, n)
        else:
            rows = _workload_rows(rng, n)
        cases.append(Matrix.rational(rows))
    expected = [_outcome(_bareiss_inverse, S) for S in cases]
    if n <= 12:
        assert expected == [_outcome(_oracle_inverse, S) for S in cases]
    calls = _counting_primes(monkeypatch)
    assert [_outcome(inverse, S) for S in cases] == expected
    singular = [isinstance(e, str) for e in expected]
    # Every third case is rank deficient; the first prime decides each case
    # whose rows are not orthogonal.
    assert all(singular[::3])
    assert calls == [1] * sum(map(_not_orthogonal, cases))


def _unimodular(rng, n, upper):
    """A triangular integer matrix with a unit diagonal."""
    return np.array(
        [
            [1 if i == j else rng.randint(-3, 3) if (j > i) == upper else 0 for j in range(n)]
            for i in range(n)
        ],
        dtype=object,
    )


def _prime_determinant_cases():
    yield "p", Matrix.rational([[P, 1], [0, 1]])
    rng = random.Random(57)
    for n, det in ((3, P), (6, 2 * P), (8, -(P**2))):
        D = np.identity(n, dtype=object)
        D[n // 2, n // 2] = det
        N = _unimodular(rng, n, True) @ D @ _unimodular(rng, n, False)
        yield f"order-{n}", Matrix.rational([[Fraction(v, 7) for v in row] for row in N.tolist()])


@pytest.mark.parametrize("name, S", list(_prime_determinant_cases()))
def test_determinant_divisible_by_the_prime_takes_the_next_prime(monkeypatch, name, S):
    assert _not_orthogonal(S)
    _, det = bareiss_eliminate(S.array_form().num.astype(object))
    assert det % P == 0
    expected = _outcome(_oracle_inverse, S)
    assert expected == _outcome(_bareiss_inverse, S)
    calls = _counting_primes(monkeypatch)
    assert _outcome(inverse, S) == expected
    assert calls == [2]


def _spy_products(monkeypatch):
    """(bound, result dtype) of each ``integer_product`` call."""
    seen = []
    product = linalg.integer_product

    def spy(op, *operands, bound):
        result = product(op, *operands, bound=bound)
        seen.append((bound, result.dtype))
        return result

    monkeypatch.setattr(linalg, "integer_product", spy)
    return seen


@pytest.mark.parametrize("magnitude, dtype", [
    (2**33, np.dtype(np.int64)),  # n bound p passes 2**53 but not 2**62
    (2**62 + 5, np.dtype(object)),
    (2**80, np.dtype(object)),
])
def test_large_entries_lift_through_integer_product(monkeypatch, magnitude, dtype):
    rng = random.Random(magnitude.bit_length())
    for n in (2, 3, 5, 8):
        values = [magnitude + d for d in range(-40, 41)] + [-magnitude, 0, 1, -7]
        S = Matrix.rational([[rng.choice(values) for _ in range(n)] for _ in range(n)])
        form = S.array_form()
        assert _not_orthogonal(S)
        assert form.num.dtype == (object if magnitude >= 2**62 else np.int64)
        expected = _outcome(_oracle_inverse, S)
        assert not isinstance(expected, str)
        calls = _counting_primes(monkeypatch)
        seen = _spy_products(monkeypatch)
        assert _outcome(inverse, S) == expected
        assert calls == [1]
        # The products num X_i and the residual update both carry n bound p.
        lifting = [kind for bound, kind in seen if bound == n * form.bound * P]
        assert len(lifting) >= 2 and set(lifting) == {dtype}
        monkeypatch.undo()


def test_denominators_near_2_to_70(monkeypatch):
    rng = random.Random(70)
    dens = [2**70 + 1, 2**70 - 3, 2**69 + 7]
    for n in (1, 2, 3, 5):
        S = Matrix.rational(
            [[Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)] for _ in range(n)]
        )
        expected = _outcome(_oracle_inverse, S)
        assert expected == _outcome(_bareiss_inverse, S)
        calls = _counting_primes(monkeypatch)
        assert _outcome(inverse, S) == expected
        assert calls == [1] * _not_orthogonal(S)
        monkeypatch.undo()


def _denominators(rows):
    return math.lcm(*(v.denominator for row in rows for v in row))


def test_column_zero_gives_a_proper_divisor_of_the_denominator(monkeypatch):
    rng = random.Random(22)
    S = Matrix.rational([[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)])
    expected = _oracle_inverse(S)
    column_zero = _denominators([[row[0]] for row in expected.entries])
    d = _denominators(expected.entries)
    assert d % column_zero == 0 and column_zero < d
    assert _not_orthogonal(S)
    reconstructed = []
    reconstruct = linalg._reconstructed_denominator
    monkeypatch.setattr(
        linalg, "_reconstructed_denominator",
        lambda r, m, limit: reconstructed.append(r) or reconstruct(r, m, limit),
    )
    calls = _counting_primes(monkeypatch)
    assert _outcome(inverse, S) == _outcome(lambda _: expected, S)
    assert calls == [1]
    assert len(reconstructed) >= 2


@pytest.mark.parametrize("wrong", [
    pytest.param(lambda b: 1, id="one"),
    pytest.param(lambda b: b + 1, id="off-by-one"),
    pytest.param(lambda b: None, id="none"),
])
def test_a_wrong_reconstruction_takes_the_next_prime(monkeypatch, wrong):
    """The reconstruction goes wrong at the first prime only, where the
    modulus is a power of P; the next prime gives the exact inverse."""
    rng = random.Random(8)
    S = Matrix.rational(_workload_rows(rng, 8))
    assert _not_orthogonal(S)
    expected = _outcome(_oracle_inverse, S)
    reconstruct = linalg._reconstructed_denominator

    def at_first_prime(r, m, limit):
        b = reconstruct(r, m, limit)
        return wrong(b) if m % P == 0 else b

    monkeypatch.setattr(linalg, "_reconstructed_denominator", at_first_prime)
    calls = _counting_primes(monkeypatch)
    assert _outcome(inverse, S) == expected
    assert calls == [2]


def test_reconstruction_finds_each_fraction_within_the_limit():
    rng = random.Random(5)
    for k in (1, 2, 5, 20):
        m = P**k
        limit = math.isqrt((m - 1) // 2)
        for _ in range(50):
            b = rng.randint(1, limit)
            a = rng.randint(-limit, limit)
            if math.gcd(a, b) != 1:
                continue
            assert linalg._reconstructed_denominator(a * pow(b, -1, m) % m, m, limit) == b


def _spy_tiles(monkeypatch):
    """The operand shapes of each ``_tiled_matmul`` call."""
    seen = []
    tiled = linalg._tiled_matmul

    def spy(a, b):
        seen.append((a.shape, b.shape))
        return tiled(a, b)

    monkeypatch.setattr(linalg, "_tiled_matmul", spy)
    return seen


@pytest.mark.parametrize("bound, floats", [(2**53 - 1, True), (2**53, False)])
def test_float64_products_stop_below_2_to_53(monkeypatch, bound, floats):
    """Entries near sqrt(2**53 / n) give partial sums just below 2**53: the
    float64 product is exact there, and at a bound of 2**53 the product
    is formed in int64."""
    rng = random.Random(53)
    n = 4
    top = math.isqrt((2**53 - 1) // n)
    entries = [rng.choice([1, -1]) * rng.randint(top - 99, top) for _ in range(2 * n * n)]
    a, b = np.array(entries, dtype=np.int64).reshape(2, n, n)
    tiles = _spy_tiles(monkeypatch)
    got = linalg.integer_product(np.matmul, a, b, bound=bound)
    assert got.dtype == np.int64
    assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
    assert bool(tiles) == floats


def _product_cases():
    """(name, a, b, bound, dtype of the result, whether float64 tiles form
    it); each bound is at least the inner dimension times the largest
    entries of a and b."""
    rng = np.random.default_rng(62)

    def integers(shape, magnitude):
        return rng.integers(-magnitude, magnitude, shape, endpoint=True)

    for n in (4, 64, 65, 300):
        yield f"vector-{n}", integers((n, n), P), integers(n, P), n * P * P, np.int64, True
    for m in (200, 1600):
        yield f"tall-{m}", integers((m, 8), 9), integers((8, 8), 1), 8 * 9, np.int64, True
    for n in (65, 130):
        a, b = integers((n, n), 2**20), integers((n, n), 2**20)
        yield f"square-{n}", a, b, n * 2**40, np.int64, True
    for m, n in ((5, 7), (70, 130)):
        a, b = np.zeros((m, 0), dtype=np.int64), np.zeros((0, n), dtype=np.int64)
        yield f"inner-0-{m}x{n}", a, b, 0, np.int64, True
    a, b = integers((70, 6), 2**30).astype(object), integers((6, 3), 2**20)
    yield "object", a, b, 6 * 2**50, np.int64, True
    # Column 0 of a meets only the zero row 0 of b, so its Python ints
    # beyond the largest float reach no partial result.
    a, b = a.copy(), b.copy()
    a[:, 0] = [(-1) ** i * 2**2000 for i in range(70)]
    b[0] = 0
    yield "object-beyond-floats", a, b, 6 * 2**50, np.int64, True
    a, b = integers((66, 66), 2**23), integers((66, 2), 2**23)
    yield "bound-2**53", a, b, 2**53, np.int64, False
    a, b = integers((66, 66), 2**31), integers(66, 2**31)
    yield "bound-66*2**62", a, b, 66 * 2**62, object, False
    a = np.array([[(-1) ** (i * j) * 2**70 + i - j for j in range(3)] for i in range(3)])
    b = integers((3, 3), 9)
    yield "bound-3*9*2**70", a, b, 3 * 9 * (2**70 + 2), object, False


PRODUCT_CASES = list(_product_cases())


@pytest.mark.parametrize("name, a, b, bound, dtype, floats", PRODUCT_CASES,
                         ids=[case[0] for case in PRODUCT_CASES])
def test_every_integer_matmul_matches_the_python_int_product(
    monkeypatch, name, a, b, bound, dtype, floats
):
    tiles = _spy_tiles(monkeypatch)
    got = linalg.integer_product(np.matmul, a, b, bound=bound)
    expected = a.astype(object) @ b.astype(object)
    assert got.dtype == dtype
    assert got.shape == expected.shape
    assert got.tolist() == expected.tolist()
    assert bool(tiles) == floats


def _one_thread(product, repeats):
    """Whether ``repeats`` calls of ``product`` take no more CPU time than
    wall time.  A thread woken by an earlier product spins for a while
    after it, so this first waits that out."""
    time.sleep(0.5)
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(repeats):
        product()
    return time.process_time() - cpu < 1.2 * (time.perf_counter() - wall)


def test_float64_products_of_order_192_stay_on_one_thread():
    """The lifting's float64 products at order 192 are formed from tiles
    that OpenBLAS keeps on one thread: the process uses no more CPU time
    than wall time."""
    rng = np.random.default_rng(192)
    a, b = (rng.integers(0, P, (192, 192)) for _ in range(2))
    product = lambda: linalg.integer_product(np.matmul, a, b, bound=192 * P**2)  # noqa: E731
    assert product().tolist() == (a.astype(object) @ b.astype(object)).tolist()
    assert _one_thread(product, 20)


def test_the_gram_product_of_h_256_stays_on_one_thread(monkeypatch):
    """``inverse`` of Sylvester H_256 takes the closed form, whose Gram
    product N N^T is formed in float64 tiles outside the lifting."""
    H = hadamard_like(9)
    tiles = _spy_tiles(monkeypatch)
    assert inverse(H) == H.scale(Fraction(1, 256))
    assert ((256, 256), (256, 256)) in tiles
    monkeypatch.undo()
    assert _one_thread(lambda: inverse(H), 5)
