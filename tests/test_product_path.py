"""The array-state products of ``perron``, ``cones`` and ``linalg`` against
the entry loops they replace.

``cone_inequalities`` is one ``face_split`` product, ``enumerate_extreme_rays``
reads numerator rows and tests each candidate with one product,
``kron_factor`` decides rank one on the state, and ``p_norm`` and the complex
``inverse`` read the state.  Each oracle below is the loop over the
``Fraction``/``complex`` entries that the library ran before.  Results must
agree exactly: equal arrays, equal ``entries`` and, in complex mode, equal
bits, so a signed zero or a last-bit difference fails.
"""
import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from perronkron import verification
from perronkron.cones import enumerate_extreme_rays
from perronkron.families import counterexample_factors, dft, hadamard_like
from perronkron.linalg import (
    Matrix,
    SingularMatrixError,
    Tolerance,
    Vector,
    face_split,
    inverse,
    kron,
    kron_factor,
    kron_vec,
    p_norm,
)
from perronkron.perron import cone_inequalities
from test_bareiss import _oracle_null_space

TOLERANCES = [Tolerance(), Tolerance(0), Tolerance(1e-3)]
# abs(Z) is 0.3329326245916573 but np.abs(Z) is 0.33293262459165734.
Z = -0.2600896669038415 + 0.20784007719238895j


def cone_inequalities_oracle(S, sinv):
    n = S.nrows
    rows = [
        [S.entries[i][k] * sinv.entries[k][j] for k in range(n)]
        for i in range(n)
        for j in range(n)
    ]
    return Matrix(rows, S.mode)


def extreme_rays_oracle(M):
    n = M.ncols
    rows = [row for row in M.entries if any(v != 0 for v in row)]
    rays = {}
    for subset in combinations(range(len(rows)), n - 1):
        kernel = _oracle_null_space([rows[i] for i in subset], n)
        if len(kernel) != 1:
            continue
        vec = kernel[0]
        for candidate in (vec, [-v for v in vec]):
            if all(sum(r * c for r, c in zip(row, candidate)) >= 0 for row in rows):
                biggest = max(abs(v) for v in candidate)
                canon = tuple(v / biggest for v in candidate)
                rays[canon] = Vector(list(canon), "rational")
                break
    return [rays[key] for key in sorted(rays, key=lambda t: [str(v) for v in t])]


def kron_factor_oracle(z, m, n, tol):
    rows = [z.entries[i * n : (i + 1) * n] for i in range(m)]
    if z.mode == "rational":
        def nonzero(v):
            return v != 0
    else:
        thresh = tol.eps * max(max(abs(v) for v in z.entries), 1.0)

        def nonzero(v):
            return abs(v) > thresh

    pivot = next(
        ((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if nonzero(v)),
        None,
    )
    if pivot is None:
        return Vector([0] * m, z.mode), Vector([1] + [0] * (n - 1), z.mode)
    i0, j0 = pivot
    y = [v / rows[i0][j0] for v in rows[i0]]
    x = [rows[i][j0] for i in range(m)]
    for i in range(m):
        for j in range(n):
            expected = x[i] * y[j]
            if z.mode == "rational":
                if rows[i][j] != expected:
                    return None
            elif abs(rows[i][j] - expected) > thresh:
                return None
    return Vector(x, z.mode), Vector(y, z.mode)


def p_norm_oracle(x, p):
    mags = [abs(complex(v)) if x.mode == "complex" else abs(float(v)) for v in x]
    return sum(m**p for m in mags) ** (1.0 / p)


def complex_inverse_oracle(S):
    n = S.nrows
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
    return Matrix.complex_([row[n:] for row in aug])


def _bits(A):
    return np.ascontiguousarray(A.array_form()).view(np.uint64).tolist()


def assert_same(A, B):
    """A and B are the same array: type, mode, state, view and bits."""
    assert type(A) is type(B) and A.mode == B.mode
    assert A == B
    assert A.entries == B.entries
    if A.mode == "complex":
        assert _bits(A) == _bits(B)


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return (type(exc), str(exc))


def _value(rng, mode):
    if mode == "complex":
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
    if rng.random() < 0.1:
        return Fraction(rng.choice([-1, 1]) * (2**70 + rng.randrange(99)), rng.randint(1, 5))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _seeded_invertible(seed, count=12):
    """Seeded invertible matrices of orders 1-5, in both modes."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        mode, n = rng.choice(["rational", "complex"]), rng.randint(1, 5)
        S = Matrix([[_value(rng, mode) for _ in range(n)] for _ in range(n)], mode)
        try:
            found.append((S, inverse(S)))
        except SingularMatrixError:
            continue
    return found


def _named_similarities():
    """The verification catalog, DFT orders 1-8 and the counterexample."""
    h2, t = counterexample_factors()
    named = dict(verification._catalog())
    named.update((f"DFT{n}", dft(n)) for n in range(1, 9))
    named.update(T=t, S=kron(h2, t), I3=Matrix.identity(3))
    return named


NAMED = _named_similarities()


@pytest.mark.parametrize("name", NAMED)
def test_cone_inequalities_match_the_entry_loop_on_named_matrices(name):
    S = NAMED[name]
    sinv = inverse(S)
    assert_same(cone_inequalities(S, sinv), cone_inequalities_oracle(S, sinv))
    assert_same(cone_inequalities(S), cone_inequalities_oracle(S, sinv))


@pytest.mark.parametrize("seed", range(4))
def test_cone_inequalities_match_the_entry_loop_on_seeded_matrices(seed):
    for S, sinv in _seeded_invertible(seed):
        assert_same(cone_inequalities(S, sinv), cone_inequalities_oracle(S, sinv))


@pytest.mark.parametrize("seed", range(3))
def test_face_split_rows_are_elementwise_products(seed):
    rng = random.Random(seed)
    for _ in range(20):
        mode = rng.choice(["rational", "complex"])
        m, p, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = Matrix([[_value(rng, mode) for _ in range(k)] for _ in range(m)], mode)
        B = Matrix([[_value(rng, mode) for _ in range(k)] for _ in range(p)], mode)
        expected = [
            [a * b for a, b in zip(A.entries[i], B.entries[j])]
            for i in range(m)
            for j in range(p)
        ]
        assert_same(face_split(A, B), Matrix(expected, mode))


def test_face_split_needs_equal_column_counts():
    with pytest.raises(ValueError):
        face_split(Matrix.identity(2), Matrix.identity(3))


def _ray_cases():
    """H2, H3, the counterexample S, matrices with zero inequality rows, and
    seeded rational similarities of orders 3 and 4."""
    h2, t = counterexample_factors()
    cases = {"H2": hadamard_like(2), "H3": hadamard_like(3), "S": kron(h2, t)}
    cases.update(I3=Matrix.identity(3), T=t)
    rng = random.Random(11)
    for order, count in ((3, 6), (4, 2)):
        made = 0
        while made < count:
            S = Matrix.rational([[rng.randint(-3, 3) for _ in range(order)] for _ in range(order)])
            try:
                inverse(S)
            except SingularMatrixError:
                continue
            cases[f"R{order}_{made}"] = S
            made += 1
    return cases


RAY_CASES = _ray_cases()


@pytest.mark.parametrize("name", RAY_CASES)
def test_extreme_rays_match_the_entry_loop(name):
    M = cone_inequalities(RAY_CASES[name])
    rays = enumerate_extreme_rays(M)
    expected = extreme_rays_oracle(M)
    assert len(rays) == len(expected)
    for got, want in zip(rays, expected):
        assert_same(got, want)
    if name == "S":
        assert [r.entries for r in rays] == [[1, 1, -1, -1], [1, 1, 1, 1]]


def _kron_factor_cases(seed):
    """Rank-one, generic and near-threshold vectors with their factor shapes."""
    rng = random.Random(seed)
    for _ in range(60):
        mode = rng.choice(["rational", "complex"])
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        x = Vector([_value(rng, mode) if rng.random() < 0.8 else 0 for _ in range(m)], mode)
        y = Vector([_value(rng, mode) if rng.random() < 0.8 else 0 for _ in range(n)], mode)
        z = kron_vec(x, y)
        yield z, m, n
        entries = list(z.entries)
        k = rng.randrange(m * n)
        if mode == "rational":
            entries[k] += rng.choice([1, Fraction(1, 3), -(2**65)])
            yield Vector(entries, mode), m, n
            continue
        # Nudge one entry by about the threshold eps * max(|z|, 1).
        scale = max(max(abs(v) for v in entries), 1.0)
        for eps in (Tolerance().eps, 1e-3):
            for c in (0.5, 1 - 2**-52, 1.0, 1 + 2**-52, 2.0):
                nudged = list(entries)
                nudged[k] += c * eps * scale * rng.choice([1, -1, 1j, -1j])
                yield Vector(nudged, mode), m, n
        # Entries at the threshold decide the pivot.
        tiny = [c * 1e-9 * rng.choice([1, 1j]) for c in (0.5, 1.0, 2.0, 0.0)]
        yield Vector([rng.choice(tiny) for _ in range(m * n)], mode), m, n


def assert_kron_factor_matches(z, m, n, tol):
    """kron_factor and its oracle give the same factors, None or error;
    returns that outcome."""
    got = _outcome(kron_factor, z, m, n, tol)
    want = _outcome(kron_factor_oracle, z, m, n, tol)
    if isinstance(want, tuple) and isinstance(want[0], Vector):
        assert isinstance(got, tuple) and isinstance(got[0], Vector)
        assert_same(got[0], want[0])
        assert_same(got[1], want[1])
    else:
        assert got == want
    return got


@pytest.mark.parametrize("seed", range(6))
def test_kron_factor_matches_the_entry_loop(seed):
    for z, m, n in _kron_factor_cases(seed):
        for tol in TOLERANCES:
            assert_kron_factor_matches(z, m, n, tol)


def test_kron_factor_residual_exactly_at_the_threshold_is_zero():
    """The residual at (2, 2) is Z, whose modulus is the threshold under
    Python's abs; np.abs rounds it above."""
    assert np.abs(np.array([Z]))[0] > abs(Z)
    z = Vector.complex_([1, 0, 1, Z])
    assert assert_kron_factor_matches(z, 2, 2, Tolerance(abs(Z))) is not None


def test_kron_factor_raises_where_a_modulus_overflows():
    z = Vector.complex_([1.7e308 + 1.7e308j, 1, 1, 1])
    got = assert_kron_factor_matches(z, 2, 2, Tolerance())
    assert got == (OverflowError, "absolute value too large")


def test_kron_factor_with_a_subnormal_pivot_matches_the_entry_loop():
    assert_kron_factor_matches(Vector.complex_([5e-324, 1, 5e-324, 1]), 2, 2, Tolerance(0))


@pytest.mark.parametrize("seed", range(4))
def test_p_norm_matches_the_entry_loop(seed):
    rng = random.Random(seed)
    for _ in range(300):
        mode = rng.choice(["rational", "complex"])
        x = Vector([_value(rng, mode) for _ in range(rng.randint(1, 8))], mode)
        for p in (1, 2, 3, 1.5, 2.5, 7):
            assert p_norm(x, p).hex() == p_norm_oracle(x, p).hex()


@pytest.mark.parametrize("entry", [1.7e308 + 1.7e308j, 1e200, Fraction(10**400)])
def test_p_norm_overflows_as_the_entry_loop_does(entry):
    x = Vector([entry, 1], "rational" if isinstance(entry, Fraction) else "complex")
    assert _outcome(p_norm, x, 2) == _outcome(p_norm_oracle, x, 2)


@pytest.mark.parametrize("n", [*range(1, 13), 16, 32, 64])
def test_complex_inverse_matches_the_entry_loop_on_dft(n):
    assert_same(inverse(dft(n)), complex_inverse_oracle(dft(n)))


def test_complex_inverse_matches_the_entry_loop_on_dft6_kron_h4():
    K = kron(dft(6), hadamard_like(4).to_complex())
    assert_same(inverse(K), complex_inverse_oracle(K))


# Parts the complex inverse must carry bit for bit: signed zeros, which a
# row update by a zero factor can flip, and magnitudes near the ends of the
# float range.
_SPECIAL_PARTS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, 3.0]


def _special_part(rng):
    return rng.choice(_SPECIAL_PARTS) if rng.random() < 0.4 else rng.uniform(-3, 3)


@pytest.mark.parametrize("seed", range(4))
def test_complex_inverse_matches_the_entry_loop_on_seeded_matrices(seed):
    """Seeded invertible matrices, then 100 of orders 1-7, singular ones
    too, whose parts are often zeros of either sign, +-1, 0.5 or 1e+-300."""
    for S, _ in _seeded_invertible(seed):
        if S.mode == "complex":
            assert_same(inverse(S), complex_inverse_oracle(S))
    singular = Matrix.complex_([[1, 1j], [1j, -1]])
    assert _outcome(inverse, singular) == _outcome(complex_inverse_oracle, singular)
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 7)
        S = Matrix.complex_(
            [[complex(_special_part(rng), _special_part(rng)) for _ in range(n)] for _ in range(n)]
        )
        got, want = _outcome(inverse, S), _outcome(complex_inverse_oracle, S)
        if isinstance(want, Matrix):
            assert_same(got, want)
        else:
            assert got == want


def test_complex_inverse_of_a_pivot_just_below_quotient_overflow_matches_the_entry_loop():
    S = Matrix.complex_([[8.98e307 + 8.98e307j]])
    assert_same(inverse(S), complex_inverse_oracle(S))
    z = inverse(S).entries[0][0]
    assert z.real > 0 > z.imag


_QUOTIENT = "the pivot in column {} overflows complex division"


@pytest.mark.parametrize("rows, message", [
    ([[8.99e307 + 8.99e307j]], _QUOTIENT.format(1)),
    ([[1e308 + 1e308j]], _QUOTIENT.format(1)),
    ([[1, 0], [0, 8.99e307 + 8.99e307j]], _QUOTIENT.format(2)),
    # The row update overflows to -inf; numpy must not warn about it.
    ([[1, 1.5e308], [1, -1.5e308]], "the pivot modulus in column 2 exceeds the largest float"),
], ids=["quotient", "quotient_1e308", "quotient_column_2", "update"])
def test_complex_inverse_refuses_a_pivot_that_overflows(rows, message):
    """Python's complex quotient of an 8.99e307 pivot by itself overflows
    inside, and the entry loop returns a wrong inverse of signed zeros."""
    with pytest.raises(ValueError) as info:
        inverse(Matrix.complex_(rows))
    assert str(info.value) == message


def test_the_oracles_see_a_difference():
    """assert_same tells a signed zero and a last bit apart."""
    with pytest.raises(AssertionError):
        assert_same(Vector.complex_([0.0]), Vector.complex_([-0.0]))
    with pytest.raises(AssertionError):
        assert_same(Vector.complex_([1.0]), Vector.complex_([math.nextafter(1.0, 2.0)]))
