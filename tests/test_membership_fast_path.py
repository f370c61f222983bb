"""Differential tests: the array fast path of ``in_spectracone`` against the
dense reference ``is_entrywise_nonneg(similarity_image(S, x, sinv))``, and
rational products on cached integer forms against pure-Fraction oracles.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import families
from perronkron.linalg import (
    RATIONAL,
    Matrix,
    ModeMismatchError,
    Tolerance,
    Vector,
    inverse,
    is_entrywise_nonneg,
    kron,
    ones_vector,
)
from perronkron.perron import in_spectracone, similarity_image

TOL = Tolerance(1e-9)

# The catalog that verify-paper runs over: Hadamard depths 2-4, DFT 2-6.
CATALOG = [(f"H{n}", families.hadamard_like(n)) for n in (2, 3, 4)] + [
    (f"F{n}", families.dft(n)) for n in (2, 3, 4, 5, 6)
]
PAIRS = [(ns, S, nt, T) for ns, S in CATALOG for nt, T in CATALOG]


def _pair(S, T):
    if S.mode != T.mode:
        S, T = S.to_complex(), T.to_complex()
    return kron(S, T), kron(inverse(S), inverse(T))


def _reference(S, x, sinv, tol=TOL):
    return is_entrywise_nonneg(similarity_image(S, x, sinv), tol)


def _fraction_oracle(S, x, sinv):
    """Sign of S diag(x) S^{-1} from Fraction sums alone."""
    n = S.nrows
    return all(
        sum(S[i, k] * x[k] * sinv[k, j] for k in range(n)) >= 0
        for i in range(n)
        for j in range(sinv.ncols)
    )


def _random_vector(rng, mode, n):
    if mode == RATIONAL:
        return Vector.rational(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        )
    return Vector.complex_(
        [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    )


@pytest.mark.parametrize("ns,S,nt,T", PAIRS, ids=[f"{p[0]}x{p[2]}" for p in PAIRS])
def test_every_catalog_row_agrees_with_reference(ns, S, nt, T):
    K, K_inv = _pair(S, T)
    for row in K.rows():
        assert in_spectracone(K, row, TOL, K_inv) == _reference(K, row, K_inv)
        assert in_spectracone(K, row, TOL, K_inv)


@pytest.mark.parametrize("ns,S,nt,T", PAIRS, ids=[f"{p[0]}x{p[2]}" for p in PAIRS])
def test_seeded_non_members_agree_with_reference(ns, S, nt, T):
    K, K_inv = _pair(S, T)
    rng = random.Random(f"{ns}x{nt}")
    verdicts = []
    for _ in range(5):
        x = _random_vector(rng, K.mode, K.nrows)
        verdict = in_spectracone(K, x, TOL, K_inv)
        assert verdict == _reference(K, x, K_inv)
        verdicts.append(verdict)
    assert not all(verdicts)


@pytest.mark.parametrize("name,S", CATALOG, ids=[c[0] for c in CATALOG])
def test_shifts_across_the_boundary_agree_with_reference(name, S):
    # Row k >= 2 of a Hadamard or DFT matrix has an image with zero
    # diagonal, so x - t*e has diagonal -t: a member exactly while t is
    # within the tolerance (rational: t <= 0).
    sinv = inverse(S)
    n = S.nrows
    e = ones_vector(n, S.mode)
    if S.mode == RATIONAL:
        shifts = [
            (Fraction(0), True),
            (Fraction(-1, 2**50), True),
            (Fraction(1, 2**50), False),
        ]
    else:
        shifts = [(0.5 * TOL.eps, True), (4 * TOL.eps, False), (4j * TOL.eps, False)]
    for t, expected in shifts:
        x = S.row(1) + e.scale(-t)
        assert _reference(S, x, sinv) == expected
        assert in_spectracone(S, x, TOL, sinv) == expected
        assert in_spectracone(S, x, TOL) == expected


def _big_similarity(rng, H):
    """D H D' with positive diagonal D, D' of ~40-bit rationals.

    Its image of x is D (H diag(x) H^{-1}) D^{-1}, so it has the same sign
    pattern as H's, while its entries are far beyond int64.
    """
    n = H.nrows

    def big():
        return Fraction(2**40 + rng.randrange(2**20), 2**39 + rng.randrange(2**20))

    d = [big() for _ in range(n)]
    dp = [big() for _ in range(n)]
    return Matrix.rational(
        [[d[i] * H[i, j] * dp[j] for j in range(n)] for i in range(n)]
    )


def test_big_integer_branch_agrees_with_fraction_oracle():
    rng = random.Random(7)
    H = families.hadamard_like(3)
    S = _big_similarity(rng, H)
    sinv = inverse(S)
    assert S.array_form().num.dtype == object
    e = ones_vector(S.nrows)
    scale = Fraction(2**40 + 11, 2**40 - 3)
    cases = [(S.row(0), None), (e.scale(scale), True)]
    cases += [(H.row(k).scale(scale), True) for k in range(S.nrows)]
    cases += [
        (H.row(k) + e.scale(Fraction(-1, 2**41)), False) for k in range(1, S.nrows)
    ]
    cases += [
        (_random_vector(rng, RATIONAL, S.nrows).scale(scale), None) for _ in range(5)
    ]
    for x, expected in cases:
        verdict = in_spectracone(S, x, TOL, sinv)
        assert verdict == _fraction_oracle(S, x, sinv)
        assert verdict == _reference(S, x, sinv)
        if expected is not None:
            assert verdict == expected


def test_int64_operands_whose_product_would_overflow_take_the_big_integer_branch():
    # H16 and its inverse have numerators of magnitude 1, and x fits in
    # int64, but 16-term sums of ~2^60 products do not.
    rng = random.Random(11)
    H = families.hadamard_like(5)
    sinv = inverse(H)
    vectors = [
        Vector.rational([rng.randint(-(2**60), 2**60) for _ in range(H.nrows)])
        for _ in range(8)
    ]
    vectors += [H.row(k).scale(2**60 - 1) for k in range(3)]
    for x in vectors:
        assert in_spectracone(H, x, TOL, sinv) == _fraction_oracle(H, x, sinv)


def test_rational_matmul_agrees_with_fraction_oracle_in_both_branches():
    rng = random.Random(3)
    for magnitude in (2**3, 2**40):
        def entry():
            return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, 9))

        A = Matrix.rational([[entry() for _ in range(5)] for _ in range(4)])
        B = Matrix.rational([[entry() for _ in range(3)] for _ in range(5)])
        expected = [
            [sum(A[i, k] * B[k, j] for k in range(5)) for j in range(3)]
            for i in range(4)
        ]
        assert (A @ B).entries == expected


def test_array_form_is_cached_with_one_positive_denominator():
    A = Matrix.rational([["1/2", "-3/4"], ["5", "0"]])
    form = A.array_form()
    assert A.array_form() is form
    assert form.den == 4 and form.bound == 20
    assert form.num.dtype == np.int64
    assert form.num.tolist() == [[2, -3], [20, 0]]
    C = Matrix.complex_([[1, 2j]])
    assert C.array_form().tolist() == [[1, 2j]]


def test_errors_are_still_raised():
    H = families.hadamard_like(2)
    F = families.dft(2)
    with pytest.raises(ModeMismatchError):
        in_spectracone(H, F.row(0))
    with pytest.raises(ModeMismatchError):
        in_spectracone(H, H.row(0), TOL, inverse(F))
    with pytest.raises(ValueError):
        in_spectracone(H, Vector.rational([1, 1, 1]))
    with pytest.raises(ValueError):
        in_spectracone(Matrix.rational([[1, 2, 3], [4, 5, 6]]), Vector.rational([1, 1]))
    with pytest.raises(ValueError):
        in_spectracone(H, H.row(0), TOL, families.hadamard_like(3))


@pytest.mark.parametrize(
    "S,T",
    [(S, T) for _, S in CATALOG[:3] for _, T in CATALOG[:3]],
)
def test_kron_of_inverses_is_inverse_of_kron(S, T):
    assert kron(inverse(S), inverse(T)) == inverse(kron(S, T))
