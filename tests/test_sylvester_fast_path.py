"""Differential tests: the Sylvester path of ``perron.in_spectracone``
against the dense reference ``is_entrywise_nonneg(similarity_image(S, x,
sinv))``.

For the Sylvester Hadamard matrix H_n, entry (i, j) of H diag(x) H^{-1} is
(H x)[i XOR j] / n, so ``in_spectracone`` decides x by one exact
``linalg.walsh_hadamard`` once ``linalg.is_sylvester`` recognises S and
``sinv`` is exactly S / n.  Every other input, a Hadamard matrix with two
rows swapped, 2 H, H in complex mode or H with a wrong ``sinv``, must take
the dense path and get its verdict.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import perron
from perronkron.families import hadamard_like
from perronkron.linalg import (
    Matrix,
    Tolerance,
    Vector,
    inverse,
    is_entrywise_nonneg,
    is_sylvester,
    kron,
    walsh_hadamard,
)

TOL = Tolerance(1e-9)
FACTORS = {f"H{depth}": hadamard_like(depth) for depth in (2, 3, 4)}
# Every rational catalog pair of verify-paper, with its blockwise inverse.
PAIRS = {
    f"{s}x{t}": (kron(S, T), kron(inverse(S), inverse(T)))
    for s, S in FACTORS.items()
    for t, T in FACTORS.items()
}


def dense(S, x, sinv=None):
    return is_entrywise_nonneg(perron.similarity_image(S, x, sinv), TOL)


def spy_images(monkeypatch):
    """The points of every similarity image ``in_spectracone`` forms."""
    points = []
    image = perron.similarity_image

    def spy(S, x, sinv=None):
        points.append(x)
        return image(S, x, sinv)

    monkeypatch.setattr(perron, "similarity_image", spy)
    return points


def members(rng, S, count):
    """Nonnegative combinations of the rows of an ideal S, each a member."""
    weights = [[Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(S.nrows)]
               for _ in range(count)]
    return Matrix.rational(weights) @ S


def points(rng, n, count):
    return Matrix.rational([[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                             for _ in range(n)] for _ in range(count)])


def flipped(H):
    """Row 1 of Sylvester H_n with its first entry negated: H_n x is
    n e_1 - 2 e, negative off entry 1, so x is not in C(H_n)."""
    x = [list(row) for row in H.row_block(1, 2).entries]
    x[0][0] = -x[0][0]
    return Matrix.rational(x)


def sylvester_points(rng, S):
    """Seeded members, non-members and zero rows of C(S), as matrices."""
    M, X = members(rng, S, 4), points(rng, S.nrows, 3)
    zero, outside = Matrix.rational([[0] * S.nrows]), flipped(S)
    return [M, X, zero, Matrix.rational([*M.entries, *zero.entries]),
            outside, Matrix.rational([*M.entries, *outside.entries])]


@pytest.mark.parametrize("name", PAIRS)
def test_every_rational_catalog_pair_agrees_with_the_dense_path(monkeypatch, name):
    K, K_inv = PAIRS[name]
    assert is_sylvester(K)
    rng = random.Random(name)
    cases = sylvester_points(rng, K)
    expected = [[dense(K, x, K_inv) for x in [X, *X.rows()]] for X in cases]
    formed = spy_images(monkeypatch)
    verdicts = [[perron.in_spectracone(K, x, TOL, K_inv) for x in [X, *X.rows()]]
                for X in cases]
    assert verdicts == expected
    assert formed == []
    assert {v for row in verdicts for v in row} == {True, False}
    # The matrix verdict is the conjunction of its row verdicts.
    assert all(row[0] == all(row[1:]) for row in verdicts)


@pytest.mark.parametrize("depth", range(2, 11))
def test_is_ideal_at_sylvester_orders_2_to_512(monkeypatch, depth):
    H = hadamard_like(depth)
    n = H.nrows
    outside = flipped(H)
    formed = spy_images(monkeypatch)
    assert perron.is_ideal(H, TOL)
    assert not perron.in_spectracone(H, outside.row(0))
    assert not perron.in_spectracone(H, Matrix.rational([*H.entries[:3], *outside.entries]))
    assert formed == []
    # The dense reference: all of is_ideal up to order 64, then sampled rows.
    monkeypatch.setattr(perron, "is_sylvester", lambda S: False)
    if n <= 64:
        assert perron.is_ideal(H, TOL)
    H_inv = inverse(H)
    sample = [0, 1, n - 1] if n <= 256 else [n - 1]
    assert all(dense(H, H.row(r), H_inv) for r in sample)
    assert not dense(H, outside.row(0), H_inv)


def test_zero_points_are_members():
    H = hadamard_like(4)
    zero = Vector.rational([0] * 8)
    assert perron.in_spectracone(H, zero) is dense(H, zero) is True
    Z = Matrix.rational([[0] * 8] * 3)
    assert perron.in_spectracone(H, Z) is dense(H, Z) is True


@pytest.mark.parametrize("entries, member", [
    # H4 x = (2**63, 0, 0, 0): an int64 transform would wrap to -2**63.
    ([2**61] * 4, True),
    ([2**61 + 1, 2**61 + 1, 2**61 - 1, 2**61 - 1], True),
    ([2**61, 2**61, 2**61 - 1, 2**61 + 1], False),
    # Python-int numerators from the start.
    ([2**70, 2**70, 2**70, 2**70], True),
    ([2**70 + 1, 2**70, 2**70, 2**70 - 1], True),
    ([2**70, -(2**70), 2**70, 2**70], False),
    ([Fraction(2**70, 3), Fraction(2**69, 3), Fraction(2**69, 3), 0], True),
])
def test_the_object_branch_agrees_with_the_dense_path(entries, member):
    H = hadamard_like(3)
    x = Vector.rational(entries)
    state = x.array_form()
    assert H.nrows * state.bound >= 2**62
    assert perron.in_spectracone(H, x) is dense(H, x) is member
    X = Matrix.rational([entries, [1, 1, 1, 1]])
    assert perron.in_spectracone(H, X) is dense(H, X) is member


def test_walsh_hadamard_is_the_product_with_h():
    rng = random.Random(3)
    for depth in range(1, 8):
        H = Matrix.rational([[1]]) if depth == 1 else hadamard_like(depth)
        n = H.nrows
        for scale in (1, 2**60, 2**90):
            X = points(rng, n, 3).scale(scale)
            assert walsh_hadamard(X) == X @ H
            assert walsh_hadamard(X.row(1)) == H @ X.row(1)


def test_walsh_hadamard_refuses_what_it_cannot_transform():
    for x in (Vector.rational([1, 2, 3]), Vector.complex_([1, 2])):
        with pytest.raises(ValueError, match="power-of-two length"):
            walsh_hadamard(x)


def swapped(H, i, j):
    rows = [list(row) for row in H.entries]
    rows[i], rows[j] = rows[j], rows[i]
    return Matrix.rational(rows)


def conjugated(H, i, j):
    """P H P for the permutation P that swaps i and j."""
    return swapped(swapped(H, i, j).transpose(), i, j)


H8 = hadamard_like(4)
H_INV = H8.scale(Fraction(1, 8))
# None is Sylvester H_n as the recogniser reads it.
NOT_SYLVESTER = {
    "rows-0-1-swapped": swapped(H8, 0, 1),
    "rows-2-5-swapped": swapped(H8, 2, 5),
    "rows-swapped-64": swapped(hadamard_like(7), 10, 40),
    # Symmetric with square 8 I, so its inverse is S / 8 as H8's is H8 / 8.
    "conjugated": conjugated(H8, 1, 2),
    "negated": H8.scale(-1),
    "twice": H8.scale(2),
    "half": H8.scale(Fraction(1, 2)),
    "complex": H8.to_complex(),
    "signs-moved": Matrix.rational([[1, 1], [-1, 1]]),
    "order-3": Matrix.rational([[1, 1, 1], [1, -1, 1], [1, 1, -1]]),
    "singular": Matrix.rational([[1, 1], [1, 1]]),
    "non-square": Matrix.rational([[1, 1], [1, -1], [1, 1]]),
}


def test_the_recogniser_accepts_exactly_sylvester_h():
    assert is_sylvester(Matrix.rational([[1]]))
    assert all(is_sylvester(hadamard_like(depth)) for depth in range(2, 12))
    assert not any(is_sylvester(S) for S in NOT_SYLVESTER.values())


def dense_cases(S):
    """Points of S's order and mode: seeded ones, S and two of its rows."""
    X = points(random.Random(S.nrows), S.nrows, 3)
    if S.mode != "rational":
        X = X.to_complex()
    return [X, S, X.row(0), S.row(1), S.row(0)]


@pytest.mark.parametrize("name", [name for name in NOT_SYLVESTER
                                  if name not in ("singular", "non-square")])
def test_each_refused_matrix_takes_the_dense_path(monkeypatch, name):
    S = NOT_SYLVESTER[name]
    S_inv = inverse(S)
    cases = dense_cases(S)
    expected = [dense(S, x, S_inv) for x in cases]
    formed = spy_images(monkeypatch)
    assert [perron.in_spectracone(S, x, TOL, S_inv) for x in cases] == expected
    assert len(formed) >= len(cases)


def test_the_conjugated_hadamard_has_another_cone():
    """Its inverse passes the ``sinv`` test, so only the recogniser's
    comparison keeps H8's transform from deciding it, wrongly."""
    S = NOT_SYLVESTER["conjugated"]
    assert inverse(S) == S.scale(Fraction(1, 8))
    cases = [*dense_cases(S)[2:], *S.rows()]
    assert [dense(S, x) for x in cases] != [perron.in_spectracone(H8, x) for x in cases]


# Each of H8's shape and mode, but not H8^{-1}.
WRONG_INVERSES = {
    "2H/n": H8.scale(Fraction(2, 8)),
    "-H/n": H8.scale(Fraction(-1, 8)),
    "H": H8,
    "columns-swapped": swapped(H8, 1, 2).transpose().scale(Fraction(1, 8)),
    "identity": Matrix.identity(8),
}


@pytest.mark.parametrize("name", WRONG_INVERSES)
def test_a_wrong_inverse_takes_the_dense_path(monkeypatch, name):
    sinv = WRONG_INVERSES[name]
    assert is_sylvester(H8) and sinv != H_INV
    cases = dense_cases(H8)
    expected = [dense(H8, x, sinv) for x in cases]
    formed = spy_images(monkeypatch)
    assert [perron.in_spectracone(H8, x, TOL, sinv) for x in cases] == expected
    assert len(formed) >= len(cases)


def test_wrong_inverses_change_some_verdict():
    """Without the ``sinv`` test the Sylvester path would answer these
    differently from the dense path."""
    cases = dense_cases(H8)
    right = [dense(H8, x, H_INV) for x in cases]
    for name in ("-H/n", "identity"):
        assert [dense(H8, x, WRONG_INVERSES[name]) for x in cases] != right, name


def test_walsh_hadamard_matches_a_float_product_at_order_1024():
    """At the order cap, against a float64 product, exact here because
    every partial sum is an integer far below 2**53."""
    H = hadamard_like(11)
    X = Matrix.rational([[random.Random(k).randint(-9, 9) for _ in range(1024)]
                         for k in range(2)])
    expected = X.array_form().num.astype(float) @ H.array_form().num.astype(float)
    assert np.array_equal(walsh_hadamard(X).array_form().num, expected.astype(np.int64))
