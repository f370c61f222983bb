"""Differential tests: ``in_spectracone`` on a matrix of points against the
row-by-row loop of single-point calls, and ``is_ideal`` against its loop.

A matrix x is decided in chunks of at most ``perron._CHUNK_ENTRIES`` image
entries, each one stacked ``similarity_image``, unless S is a Sylvester
Hadamard matrix (``tests/test_sylvester_fast_path.py``); the tests that pin
the chunks turn that recogniser off.  The oracle is one
``in_spectracone`` call per row, the path ``tests/test_membership_fast_path.py``
checks against the dense reference.  In complex mode a stacked product may
round a last bit differently from one product per row, so stacked complex
images are compared by their verdicts only.

Every function that accepts ``sinv`` refuses a wrong one with the error
``in_spectracone`` raises, a given ``sinv`` never hides a non-square S,
and an image that overflows anywhere in a chunk is refused (exit 2 from
``check-ideal``) whatever the order of the rows.
"""
import random
from fractions import Fraction

import pytest

from perronkron import perron
from perronkron.cli import main
from perronkron.families import counterexample_factors, dft, hadamard_like
from perronkron.linalg import (
    RATIONAL,
    Matrix,
    ModeMismatchError,
    SingularMatrixError,
    Tolerance,
    Vector,
    inverse,
    kron,
    matrices_close,
    ones_vector,
)
from perronkron.serialize import matrix_to_json

TOL = Tolerance(1e-9)

CATALOG = [(f"H{n}", hadamard_like(n)) for n in (2, 3, 4)] + [
    (f"F{n}", dft(n)) for n in (2, 3, 4, 5, 6)
]
# Every catalog pair in its own mode (a mixed pair is lifted to complex
# mode), and every rational pair lifted to complex mode as well.
PAIRS = [(f"{ns}x{nt}", S, T) for ns, S in CATALOG for nt, T in CATALOG]
PAIRS += [
    (f"{name}-complex", S.to_complex(), T.to_complex())
    for name, S, T in PAIRS
    if S.mode == T.mode == RATIONAL
]
COUNTEREXAMPLE_S = kron(*counterexample_factors())


def rows_oracle(S, X, tol=TOL, sinv=None):
    return all(perron.in_spectracone(S, row, tol, sinv) for row in X.rows())


def ideal_oracle(S, tol=TOL, sinv=None):
    if sinv is None:
        sinv = inverse(S)
    ones = ones_vector(S.nrows, S.mode)
    return any(matrices_close(row, ones, tol) for row in S.rows()) and rows_oracle(
        S, S, tol, sinv
    )


def random_points(rng, mode, count, n):
    if mode == RATIONAL:
        return Matrix.rational(
            [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(count)]
        )
    return Matrix.complex_(
        [[complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
         for _ in range(count)]
    )


def with_last_row(X, row):
    """X with ``row`` appended as its last row."""
    return Matrix(X.entries + [list(row.entries)], X.mode)


def _pair(S, T):
    if S.mode != T.mode:
        S, T = S.to_complex(), T.to_complex()
    return kron(S, T), kron(inverse(S), inverse(T))


def _seeded_similarities(seed, count):
    """Seeded invertible rational matrices of orders 1-6."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randint(1, 6)
        S = random_points(rng, RATIONAL, n, n)
        try:
            found.append((S, inverse(S)))
        except SingularMatrixError:
            continue
    return found


def assert_agrees(S, X, sinv=None, tol=TOL):
    verdict = perron.in_spectracone(S, X, tol, sinv)
    assert verdict == rows_oracle(S, X, tol, sinv)
    return verdict


@pytest.mark.parametrize("name,S,T", PAIRS, ids=[p[0] for p in PAIRS])
def test_every_catalog_pair_agrees_with_the_row_loop(name, S, T):
    K, K_inv = _pair(S, T)
    rng = random.Random(name)
    assert assert_agrees(K, K, K_inv)
    assert perron.is_ideal(K, TOL, K_inv) == ideal_oracle(K, TOL, K_inv) is True
    points = random_points(rng, K.mode, 3, K.nrows)
    assert not assert_agrees(K, points, K_inv)
    # Only the last row is outside the cone.
    assert not assert_agrees(K, with_last_row(K, points.row(0)), K_inv)


@pytest.mark.parametrize("n", range(1, 13))
def test_dft_orders_agree_with_the_row_loop(n):
    F = dft(n)
    rng = random.Random(n)
    assert assert_agrees(F, F)
    assert perron.is_ideal(F, TOL) == ideal_oracle(F, TOL) is True
    for count in (1, 2, 5):
        assert_agrees(F, random_points(rng, F.mode, count, n))
    # A row of F shifted off the cone: its image has diagonal -4 eps.
    if n > 1:
        shifted = F.row(1) + ones_vector(n, F.mode).scale(-4 * TOL.eps)
        assert not assert_agrees(F, with_last_row(F, shifted))


def test_the_counterexample_agrees_with_the_row_loop():
    S = COUNTEREXAMPLE_S
    # Rows 2 and 4 are members, rows 1 and 3 are not.
    assert not assert_agrees(S, S)
    members = Matrix.rational([S.entries[1], S.entries[3], [2, 2, -1, -1], [1, 1, 1, 1]])
    assert assert_agrees(S, members)
    assert not assert_agrees(S, with_last_row(members, S.row(0)))
    assert perron.is_ideal(S) == ideal_oracle(S) is False


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_rational_matrices_agree_with_the_row_loop(seed):
    rng = random.Random(seed)
    verdicts = set()
    for S, sinv in _seeded_similarities(seed, 8):
        for count in (1, 2, 7):
            X = random_points(rng, RATIONAL, count, S.nrows)
            verdicts.add(assert_agrees(S, X, sinv))
            verdicts.add(assert_agrees(S, X))
        assert_agrees(S, S, sinv)
        assert perron.is_ideal(S, TOL, sinv) == ideal_oracle(S, TOL, sinv)
        # Positive multiples of e are members at every order.
        assert assert_agrees(S, Matrix.rational([[k] * S.nrows for k in (1, 2, 3)]))
    assert verdicts == {True, False}


def _spy_products(monkeypatch):
    """The row counts of the stacked images ``in_spectracone`` forms."""
    rows = []
    image = perron.similarity_image

    def spy(S, x, sinv=None):
        if isinstance(x, Matrix):
            rows.append(x.nrows)
        return image(S, x, sinv)

    monkeypatch.setattr(perron, "similarity_image", spy)
    return rows


@pytest.mark.parametrize("S", [hadamard_like(4), dft(8), COUNTEREXAMPLE_S.to_complex()],
                         ids=["H4", "F8", "S-complex"])
@pytest.mark.parametrize("chunk, sizes", [
    (3, [3, 3, 1]),  # the failing row alone in a short last chunk
    (2, [2, 2, 2, 1]),
    (4, [4, 3]),  # the failing row at the end of a short last chunk
    (1, [1] * 7),
])
def test_only_the_last_row_fails_in_a_later_shorter_chunk(monkeypatch, S, chunk, sizes):
    n = S.nrows
    monkeypatch.setattr(perron, "_CHUNK_ENTRIES", chunk * n**2)
    # The chunks pinned here are the dense path's, which H4 would skip.
    monkeypatch.setattr(perron, "is_sylvester", lambda S: False)
    rows = _spy_products(monkeypatch)
    ones = ones_vector(n, S.mode)
    members = [row for row in S.rows() if perron.in_spectracone(S, row, TOL)]
    members = (members + [ones.scale(k) for k in range(1, 7)])[:6]
    X = Matrix([list(v.entries) for v in members], S.mode)
    for last, verdict in ((ones.scale(7), True), (ones.scale(-1), False)):
        rows.clear()
        points = with_last_row(X, last)
        assert perron.in_spectracone(S, points, TOL) is verdict
        assert rows == sizes
        assert rows_oracle(S, points) is verdict


@pytest.mark.parametrize("depth", range(2, 8))
def test_is_ideal_makes_one_product_a_chunk(monkeypatch, depth):
    H = hadamard_like(depth)
    n = H.nrows
    # The chunks pinned here are the dense path's, which H would skip.
    monkeypatch.setattr(perron, "is_sylvester", lambda S: False)
    rows = _spy_products(monkeypatch)
    assert perron.is_ideal(H)
    chunk = max(1, perron._CHUNK_ENTRIES // n**2)
    assert len(rows) == -(-n // chunk)
    assert sum(rows) == n and max(rows) <= chunk


def test_scale_columns_of_a_vector_is_each_entry_product():
    """Each entry is S[i, j] * x[j] as Python forms it, signed zeros and
    huge parts included."""
    rng = random.Random(8)
    parts = [0.0, -0.0, 1.5, -2.25, 1e300, -1e-300]
    for mode in (RATIONAL, "complex"):
        for _ in range(20):
            S, x = random_points(rng, mode, 4, 5), random_points(rng, mode, 1, 5).row(0)
            if mode == "complex":
                S = Matrix.complex_([[complex(rng.choice(parts), rng.choice(parts))
                                      for _ in range(5)] for _ in range(4)])
            expected = [[S[i, j] * x[j] for j in range(5)] for i in range(4)]
            assert repr(S.scale_columns(x).entries) == repr(expected)


def test_scale_columns_of_a_matrix_stacks_the_row_products():
    rng = random.Random(4)
    for mode in (RATIONAL, "complex"):
        S = random_points(rng, mode, 5, 5)
        X = random_points(rng, mode, 3, 5)
        stacked = S.scale_columns(X)
        assert stacked.nrows == 15 and stacked.ncols == 5
        blocks = [S.scale_columns(x) for x in X.rows()]
        assert stacked.entries == [row for block in blocks for row in block.entries]
        assert X.row_block(1, 3).rows() == X.rows()[1:3]


@pytest.mark.parametrize("S", [COUNTEREXAMPLE_S, hadamard_like(3)], ids=["S", "H3"])
def test_rational_stacked_images_are_the_row_images(S):
    X = random_points(random.Random(6), RATIONAL, 4, S.nrows)
    images = [perron.similarity_image(S, x) for x in X.rows()]
    assert perron.similarity_image(S, X).entries == [
        row for image in images for row in image.entries
    ]


H2 = hadamard_like(2)
SQUARE = "similarity images require square matrices"
WIDTH = "dimension mismatch between matrix and spectrum"
SHAPE = "dimension mismatch"
_ERROR_CASES = {
    # A non-square S is refused before any inverse is attempted.
    "non-square": (Matrix.rational([[1, 2, 3], [4, 5, 6]]), [1, 1], None, RATIONAL,
                   ValueError, SQUARE),
    "width": (H2, [1, 1, 1], None, RATIONAL, ValueError, WIDTH),
    "x-mode": (H2, [1, 1], None, "complex", ModeMismatchError,
               "mode mismatch: rational vs complex"),
    "sinv-mode": (H2, [1, 1], inverse(dft(2)), RATIONAL, ModeMismatchError,
                  "mode mismatch: rational vs complex"),
    "sinv-2x3": (H2, [1, 1], Matrix.rational([[1, 0, 0], [0, 1, 0]]), RATIONAL,
                 ValueError, SHAPE),
    "sinv-3x2": (H2, [1, 1], Matrix.rational([[1, 0], [0, 1], [0, 0]]), RATIONAL,
                 ValueError, SHAPE),
    "sinv-4x4": (H2, [1, 1], hadamard_like(3), RATIONAL, ValueError, SHAPE),
    "singular": (Matrix.rational([[1, 1], [1, 1]]), [1, 1], None, RATIONAL,
                 SingularMatrixError, "no pivot in column 2"),
    # S is inverted before the modes are compared.
    "singular-x-mode": (Matrix.rational([[1, 1], [1, 1]]), [1, 1], None, "complex",
                        SingularMatrixError, "no pivot in column 2"),
}


@pytest.mark.parametrize("case", _ERROR_CASES)
def test_a_matrix_of_points_raises_as_one_point_does(case):
    """The same exception type and message for one point and for a matrix of
    points, from ``in_spectracone`` and from ``similarity_image``; a wrongly
    shaped inverse is refused, not multiplied."""
    S, x, sinv, mode, error, message = _ERROR_CASES[case]
    for points in (Vector(x, mode), Matrix([x, x], mode)):
        for call in (lambda: perron.in_spectracone(S, points, TOL, sinv),
                     lambda: perron.similarity_image(S, points, sinv)):
            with pytest.raises(ValueError) as info:
                call()
            assert (type(info.value), str(info.value)) == (error, message)


# Every function that accepts ``sinv``, called on H2 with its witness (1, +1)
# or with the spectrum e.
_SINV_TAKERS = {
    "cone_inequalities": lambda S, sinv: perron.cone_inequalities(S, sinv),
    "find_perron_witness": lambda S, sinv: perron.find_perron_witness(S, TOL, sinv),
    "witness_is_valid": lambda S, sinv: perron.witness_is_valid(
        S, perron.PerronWitness(1, 1), TOL, sinv),
    "make_totally_nonzero": lambda S, sinv: perron.make_totally_nonzero(
        S, perron.PerronWitness(1, 1), TOL, sinv),
    "is_ideal": lambda S, sinv: perron.is_ideal(S, TOL, sinv),
    "verify_strong_certificate": lambda S, sinv: perron.verify_strong_certificate(
        S, ones_vector(S.nrows, RATIONAL), TOL, sinv),
    "in_spectratope": lambda S, sinv: perron.in_spectratope(
        S, ones_vector(S.nrows, RATIONAL), TOL, sinv),
}


@pytest.mark.parametrize("taker", _SINV_TAKERS)
@pytest.mark.parametrize("case", [case for case in _ERROR_CASES if case.startswith("sinv-")])
def test_every_given_inverse_is_checked_as_in_spectracone_checks_it(taker, case):
    """A complex inverse, or one not of S's shape, is refused with the error
    ``in_spectracone`` raises, never used as if it were S^{-1}."""
    S, x, sinv, mode, error, message = _ERROR_CASES[case]
    for call in (lambda: perron.in_spectracone(S, Vector(x, mode), TOL, sinv),
                 lambda: _SINV_TAKERS[taker](S, sinv)):
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)


_NON_SQUARE = {
    "3x2": Matrix.rational([[1, 1], [1, -1], [1, 0]]),
    "2x3": Matrix.rational([[1, 2, 3], [4, 5, 6]]),
}
_NON_SQUARE_TAKERS = {
    name: _SINV_TAKERS[name]
    for name in ("witness_is_valid", "make_totally_nonzero", "is_ideal",
                 "cone_inequalities", "find_perron_witness")
}
_NON_SQUARE_TAKERS["witness_is_valid-3"] = lambda S, sinv: perron.witness_is_valid(
    S, perron.PerronWitness(3, 1), TOL, sinv)


def _outcome(call):
    try:
        return ("returns", call())
    except ValueError as error:
        return ("raises", type(error), str(error))


@pytest.mark.parametrize("taker", _NON_SQUARE_TAKERS)
@pytest.mark.parametrize("shape", _NON_SQUARE)
def test_a_given_inverse_never_hides_a_non_square_matrix(taker, shape):
    """An ``sinv`` of S's shape changes nothing for a non-square S: the
    function answers or raises as it does when it inverts S itself."""
    S, call = _NON_SQUARE[shape], _NON_SQUARE_TAKERS[taker]
    assert _outcome(lambda: call(S, S)) == _outcome(lambda: call(S, None))


# Row 2 is outside C(S) and row 3's image overflows; all three rows share
# one stacked product, so the overflow decides in either row order.
_OUTSIDE, _HUGE = [1, -1, 0], [1e300, 2e300, -1e300]
OVERFLOW = "complex entries must be finite, got (inf+0j)"


@pytest.mark.parametrize("rows", [[_OUTSIDE, _HUGE], [_HUGE, _OUTSIDE]],
                         ids=["outside-first", "overflow-first"])
def test_an_image_that_overflows_in_a_chunk_is_refused(tmp_path, capsys, rows):
    S = Matrix.complex_([[1, 1, 1]] + rows)
    with pytest.raises(ValueError) as info:
        perron.is_ideal(S, TOL)
    assert (type(info.value), str(info.value)) == (ValueError, OVERFLOW)
    path = tmp_path / "s.json"
    path.write_text(matrix_to_json(S))
    assert main(["check-ideal", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {OVERFLOW}\n")
