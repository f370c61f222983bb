import json
import math
import random
from fractions import Fraction

import pytest

from perronkron.linalg import (
    COMPLEX,
    RATIONAL,
    Matrix,
    ModeMismatchError,
    SingularMatrixError,
    Tolerance,
    Vector,
    basis_vector,
    diag_embed,
    diag_kron_identity,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_factor,
    kron_vec,
    ones_vector,
    p_norm,
)
from perronkron.serialize import (
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_dict,
)

H2 = Matrix.rational([[1, 1], [1, -1]])


def vector_to_json(x: Vector) -> str:
    """The vector wire document as text; only tests write vector files."""
    return json.dumps(vector_to_dict(x))


def blockwise_kron(A: Matrix, B: Matrix) -> Matrix:
    """Oracle: assemble [a_ij * B] block by block."""
    m, n = A.nrows, A.ncols
    p, q = B.nrows, B.ncols
    out = [[None] * (n * q) for _ in range(m * p)]
    for i in range(m):
        for j in range(n):
            for r in range(p):
                for c in range(q):
                    out[i * p + r][j * q + c] = A.entries[i][j] * B.entries[r][c]
    return Matrix(out, A.mode)


def random_rational_matrix(rng, m, n):
    return Matrix.rational(
        [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(m)]
    )


def test_kron_identity_factors():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_builds_counterexample_matrix():
    t = Matrix.rational([[1, 2], [1, 1]])
    s = kron(H2, t)
    assert s == Matrix.rational(
        [[1, 2, 1, 2], [1, 1, 1, 1], [1, 2, -1, -2], [1, 1, -1, -1]]
    )


def test_kron_matches_blockwise_oracle():
    rng = random.Random(7)
    for _ in range(10):
        A = random_rational_matrix(rng, 3, 2)
        B = random_rational_matrix(rng, 2, 4)
        assert kron(A, B) == blockwise_kron(A, B)


def test_kron_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        kron(H2, H2.to_complex())


def test_kron_vec_basis():
    assert kron_vec(basis_vector(3, 2), basis_vector(4, 3)) == basis_vector(12, 7)


def test_kron_vec_ones():
    assert kron_vec(ones_vector(2), ones_vector(3)) == ones_vector(6)


def test_kron_vec_hand_oracle():
    # (2, -1) (x) (1, 1): entries x_ceil(i/2) * y_((i-1)%2+1) by hand.
    assert kron_vec(Vector.rational([2, -1]), Vector.rational([1, 1])) == Vector.rational(
        [2, 2, -1, -1]
    )


def test_inverse_of_counterexample_matrix():
    s = kron(H2, Matrix.rational([[1, 2], [1, 1]]))
    assert inverse(s) == Matrix.rational(
        [
            ["-1/2", "1", "-1/2", "1"],
            ["1/2", "-1/2", "1/2", "-1/2"],
            ["-1/2", "1", "1/2", "-1"],
            ["1/2", "-1/2", "-1/2", "1/2"],
        ]
    )


def test_inverse_identity():
    assert inverse(Matrix.identity(4)) == Matrix.identity(4)


def test_inverse_matches_2x2_closed_form():
    # Oracle: inv([[a, b], [c, d]]) = [[d, -b], [-c, a]] / (ad - bc).
    a, b, c, d = H2.entries[0][0], H2.entries[0][1], H2.entries[1][0], H2.entries[1][1]
    det = a * d - b * c
    oracle = Matrix.rational([[d / det, -b / det], [-c / det, a / det]])
    assert inverse(H2) == oracle
    assert oracle == H2.scale(Fraction(1, 2))


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(Matrix.rational([[1, 1], [2, 2]]))


def test_inverse_complex_roundtrip():
    rng = random.Random(3)
    A = Matrix.complex_(
        [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)] for _ in range(4)]
    )
    prod = A @ inverse(A)
    ident = Matrix.identity(4, COMPLEX)
    assert all(
        abs(prod.entries[i][j] - ident.entries[i][j]) < 1e-9
        for i in range(4)
        for j in range(4)
    )


def test_diag_embed():
    assert diag_embed(ones_vector(3)) == Matrix.identity(3)
    assert diag_embed(Vector.rational([2, 2, -1, -1])) == Matrix.rational(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    )


def test_diag_embed_linearity():
    rng = random.Random(11)
    for _ in range(20):
        x = Vector.rational([Fraction(rng.randint(-4, 4)) for _ in range(5)])
        y = Vector.rational([Fraction(rng.randint(-4, 4)) for _ in range(5)])
        alpha = Fraction(rng.randint(-3, 3))
        beta = Fraction(rng.randint(-3, 3))
        lhs = diag_embed(x.scale(alpha) + y.scale(beta))
        rhs = diag_embed(x).scale(alpha) + diag_embed(y).scale(beta)
        assert lhs == rhs


def test_diag_kron_identity_examples():
    assert diag_kron_identity(ones_vector(2), ones_vector(3))
    assert diag_kron_identity(Vector.rational([2, -1]), Vector.rational([1, 1]))
    rng = random.Random(5)
    for _ in range(100):
        x = Vector.rational([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
        y = Vector.rational([Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))])
        assert diag_kron_identity(x, y)


def test_p_norm_examples():
    assert p_norm(ones_vector(4), 1) == pytest.approx(4.0)
    assert p_norm(Vector.rational([3, 4]), 2) == pytest.approx(5.0)
    assert p_norm(Vector.rational([3, -7, 2]), math.inf) == pytest.approx(7.0)


def test_p_norm_rejects_p_below_one():
    with pytest.raises(ValueError):
        p_norm(ones_vector(2), 0.5)


def test_p_norm_rejects_nan():
    for x in (ones_vector(2), Vector.complex_([1, 2j])):
        with pytest.raises(ValueError, match="p-norms require p >= 1"):
            p_norm(x, math.nan)


def test_p_norm_multiplicative_on_kron():
    rng = random.Random(13)
    for _ in range(50):
        x = Vector.complex_([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 8))])
        y = Vector.complex_([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 8))])
        for p in (1, 2, math.inf):
            assert abs(p_norm(kron_vec(x, y), p) - p_norm(x, p) * p_norm(y, p)) <= 1e-9


def test_mixed_product_property():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        S, U = (random_rational_matrix(rng, n, n) for _ in range(2))
        T, V = (random_rational_matrix(rng, m, m) for _ in range(2))
        assert kron(S, T) @ kron(U, V) == kron(S @ U, T @ V)


def test_inverse_of_kron_is_kron_of_inverses():
    rng = random.Random(19)
    for _ in range(5):
        S = random_rational_matrix(rng, 3, 3)
        T = random_rational_matrix(rng, 4, 4)
        try:
            expected = kron(inverse(S), inverse(T))
        except SingularMatrixError:
            continue
        assert inverse(kron(S, T)) == expected


def test_kron_factor_roundtrip():
    z = Vector.rational([2, 2, -1, -1])
    x, y = kron_factor(z, 2, 2)
    assert kron_vec(x, y) == z
    # Normalization: first nonzero entry of y is 1.
    assert y.entries[0] == 1


def test_kron_factor_all_ones():
    x, y = kron_factor(ones_vector(4), 2, 2)
    assert kron_vec(x, y) == ones_vector(4)


def test_kron_factor_absent_after_shift():
    # z = x (x) y with non-constant factors loses its factorization after
    # adding a positive multiple of the all-ones vector.
    x = Vector.rational([3, 2])
    y = Vector.rational([3, 2])
    z = kron_vec(x, y)
    shifted = z + ones_vector(4)
    assert kron_factor(z, 2, 2) is not None
    assert kron_factor(shifted, 2, 2) is None


def test_kron_factor_rank_criterion():
    rng = random.Random(23)
    for _ in range(50):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        z = Vector.rational([Fraction(rng.randint(-3, 3)) for _ in range(m * n)])
        rows = [z.entries[i * n : (i + 1) * n] for i in range(m)]
        # Rank <= 1 oracle: all 2x2 minors vanish.
        rank_le_one = all(
            rows[i][j] * rows[k][l] == rows[i][l] * rows[k][j]
            for i in range(m)
            for k in range(i + 1, m)
            for j in range(n)
            for l in range(j + 1, n)
        )
        factored = kron_factor(z, m, n)
        assert (factored is not None) == rank_le_one
        if factored is not None:
            assert kron_vec(*factored) == z


def test_kron_factor_dimension_mismatch():
    with pytest.raises(ValueError):
        kron_factor(ones_vector(5), 2, 2)


def test_is_entrywise_nonneg():
    assert is_entrywise_nonneg(Matrix.rational([["1/2", "0"], ["3/2", "0"]]))
    assert not is_entrywise_nonneg(Matrix.identity(2).scale(-1))
    noisy = Matrix.complex_([[complex(1, 1e-12), complex(-1e-12, 0)], [1, 0]])
    assert is_entrywise_nonneg(noisy, Tolerance(1e-9))
    assert not is_entrywise_nonneg(Matrix.complex_([[complex(0, 1)]]), Tolerance(1e-9))


def test_matrix_json_roundtrip_rational():
    s = kron(H2, Matrix.rational([[1, 2], [1, 1]]))
    assert matrix_from_json(matrix_to_json(s)) == s
    inv = inverse(s)
    assert matrix_from_json(matrix_to_json(inv)) == inv


def test_matrix_json_roundtrip_complex():
    A = Matrix.complex_([[complex(0.1, -2.5), 1], [3, complex(0, 1)]])
    assert matrix_from_json(matrix_to_json(A)) == A


def test_vector_json_roundtrip():
    x = Vector.rational(["-7/3", "0", "22/7"])
    assert vector_from_json(vector_to_json(x)) == x


def test_matrix_json_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_json('{"mode": "decimal", "rows": 1, "cols": 1, "data": ["1/1"]}')
    with pytest.raises(ValueError):
        matrix_from_json('{"mode": "rational", "rows": 2, "cols": 2, "data": ["1/1"]}')


def test_arrays_refuse_bad_entries_and_modes():
    with pytest.raises(TypeError, match="cannot use 0.5 as a rational entry"):
        Vector.rational([0.5])
    with pytest.raises(ValueError, match="unknown scalar mode 'real'"):
        Vector([1], "real")
    with pytest.raises(ValueError, match="unknown scalar mode 'real'"):
        Matrix([[1]], "real")


def test_arrays_refuse_empty_and_ragged_input():
    with pytest.raises(ValueError, match="vectors must be nonempty"):
        Vector.rational([])
    for rows in ([], [[]]):
        with pytest.raises(ValueError, match="matrices must be nonempty"):
            Matrix.rational(rows)
    with pytest.raises(ValueError, match="all rows must have equal length"):
        Matrix.rational([[1, 2], [3]])


def test_sums_refuse_a_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Vector.rational([1, 2]) + Vector.rational([1])
    A, B = Matrix.rational([[1, 2]]), Matrix.rational([[1], [2]])
    with pytest.raises(ValueError, match="shape mismatch"):
        A + B
    with pytest.raises(ValueError, match="shape mismatch"):
        A - B


def test_products_refuse_a_dimension_mismatch():
    A = Matrix.rational([[1, 2]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        A.scale_columns(Vector.rational([1]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        A.scale_columns(Matrix.rational([[1, 2, 3]]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        A @ Vector.rational([1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        A @ Matrix.rational([[1, 2]])
    with pytest.raises(TypeError, match="unsupported operand"):
        A @ 3
