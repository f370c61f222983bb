"""Differential tests of the rational inverse, its orthogonal-row closed
form and the integer kernel vector, against reference oracles that live
here, not in the library.

The oracles are the Fraction Gauss-Jordan loops that ``linalg.inverse``
and the ray scan's null spaces used before they moved onto fraction-free
elimination; ``bareiss_eliminate``, that fraction-free (Bareiss)
elimination, which the library used until its certified prime-field
profile replaced it; and the row-at-a-time Bareiss loop that its one
rank-1 update per pivot replaced.
"""
import math
import random
from fractions import Fraction
from typing import List, Tuple

import numpy as np
import pytest

from perronkron import linalg
from perronkron.families import hadamard_like
from perronkron.linalg import (
    Matrix,
    SingularMatrixError,
    Vector,
    diag_embed,
    integer_kernel,
    inverse,
    kron,
    rank_one,
)


def integer_form(rows) -> linalg.IntegerForm:
    """Clear the denominators of rows of Fractions."""
    return Matrix.rational(rows).array_form()


def bareiss_eliminate(M: np.ndarray) -> Tuple[List[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer array, in place.

    ``M`` is a numpy ``object`` array of Python ints.  Columns are taken in
    order; each pivots on its first nonzero entry at or below the rows
    already pivoted, and a column without one is skipped.  A pivot step
    with pivot p, after the previous pivot ``prev``, replaces all other
    rows at once by ``(p * row - row[c] * pivot_row) // prev``; the
    division is exact by Sylvester's identity.

    Returns the pivot columns, in the order of their pivot rows, and the
    last pivot (1 if there is none).  On return the rows holding pivots
    come first, each has the last pivot in its own pivot column and zeros
    in the other pivot columns, and the remaining rows are zero.
    """
    nrows, ncols = M.shape
    pivots: List[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(M[r:, c])
        if not len(nonzero):
            continue
        k = r + int(nonzero[0])
        if k != r:
            M[[r, k]] = M[[k, r]]
        p = M[r, c]
        others = np.arange(nrows) != r
        M[others] = rank_one(M[others], p, M[others, c], M[r]) // prev
        pivots.append(c)
        prev = p
    return pivots, prev


def _oracle_inverse(S: Matrix) -> Matrix:
    """Gauss-Jordan over Fractions, pivoting on the first nonzero entry."""
    n = S.nrows
    aug = [
        list(row) + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(S.entries)
    ]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col + 1}")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [v / piv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return Matrix.rational([row[n:] for row in aug])


def _oracle_null_space(rows, n):
    """Reduced row echelon form over Fractions; one vector per free column."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in [c for c in range(n) if c not in pivots]:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def _outcome(invert, S):
    try:
        return invert(S).entries
    except SingularMatrixError as exc:
        return f"SingularMatrixError: {exc}"


def _random_rows(rng, m, n, rank, lo=-6, hi=6):
    """m rows of width n spanning a space of dimension at most rank."""
    base = [
        [Fraction(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(n)]
        for _ in range(rank)
    ]
    rows = list(base)
    while len(rows) < m:
        if base:
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))
            r1, r2 = rng.choice(base), rng.choice(base)
            new = [a * x + b * y for x, y in zip(r1, r2)]
        else:
            new = [Fraction(0)] * n
        rows.insert(rng.randint(0, len(rows)), new)
    return rows


@pytest.mark.parametrize("n", range(1, 13))
def test_inverse_matches_oracle_on_seeded_matrices(n):
    rng = random.Random(1000 + n)
    singular = 0
    for trial in range(12):
        rank = n if trial % 3 else rng.randint(0, n - 1)
        S = Matrix.rational(_random_rows(rng, n, n, rank))
        expected = _outcome(_oracle_inverse, S)
        assert _outcome(inverse, S) == expected
        singular += isinstance(expected, str)
    assert singular >= 4  # every third case is rank deficient


def test_inverse_matches_oracle_on_sparse_matrices():
    """Zero patterns force row swaps and late pivots."""
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 7)
        S = Matrix.rational(
            [
                [rng.choice([0, 0, 0, 1, -1, Fraction(1, 2)]) for _ in range(n)]
                for _ in range(n)
            ]
        )
        assert _outcome(inverse, S) == _outcome(_oracle_inverse, S)


def test_singular_message_names_first_column_without_pivot():
    S = Matrix.rational([[1, 2, 3], [2, 4, 5], [3, 6, 7]])
    with pytest.raises(SingularMatrixError, match="no pivot in column 2"):
        inverse(S)
    with pytest.raises(SingularMatrixError, match="no pivot in column 1"):
        inverse(Matrix.rational([[0, 1], [0, 2]]))
    with pytest.raises(SingularMatrixError, match="no pivot in column 1"):
        inverse(Matrix.rational([[0]]))


@pytest.mark.parametrize("depth", range(2, 10))
def test_hadamard_inverse_is_scaled_hadamard(depth):
    H = hadamard_like(depth)
    assert inverse(H) == H.scale(Fraction(1, H.nrows))


def test_inverse_with_entries_near_2_to_80():
    rng = random.Random(80)
    big = 2**80
    for n in (1, 2, 3, 5):
        S = Matrix.rational(
            [
                [
                    Fraction(big + rng.randint(-99, 99), big - rng.randint(1, 99))
                    * rng.choice([1, -1])
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        assert S.array_form().num.dtype == object
        assert _outcome(inverse, S) == _outcome(_oracle_inverse, S)
    S = Matrix.rational([[big, 1], [1, big - 1]])
    assert inverse(S) == _oracle_inverse(S)
    assert S @ inverse(S) == Matrix.identity(2)


# --- the orthogonal-row closed form -----------------------------------------


def _sylvester(order):
    return Matrix.rational([[1]]) if order == 1 else hadamard_like(order.bit_length())


def _assert_same_state(A, B):
    """Equal canonical states, numerator dtype included."""
    a, b = A.array_form(), B.array_form()
    assert (a.den, a.bound, a.num.dtype) == (b.den, b.bound, b.num.dtype)
    assert np.array_equal(a.num, b.num)


def _weighted(H, weights, scale=1):
    """diag(weights) @ H, times scale."""
    return (diag_embed(Vector.rational(weights)) @ H).scale(scale)


def _orthogonal_rows_cases():
    rng = random.Random(11)
    for order in (1, 2, 4, 8, 16, 32, 64):
        yield f"sylvester-{order}", _sylvester(order)
    for order in (2, 4, 8, 16):
        H = _sylvester(order).entries
        for k in range(3):
            perm = rng.sample(range(order), order)
            signs = [rng.choice([1, -1]) for _ in range(order)]
            yield f"permuted-{order}-{k}", Matrix.rational([
                [signs[i] * v for v in H[perm[i]]] for i in range(order)
            ])
    for order in (1, 2, 4, 8):
        for k in range(4):
            weights = [
                Fraction(rng.choice([1, -1]) * rng.randint(1, 12), rng.randint(1, 9))
                for _ in range(order)
            ]
            scale = Fraction(rng.randint(1, 7), rng.randint(2, 11))
            yield f"weighted-{order}-{k}", _weighted(_sylvester(order), weights, scale)
    rotation = Matrix.rational([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    pythagorean = Matrix.rational([[1, 2, 2], [2, 1, -2], [2, -2, 1]])
    factors = {"H2": hadamard_like(2), "H4": hadamard_like(3), "H8": hadamard_like(4),
               "R": rotation, "P": pythagorean}
    for s, S in factors.items():
        for t, T in factors.items():
            if S.nrows * T.nrows <= 32:
                yield f"kron-{s}-{t}", kron(S, T)
    big = 2**80
    yield "object-pair", Matrix.rational([[big, 1], [-1, big]])
    yield "object-weighted", _weighted(_sylvester(4), [big, 1, -3, Fraction(big + 1, 7)])


@pytest.mark.parametrize(
    "S", [pytest.param(S, id=name) for name, S in _orthogonal_rows_cases()]
)
def test_orthogonal_rows_inverse_matches_oracle(S):
    N = S.array_form().num.astype(object)
    gram = N @ N.T
    assert np.count_nonzero(gram) == S.nrows == np.count_nonzero(np.diagonal(gram))
    _assert_same_state(inverse(S), _oracle_inverse(S))


def test_orthogonal_rows_case_list_covers_object_numerators():
    dtypes = {S.array_form().num.dtype for _, S in _orthogonal_rows_cases()}
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def _counting_primes(monkeypatch):
    """The number of primes each exact elimination tries, one count per
    elimination, in call order."""
    counts = []
    primes = linalg._primes

    def spy():
        counts.append(0)
        for q in primes():
            counts[-1] += 1
            yield q

    monkeypatch.setattr(linalg, "_primes", spy)
    return counts


def test_diagonal_gram_skips_elimination(monkeypatch):
    H = _sylvester(64)
    weighted = _weighted(_sylvester(8), [1, 2, Fraction(-1, 3), 5, 7, 1, 1, 9], Fraction(2, 3))
    expected = [H.scale(Fraction(1, 64)), _oracle_inverse(weighted)]

    def refuse():
        raise AssertionError("the exact elimination was called")

    monkeypatch.setattr(linalg, "_primes", refuse)
    assert [inverse(H), inverse(weighted)] == expected


def _counting_lifting(monkeypatch):
    calls = []
    kernel = linalg._lifted_inverse
    monkeypatch.setattr(
        linalg, "_lifted_inverse",
        lambda num, *rest: calls.append(num.shape) or kernel(num, *rest),
    )
    return calls


def test_non_diagonal_gram_takes_elimination(monkeypatch):
    """A matrix whose rows are not orthogonal takes the elimination mod p
    and its p-adic lifting, which decide both of these at the first prime."""
    near_miss = [list(row) for row in _sylvester(16).entries]
    near_miss[5][9] = Fraction(2)
    near_miss = Matrix.rational(near_miss)
    rng = random.Random(24)
    dense = Matrix.rational(_random_rows(rng, 12, 12, 12))
    calls = _counting_lifting(monkeypatch)
    primes = _counting_primes(monkeypatch)
    assert inverse(near_miss) == _oracle_inverse(near_miss)
    assert inverse(dense) == _oracle_inverse(dense)
    assert calls == [(16, 16), (12, 12)]
    assert primes == [1, 1]


def test_zero_rows_keep_singular_message(monkeypatch):
    """A zero row takes the elimination, also where N N^T has exactly n
    nonzero entries, two of them off the diagonal, and the first prime
    certifies the column without a pivot."""
    calls = _counting_primes(monkeypatch)
    with pytest.raises(SingularMatrixError, match="no pivot in column 2"):
        inverse(Matrix.rational([[1, 1], [0, 0]]))
    with pytest.raises(SingularMatrixError, match="no pivot in column 3"):
        inverse(Matrix.rational([[1, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4]))
    assert calls == [1, 1]


def _full_gram_decision(S):
    """The closed form's test on all of N N^T at once, over Python ints: the
    diagonal when N N^T is diagonal with no zero on it, else None."""
    N = S.array_form().num.astype(object)
    gram = N @ N.T
    g = np.diagonal(gram).tolist()
    return g if all(g) and np.count_nonzero(gram) == S.nrows else None


def _gram_decision_cases():
    rng = random.Random(48)
    for n in (1, 2, 5, 12, 24):
        yield f"dense-{n}", Matrix.rational(_random_rows(rng, n, n, n))
    big = 2**80
    yield "dense-object", Matrix.rational(
        [[big + rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
    )
    yield from _orthogonal_rows_cases()
    # Row 0 is orthogonal to every row; rows 5 and 6 are equal.
    repeated = [list(row) for row in _sylvester(8).entries]
    repeated[6] = repeated[5]
    yield "repeated-row", Matrix.rational(repeated)
    for k in (0, 3, 7):
        rows = [list(row) for row in _sylvester(8).entries]
        rows[k] = [0] * 8
        yield f"zero-row-{k}", Matrix.rational(rows)
    yield "zero-row-last", Matrix.rational([[1, 1], [0, 0]])
    yield "zero", Matrix.rational([[0] * 3] * 3)


_GRAM_CASES = list(_gram_decision_cases())


@pytest.mark.parametrize("S", [pytest.param(S, id=name) for name, S in _GRAM_CASES])
def test_row_zero_first_decides_as_the_full_gram(S):
    form = S.array_form()
    assert linalg._orthogonal_row_norms(form.num, form.bound) == _full_gram_decision(S)


def test_gram_decision_cases_cover_both_decisions():
    decisions = {_full_gram_decision(S) is None for _, S in _GRAM_CASES}
    assert decisions == {True, False}


def _product_shapes(monkeypatch):
    shapes = []
    product = linalg.integer_product

    def spy(op, *operands, bound):
        result = product(op, *operands, bound=bound)
        shapes.append(result.shape)
        return result

    monkeypatch.setattr(linalg, "integer_product", spy)
    return shapes


@pytest.mark.parametrize("name, shapes", [
    ("dense-24", [(24,)]),  # refused by row 0 alone
    ("zero-row-0", [(8,)]),
    ("repeated-row", [(8,), (8, 8)]),  # row 0 passes; the full product refuses
    ("sylvester-64", [(64,), (64, 64)]),
])
def test_row_zero_refuses_before_the_full_gram(monkeypatch, name, shapes):
    form = dict(_GRAM_CASES)[name].array_form()
    seen = _product_shapes(monkeypatch)
    linalg._orthogonal_row_norms(form.num, form.bound)
    assert seen == shapes


def test_kernel_invariant_each_pivot_row_ends_with_last_pivot():
    rng = random.Random(3)
    for _ in range(150):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        rows = _random_rows(rng, m, n, rng.randint(0, min(m, n)))
        M = integer_form(rows).num.astype(object)
        pivots, last = bareiss_eliminate(M)
        assert all(type(v) is int for v in M.ravel())
        assert pivots == sorted(set(pivots))
        for i, pc in enumerate(pivots):
            assert M[i, pc] == last != 0
            assert all(M[j, pc] == 0 for j in range(m) if j != i)
        assert all(v == 0 for v in M[len(pivots):].ravel())
        # Same row space as the input: equal reduced null spaces.
        reduced = [[Fraction(v) for v in row] for row in M.tolist()]
        assert _oracle_null_space(reduced, n) == _oracle_null_space(rows, n)


def test_kernel_last_pivot_is_determinant_up_to_sign():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        M = np.array(A, dtype=object)
        pivots, last = bareiss_eliminate(M)
        det = round(np.linalg.det(np.array(A, dtype=float)))
        if len(pivots) == n:
            assert abs(last) == abs(det)
        else:
            assert det == 0


# --- the rank-1 step against the row-at-a-time loop -------------------------


def _row_loop_eliminate(M, events):
    """``bareiss_eliminate`` as it ran before its rank-1 step: one row at a
    time, skipping the rows whose pivot-column entry is zero when p == prev.
    ``events`` collects which branches ran."""
    nrows, ncols = M.shape
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(M[r:, c])
        if not len(nonzero):
            events.add("column without pivot")
            continue
        k = r + int(nonzero[0])
        if k != r:
            M[[r, k]] = M[[k, r]]
        p = M[r, c]
        events.add("p == prev" if p == prev else "p != prev")
        pivot_row = M[r]
        for i in range(nrows):
            if i == r:
                continue
            f = M[i, c]
            if f:
                M[i] = (p * M[i] - f * pivot_row) // prev
            elif p != prev:
                M[i] = p * M[i] // prev
            if not f:
                events.add("zero in pivot column")
        pivots.append(c)
        prev = p
    return pivots, prev


def _integer_systems():
    """Seeded integer systems: sparse (zeros in pivot columns, steps with
    p == prev), with zero rows, wide and tall, and with entries near 2**80."""
    rng = random.Random(15)
    for trial in range(400):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        if trial % 4 == 0:
            values = [0, 0, 0, 1, -1]
        elif trial % 4 == 1:
            values = list(range(-9, 10))
        elif trial % 4 == 2:
            values = [2**80 + d for d in range(-3, 4)] + [-(2**80), 0, 1]
        else:
            values = [0, 1, 2, -3, 2**40]
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        for _ in range(rng.randint(0, 1)):
            rows[rng.randrange(m)] = [0] * n
        yield rows
    for rows in _random_rows(random.Random(16), 6, 9, 3), _random_rows(random.Random(17), 9, 4, 2):
        yield integer_form(rows).num.tolist()
    big = 2**80
    yield [[big + 1, big, 3], [big, big - 1, -5], [7, 0, big]]


def test_rank_one_step_matches_the_row_loop():
    events = set()
    shapes = set()
    for rows in _integer_systems():
        got = np.array(rows, dtype=object)
        expected = np.array(rows, dtype=object)
        assert bareiss_eliminate(got) == _row_loop_eliminate(expected, events)
        assert got.tolist() == expected.tolist()
        assert all(type(v) is int for v in got.ravel())
        shapes.add((got.shape[0] > got.shape[1]) - (got.shape[0] < got.shape[1]))
    assert events == {"column without pivot", "p == prev", "p != prev", "zero in pivot column"}
    assert shapes == {-1, 0, 1}



# --- the integer kernel vector ------------------------------------------------


def _inline_kernel(A, events):
    """The kernel read ``cones.enumerate_extreme_rays`` made inline before
    ``linalg.integer_kernel``, on an (n-1)-by-n array eliminated in place.
    ``events`` collects which outcomes ran."""
    n = A.shape[1]
    pivots, det = bareiss_eliminate(A)
    if len(pivots) != n - 1:
        events.add("rank below n - 1")
        return None
    free = (set(range(n)) - set(pivots)).pop()
    k = np.empty(n, dtype=object)
    k[free], k[pivots] = det, -A[:, free]
    if det < 0:
        events.add("negative last pivot")
        k = -k
    else:
        events.add("positive last pivot")
    return k


def _kernel_systems():
    """Seeded (n-1)-by-n integer systems for n = 2..8: dense and sparse,
    rank-deficient, and with entries past 2**62."""
    rng = random.Random(32)
    huge = [2**62, 2**62 + 1, -(2**63), 2**80 + 7, 0, 1, -1]
    for n in range(2, 9):
        for trial in range(16):
            kind = trial % 4
            if kind == 0:
                rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
            elif kind == 1:
                rows = [[rng.choice([0, 0, 1, -1]) for _ in range(n)] for _ in range(n - 1)]
            elif kind == 2:
                rank = rng.randint(0, n - 2)
                rows = integer_form(_random_rows(rng, n - 1, n, rank)).num.tolist()
            else:
                rows = [[rng.choice(huge) for _ in range(n)] for _ in range(n - 1)]
            yield rows


def test_integer_kernel_matches_the_inline_read():
    """``integer_kernel`` gives the inline read divided by the gcd of its
    entries, and leaves its argument as it was."""
    events = set()
    big = False
    for rows in _kernel_systems():
        n = len(rows[0])
        got = np.array(rows, dtype=object)
        k = integer_kernel(got)
        oracle = _inline_kernel(np.array(rows, dtype=object), events)
        assert got.tolist() == rows
        if oracle is None:
            assert k is None
            continue
        assert k.tolist() == (oracle // math.gcd(*oracle.tolist())).tolist()
        assert all(type(v) is int for v in k.tolist())
        # A positive multiple of the Fraction oracle's kernel vector, whose
        # free entry is 1: so k's free entry is positive.
        (basis,) = _oracle_null_space([[Fraction(v) for v in row] for row in rows], n)
        scale = next(v / b for v, b in zip(k.tolist(), basis) if b)
        assert scale > 0
        assert [scale * b for b in basis] == k.tolist()
        big = big or max(abs(v) for row in rows for v in row) >= 2**62
    assert events == {"rank below n - 1", "negative last pivot", "positive last pivot"}
    assert big
