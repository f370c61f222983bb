"""The entry tests of ``linalg`` against entry-by-entry oracles.

``support``, ``inf_norm``, ``matrices_close``, ``digraph_of`` and the
all-ones-row test of ``is_ideal`` run on the array state; each oracle here
loops over the ``Fraction``/``complex`` entries with Python's own ``abs``,
as the library did before.  Complex decisions must agree bit for bit, also
for subnormal entries, entries whose modulus is exactly ``eps``, and values
where ``np.abs`` rounds differently from Python's ``abs``.
"""
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import perron, verification
from perronkron.digraph import digraph_of
from perronkron.families import dft, hadamard_like
from perronkron.linalg import (
    Matrix,
    Tolerance,
    Vector,
    inf_norm,
    matrices_close,
    ones_vector,
    p_norm,
    support,
)

# abs(Z) is 0.3329326245916573 but np.abs(Z) is 0.33293262459165734.
Z = -0.2600896669038415 + 0.20784007719238895j
EPS = 1e-9
SPECIAL = [0j, -0.0 + 0j, 5e-324 + 0j, -5e-324j, 1e-310 + 1e-310j, EPS + 0j, -EPS * 1j, Z, 1]
TOLERANCES = [Tolerance(0), Tolerance(EPS), Tolerance(abs(Z)), Tolerance(1e-300)]


def _rational_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 2:
        return Fraction(rng.choice([-1, 1]) * (2**40 + rng.randrange(99)), rng.randint(1, 9))
    return Fraction(rng.choice([-1, 1]) * (2**70 + rng.randrange(2**10)))


def _complex_value(rng):
    if rng.random() < 0.5:
        return rng.choice(SPECIAL)
    scale = rng.choice([1.0, EPS, abs(Z), 1e-308])
    return complex(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)


def _arrays(seed, count=60):
    """Seeded rational and complex vectors and square matrices."""
    rng = random.Random(seed)
    for _ in range(count):
        mode = rng.choice(["rational", "complex"])
        value = _rational_value if mode == "rational" else _complex_value
        n = rng.randint(1, 6)
        if rng.random() < 0.5:
            yield Vector([value(rng) for _ in range(n)], mode)
        else:
            yield Matrix([[value(rng) for _ in range(n)] for _ in range(n)], mode)


def _nested(A):
    """The entries of A as a list of rows (a vector is one row)."""
    return A.entries if isinstance(A, Matrix) else [A.entries]


def _nonzero(v, tol):
    return abs(v) > tol.eps if isinstance(v, complex) else v != 0


def support_oracle(A, tol):
    rows = [[_nonzero(v, tol) for v in row] for row in _nested(A)]
    return rows if isinstance(A, Matrix) else rows[0]


def inf_norm_oracle(x):
    return max(abs(v) for v in x.entries)


def close_oracle(A, B, tol):
    a, b = _nested(A), _nested(B)
    if type(A) is not type(B) or [len(r) for r in a] != [len(r) for r in b]:
        return False
    if A.mode == "rational":
        return all(u == v for ra, rb in zip(a, b) for u, v in zip(ra, rb))
    return all(abs(u - v) <= tol.eps for ra, rb in zip(a, b) for u, v in zip(ra, rb))


def digraph_oracle(A, tol):
    return tuple(
        tuple(j for j, v in enumerate(row) if _nonzero(v, tol)) for row in A.entries
    )


def ones_row_oracle(S, tol):
    if S.mode == "rational":
        return any(all(v == 1 for v in row) for row in S.entries)
    return any(all(abs(v - 1.0) <= tol.eps for v in row) for row in S.entries)


def old_row_combination(rng, S):
    """The sampler as a loop of scalings and sums."""
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(S.nrows)]
    if all(w == 0 for w in weights):
        weights[0] = Fraction(1)
    combo = S.row(0).scale(weights[0])
    for i in range(1, S.nrows):
        combo = combo + S.row(i).scale(weights[i])
    return combo


@pytest.mark.parametrize("seed", range(4))
def test_support_matches_the_entry_loop(seed):
    for A in _arrays(seed):
        for tol in TOLERANCES:
            mask = support(A, tol)
            assert mask.dtype == bool
            assert mask.tolist() == support_oracle(A, tol)


@pytest.mark.parametrize("seed", range(4))
def test_inf_norm_matches_the_entry_loop(seed):
    for A in _arrays(seed):
        for x in A.rows() if isinstance(A, Matrix) else [A]:
            norm = inf_norm(x)
            assert norm == inf_norm_oracle(x)
            assert type(norm) is (Fraction if x.mode == "rational" else float)
            assert p_norm(x, math.inf) == max(abs(complex(v)) for v in x.entries)


@pytest.mark.parametrize("seed", range(4))
def test_matrices_close_matches_the_entry_loop(seed):
    rng = random.Random(seed)
    arrays = list(_arrays(seed))
    for A in arrays:
        nudged = [
            [v + rng.choice([0, 0, EPS, Z, 5e-324j]) if A.mode == "complex" else v
             for v in row]
            for row in _nested(A)
        ]
        B = type(A)(nudged if isinstance(A, Matrix) else nudged[0], A.mode)
        others = [A, B] + [C for C in arrays if C.mode == A.mode][:6]
        for other in others:
            for tol in TOLERANCES:
                assert matrices_close(A, other, tol) == close_oracle(A, other, tol)


def test_modulus_exactly_at_eps_is_zero_and_close():
    """Z has modulus exactly eps under Python's abs, and np.abs overshoots it."""
    tol = Tolerance(abs(Z))
    assert np.abs(np.array([Z]))[0] > abs(Z)
    assert support(Vector.complex_([Z, 2 * Z]), tol).tolist() == [False, True]
    assert inf_norm(Vector.complex_([Z])) == abs(Z)
    assert matrices_close(Vector.complex_([Z]), Vector.complex_([0]), tol)
    assert digraph_of(Matrix.complex_([[Z, 1], [1, Z]]), tol).succ == ((1,), (0,))


def test_arrays_of_different_shapes_are_never_close():
    assert not matrices_close(Vector.complex_([1]), Vector.complex_([1, 1, 1]))
    assert not matrices_close(Matrix.complex_([[1, 1]]), Matrix.complex_([[1, 1], [1, 1]]))
    assert not matrices_close(Vector.complex_([1, 1]), Matrix.complex_([[1, 1]]))
    assert not matrices_close(Vector.rational([1, 1]), Matrix.rational([[1, 1]]))


@pytest.mark.parametrize("seed", range(4))
def test_digraph_of_matches_the_entry_loop(seed):
    for A in _arrays(seed):
        if isinstance(A, Matrix):
            for tol in TOLERANCES:
                assert digraph_of(A, tol).succ == digraph_oracle(A, tol)


@pytest.mark.parametrize("seed", range(4))
def test_all_ones_row_test_matches_the_entry_loop(seed, monkeypatch):
    """is_ideal with every spectracone test passing is its all-ones-row test."""
    monkeypatch.setattr(perron, "in_spectracone", lambda *args: True)
    rng = random.Random(seed)
    near_one = [1, 1, 1 + EPS, 1 - 2 * EPS, 1 + 5e-324j, 1 + Z * EPS, 1 - 1e-16]
    for A in _arrays(seed):
        if not isinstance(A, Matrix):
            continue
        values = near_one if A.mode == "complex" else [1, 1, 1, Fraction(1, 2)]
        rows = [
            [rng.choice(values) for _ in row] if rng.random() < 0.5 else list(row)
            for row in A.entries
        ]
        S = Matrix(rows, A.mode)
        for tol in TOLERANCES:
            assert perron.is_ideal(S, tol, sinv=S) == ones_row_oracle(S, tol)


def test_row_combination_matches_the_loop_and_draws_alike():
    rng = random.Random(3)
    matrices = [hadamard_like(n) for n in (2, 3, 4)]
    matrices += [verification._random_rational_matrix(rng, n, n) for n in (1, 2, 5, 6)]
    for seed in range(20):
        old, new = random.Random(seed), random.Random(seed)
        for S in matrices:
            combination = verification._nonneg_row_combination(new, S)
            assert combination == old_row_combination(old, S)
            assert new.getstate() == old.getstate()


def test_row_combination_with_all_weights_zero_is_the_first_row():
    class Lowest(random.Random):
        def randint(self, a, b):
            return a

    S = hadamard_like(3)
    assert verification._nonneg_row_combination(Lowest(), S) == S.row(0)
    assert old_row_combination(Lowest(), S) == S.row(0)


def test_the_totally_nonzero_tests_are_exact_in_complex_mode():
    tiny = Vector.complex_([1, 5e-324, 1e-310j])
    assert support(tiny, Tolerance(0)).all()
    assert not support(Vector.complex_([1, -0.0]), Tolerance(0)).all()
    assert support(dft(3).row(1), Tolerance(0)).all()
    assert support(ones_vector(3, "complex"), Tolerance(0)).all()
