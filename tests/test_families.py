import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import linalg
from perronkron.families import (
    VerificationFailedError,
    circulant,
    counterexample_factors,
    cycle_companion,
    dft,
    extremal_row_image,
    hadamard_like,
)
from perronkron.linalg import (
    COMPLEX,
    Matrix,
    Tolerance,
    Vector,
    inverse,
    kron,
    matrices_close,
)
from perronkron.perron import similarity_image


def test_hadamard_base_case():
    assert hadamard_like(2) == Matrix.rational([[1, 1], [1, -1]])


def test_hadamard_depth_three():
    h3 = hadamard_like(3)
    assert h3.nrows == 4
    assert h3.row(1) == Vector.rational([1, -1, 1, -1])
    assert h3 == kron(hadamard_like(2), hadamard_like(2))


def test_hadamard_gram_oracle():
    h4 = hadamard_like(4)
    assert h4.nrows == 8
    assert all(v in (1, -1) for row in h4.entries for v in row)
    assert h4 @ h4.transpose() == Matrix.identity(8).scale(8)


def test_hadamard_rejects_small_depth():
    with pytest.raises(ValueError):
        hadamard_like(1)


def test_dft_small_orders():
    assert dft(1) == Matrix.complex_([[1]])
    f2 = dft(2)
    assert matrices_close(f2, Matrix.complex_([[1, 1], [1, -1]]), Tolerance(1e-12))
    f4 = dft(4)
    expected_row = [1, 1j, -1, -1j]
    assert all(
        abs(f4.entries[1][j] - expected_row[j]) < 1e-12 for j in range(4)
    )


def test_dft_entries_are_root_powers():
    n = 7
    F = dft(n)
    omega = cmath.exp(2j * cmath.pi / n)
    for i in range(n):
        for j in range(n):
            assert abs(F.entries[i][j] - omega ** ((i * j) % n)) < 1e-12


def test_cycle_companion_structure():
    assert cycle_companion(1) == Matrix.identity(1)
    c3 = cycle_companion(3)
    assert c3 == Matrix.rational([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def test_cycle_companion_order():
    for n in range(1, 9):
        C = cycle_companion(n)
        power = Matrix.identity(n)
        for _ in range(n):
            power = power @ C
        assert power == Matrix.identity(n)


def test_circulant_examples():
    n = 4
    e1 = Vector.rational([1, 0, 0, 0])
    assert circulant(e1) == Matrix.identity(n)
    e2 = Vector.rational([0, 1, 0, 0])
    assert circulant(e2) == cycle_companion(n)


def test_circulant_rows_are_shifts():
    c = Vector.rational([1, 2, 3])
    A = circulant(c)
    assert A == Matrix.rational([[1, 2, 3], [3, 1, 2], [2, 3, 1]])


def test_circulant_diagonalized_by_dft():
    # Eigen-decomposition identity: F diag(F c) F^{-1} equals the
    # circulant with first row c, verified by explicit multiplication.
    c = Vector.rational([1, 2, 3])
    F = dft(3)
    spectrum = F @ c.to_complex()
    recon = similarity_image(F, spectrum)
    assert matrices_close(recon, circulant(c).to_complex(), Tolerance(1e-9))


def test_extremal_row_image_examples():
    assert matrices_close(
        extremal_row_image(3, 1), Matrix.identity(3, COMPLEX), Tolerance(1e-9)
    )
    assert matrices_close(
        extremal_row_image(3, 2), cycle_companion(3).to_complex(), Tolerance(1e-9)
    )
    c5 = cycle_companion(5).to_complex()
    c5_cubed = c5 @ c5 @ c5
    assert matrices_close(extremal_row_image(5, 4), c5_cubed, Tolerance(1e-9))


def test_extremal_row_image_all_small_orders():
    for n in range(1, 9):
        for k in range(1, n + 1):
            extremal_row_image(n, k)


def test_extremal_row_image_rejects_bad_index():
    with pytest.raises(ValueError):
        extremal_row_image(3, 4)


def test_counterexample_factors():
    h2, t = counterexample_factors()
    assert h2 == Matrix.rational([[1, 1], [1, -1]])
    assert t == Matrix.rational([[1, 2], [1, 1]])
    assert kron(h2, t) == Matrix.rational(
        [[1, 2, 1, 2], [1, 1, 1, 1], [1, 2, -1, -2], [1, 1, -1, -1]]
    )


# --- closed forms against the companion-power sum ----------------------------


def cycle_oracle(n):
    """The n-cycle permutation matrix, entry by entry."""
    return Matrix.rational(
        [[1 if j == (i + 1) % n else 0 for j in range(n)] for i in range(n)]
    )


def companion_power_sum(c):
    """Oracle: sum_k c_k C**(k-1), with C the cycle companion matrix."""
    n = c.dim
    C = cycle_oracle(n)
    if c.mode == COMPLEX:
        C = C.to_complex()
    power = Matrix.identity(n, c.mode)
    total = power.scale(c[0])
    for k in range(1, n):
        power = power @ C
        total = total + power.scale(c[k])
    return total


def _same_state(A, B):
    """Equal mode, denominator and numerators (rational) or equal bits
    (complex), and an equal ``entries`` view."""
    a, b = A.array_form(), B.array_form()
    if A.mode == COMPLEX:
        same = a.shape == b.shape and a.tobytes() == b.tobytes()
    else:
        same = a.den == b.den and a.bound == b.bound and np.array_equal(a.num, b.num)
    return A.mode == B.mode and same and A.entries == B.entries


@pytest.mark.parametrize("n", range(1, 25))
def test_circulant_matches_the_companion_power_sum_rational(n):
    rng = random.Random(n)
    for _ in range(3):
        c = Vector.rational(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)]
        )
        assert _same_state(circulant(c), companion_power_sum(c))


@pytest.mark.parametrize("n", range(1, 25))
def test_circulant_matches_the_companion_power_sum_complex(n):
    """Bitwise, for entries without a negative zero part."""
    rng = random.Random(100 + n)
    for _ in range(3):
        c = Vector.complex_(
            [complex(rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(-5, 5)]))
             for _ in range(n)]
        )
        assert _same_state(circulant(c), companion_power_sum(c))


def test_circulant_keeps_a_negative_zero_the_power_sum_dropped():
    """The one deliberate difference: entry (i, j) is c[(j - i) mod n] as
    given, where the sum added +0.0 to a -0.0 part.  `gen circulant` builds
    only rational circulants, so no CLI output changes."""
    c = Vector.complex_([complex(-0.0, 1.0), 2, 3])
    A, old = circulant(c), companion_power_sum(c)
    for i in range(3):
        assert math.copysign(1.0, A[i, i].real) == -1.0
        assert math.copysign(1.0, old[i, i].real) == 1.0
    assert matrices_close(A, old, Tolerance(0))


def test_cycle_companion_is_the_circulant_of_e2():
    for n in range(1, 40):
        assert _same_state(cycle_companion(n), cycle_oracle(n))


def _counting_products(monkeypatch):
    calls = []
    matmul = Matrix.__matmul__

    def spy(self, other):
        calls.append((self.nrows, self.ncols))
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    return calls


def test_closed_forms_form_no_product(monkeypatch):
    calls = _counting_products(monkeypatch)
    circulant(Vector.rational(list(range(1, 30))))
    circulant(Vector.complex_([1j, 2, -3.5]))
    cycle_companion(30)
    assert calls == []
    for n in range(1, 9):
        F_inv = inverse(dft(n))
        for k in range(1, n + 1):
            calls.clear()
            extremal_row_image(n, k, sinv=F_inv)
            # The similarity image under test is the only product.
            assert calls == [(n, n)]


def test_extremal_row_image_is_the_cycle_power():
    for n in range(1, 9):
        C = cycle_oracle(n).to_complex()
        power = Matrix.identity(n, COMPLEX)
        for k in range(1, n + 1):
            assert matrices_close(extremal_row_image(n, k), power, Tolerance(1e-9))
            power = power @ C


# --- dft and circulant index their n values into the state --------------------


def _oracle_dft(n):
    """The DFT matrix built entry by entry, each entry its own exp call."""
    return Matrix(
        [
            [cmath.exp(2j * cmath.pi * ((i * j) % n) / n) for j in range(n)]
            for i in range(n)
        ],
        COMPLEX,
    )


def _oracle_circulant(c):
    """Row i is c rotated right by i, built by slicing."""
    n, row = c.dim, list(c)
    return Matrix([row[n - i :] + row[: n - i] for i in range(n)], c.mode)


@pytest.mark.parametrize("n", list(range(1, 33)) + [60, 97, 128])
def test_dft_matches_the_entrywise_oracle_bit_for_bit(n):
    assert _same_state(dft(n), _oracle_dft(n))


def test_circulant_matches_the_slicing_oracle_bit_for_bit():
    rng = random.Random(5)
    specials = [0.0, -0.0, 1.5, -2.0, 5e-324]
    for n in range(1, 20):
        c = Vector.rational(
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 2**70])) for _ in range(n)]
        )
        assert _same_state(circulant(c), _oracle_circulant(c))
        z = Vector.complex_(
            [complex(rng.choice(specials), rng.choice(specials)) for _ in range(n)]
        )
        assert _same_state(circulant(z), _oracle_circulant(z))


def test_dft_and_cycle_coerce_only_n_values(monkeypatch):
    exps, coerced = [], []
    exp, coerce = cmath.exp, linalg._coerce
    monkeypatch.setattr(cmath, "exp", lambda z: exps.append(z) or exp(z))
    monkeypatch.setattr(
        linalg, "_coerce", lambda v, mode: coerced.append(v) or coerce(v, mode)
    )
    dft(64)
    assert (len(exps), len(coerced)) == (64, 64)
    exps.clear()
    coerced.clear()
    cycle_companion(64)
    circulant(Vector.complex_([1j, 2, -3.5]))
    assert (exps, len(coerced)) == ([], 3)
