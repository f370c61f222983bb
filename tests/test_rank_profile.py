"""Differential tests of the certified rank profile, the library's one exact
elimination, against the Bareiss oracle of ``test_bareiss``.

``linalg._rank_profile`` eliminates modulo the primes of ``linalg._primes``
in turn, lifts the inverse of the pivot block and certifies that the
profile it found mod p is the profile over Q; ``inverse`` and
``integer_kernel`` read it.  Bareiss elimination over the integers gives
the profile over Q directly: its pivot columns, its inverse and its kernel
vector, which the prime field must reproduce, the kernel vector up to its
content.  The spy of ``test_bareiss`` counts the primes each elimination
tries.
"""
import math
import random

import numpy as np
import pytest

from perronkron import families, linalg, perron
from perronkron.cones import enumerate_extreme_rays
from perronkron.linalg import Matrix, SingularMatrixError, integer_kernel, inverse, kron
from test_bareiss import (
    _counting_primes,
    _inline_kernel,
    _random_rows,
    bareiss_eliminate,
    integer_form,
)
from test_padic_inverse import _bareiss_inverse, _outcome

P = 1048573


def _primes_by_sieve(lo, hi):
    """The primes in [lo, hi], descending, by the sieve of Eratosthenes."""
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for f in range(2, math.isqrt(hi) + 1):
        if sieve[f]:
            sieve[f * f :: f] = False
    return [q for q in range(hi, lo - 1, -1) if sieve[q]]


def test_the_primes_descend_from_p_without_a_gap():
    expected = _primes_by_sieve(P - 3000, P)
    primes = linalg._primes()
    assert [next(primes) for _ in expected] == expected
    assert expected[0] == P


def _first_two_primes():
    primes = linalg._primes()
    return next(primes), next(primes)


def _oracle_pivots(num):
    return bareiss_eliminate(num.astype(object))[0]


def _oracle_kernel(num):
    """The kernel vector Bareiss reads off an (n-1)-by-n array, its free
    entry made positive and its content divided out, or None."""
    k = _inline_kernel(num.astype(object), set())
    return None if k is None else (k // math.gcd(*k.tolist())).tolist()


def _kernel_outcome(num):
    k = integer_kernel(num.astype(object))
    return None if k is None else k.tolist()


def _assert_certified(num, pivots, d, z):
    """``num[:, F] d = num[:, P] Z``, with Z zero at each pivot column right
    of its column f, checked over Python ints; no Z when every column
    pivots."""
    free = [c for c in range(num.shape[1]) if c not in pivots]
    assert d > 0
    assert (z is None) == (not free)
    if z is None:
        return
    N, Z = num.astype(object), z.astype(object)
    assert (N[:, free] * d == N[:, pivots] @ Z).all()
    for i, c in enumerate(pivots):
        for j, f in enumerate(free):
            assert c < f or Z[i, j] == 0


def _systems(rng, n, trials=3):
    """Seeded (n-1)-by-n and square integer arrays of every rank from full
    down to n - 3."""
    for m in (n - 1, n):
        for rank in range(min(m, n), max(n - 3, 0) - 1, -1):
            for _ in range(trials):
                yield integer_form(_random_rows(rng, m, n, rank)).num


def _compare_with_the_oracle(num):
    """The profile of ``num`` equals Bareiss's and is certified, and the
    inverse or kernel vector read off it equals the oracle's."""
    bound = int(abs(num.astype(object)).max(initial=0))
    pivots, _, d, z = linalg._rank_profile(num, bound)
    assert pivots == _oracle_pivots(num)
    _assert_certified(num, pivots, d, z)
    m, n = num.shape
    if m == n:
        S = Matrix.rational(num.tolist())
        assert _outcome(inverse, S) == _outcome(_bareiss_inverse, S)
    else:
        assert _kernel_outcome(num) == _oracle_kernel(num)
    return pivots


@pytest.mark.parametrize("n", range(2, 9))
def test_profile_matches_bareiss_at_every_rank(monkeypatch, n):
    rng = random.Random(3500 + n)
    calls = _counting_primes(monkeypatch)
    ranks = set()
    for num in _systems(rng, n):
        del calls[:]
        pivots = _compare_with_the_oracle(num)
        # The first prime decides every elimination.
        assert calls and set(calls) == {1}
        ranks.add((num.shape[0] - len(pivots), num.shape[0]))
    # Full rank and each deficiency down to n - 3, for both shapes.
    assert {d for d, m in ranks if m == n} == set(range(min(n, 3) + 1))
    assert {d for d, m in ranks if m == n - 1} == set(range(min(n - 1, 2) + 1))


@pytest.mark.parametrize("factor, primes", [
    pytest.param(P, 2, id="p"),
    pytest.param(math.prod(_first_two_primes()), 3, id="first-two-primes"),
])
@pytest.mark.parametrize("n", range(2, 9))
def test_a_pivot_column_scaled_by_primes_takes_the_next_prime(monkeypatch, n, factor, primes):
    """A pivot column over Q that each prime of ``factor`` maps to zero:
    each of those primes finds another profile, fails its certificate or
    its lifting, and the next prime decides."""
    rng = random.Random(3600 + n)
    calls = _counting_primes(monkeypatch)
    for num in _systems(rng, n, trials=1):
        pivots = _oracle_pivots(num)
        if not pivots:
            continue
        scaled = num.astype(object)
        scaled[:, rng.choice(pivots)] *= factor
        scaled = linalg.integer_array(scaled, int(abs(scaled).max()))
        del calls[:]
        assert _compare_with_the_oracle(scaled) == pivots
        assert calls[0] == primes


@pytest.mark.parametrize("rows, message", [
    ([[0]], "no pivot in column 1"),
    ([[0, 0], [0, 0]], "no pivot in column 1"),
    ([[0] * 5] * 5, "no pivot in column 1"),
    ([[1, 2, 0], [0, 0, 0], [3, 1, 1]], "no pivot in column 3"),
    ([[0, 0, 0], [2, 1, 7], [0, 0, 0]], "no pivot in column 2"),
    ([[1, 0], [0, 0]], "no pivot in column 2"),
])
def test_zero_matrices_and_zero_rows_match_the_oracle(rows, message):
    num = np.array(rows, dtype=np.int64)
    _compare_with_the_oracle(num)
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        inverse(Matrix.rational(rows))


@pytest.mark.parametrize("rows", [
    [[0]],
    [[0, 0]],
    [[0, 0, 0], [0, 0, 0]],
    [[1, 2, 3], [0, 0, 0]],
    [[0, 0, 0], [4, 0, -2]],
    [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 5]],
])
def test_kernels_of_zero_and_zero_row_systems_match_the_oracle(rows):
    _compare_with_the_oracle(np.array(rows, dtype=np.int64))


def test_an_empty_system_has_the_unit_kernel_vector():
    assert integer_kernel(np.zeros((0, 1), dtype=object)).tolist() == [1]


def test_the_trap_names_column_2(monkeypatch):
    """Mod P column 1 is zero and column 2 pivots, of the same rank as over
    Q: a certificate of the rank alone would name column 1.  The first
    prime's profile fails the certificate, and the next names column 2, as
    Bareiss does."""
    rows = [[P, 1], [0, 0]]
    num = np.array(rows, dtype=np.int64)
    assert linalg._profile_mod_prime(num, P)[0] == [1]
    calls = _counting_primes(monkeypatch)
    with pytest.raises(SingularMatrixError, match="^no pivot in column 2$"):
        inverse(Matrix.rational(rows))
    assert calls == [2]
    assert _compare_with_the_oracle(num) == [0]


def _rays(M):
    rays = enumerate_extreme_rays(perron.cone_inequalities(M))
    return [[f"{p}/{q}" for p, q in ray.to_pairs()] for ray in rays]


def test_extreme_rays_keep_their_values():
    """The rays of C(H3), of the counterexample's factor S and of H2 (x) S,
    as they were when Bareiss gave the kernel vectors."""
    H2, S = families.counterexample_factors()
    assert _rays(families.hadamard_like(3)) == [
        ["1/1", "-1/1", "-1/1", "1/1"],
        ["1/1", "-1/1", "1/1", "-1/1"],
        ["1/1", "1/1", "-1/1", "-1/1"],
        ["1/1", "1/1", "1/1", "1/1"],
    ]
    assert _rays(S) == [["1/1", "1/1"]]
    assert _rays(kron(H2, S)) == [
        ["1/1", "1/1", "-1/1", "-1/1"],
        ["1/1", "1/1", "1/1", "1/1"],
    ]
