import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perronkron.indexing import (
    IndexPair,
    division_identity_holds,
    fold_index,
    unfold_index,
)


def brute_force_fold(k: int, ell: int, m: int, n: int) -> int:
    """Oracle: expand e_k (x) e_l entrywise and locate the single 1."""
    x = [1 if i == k else 0 for i in range(1, m + 1)]
    y = [1 if j == ell else 0 for j in range(1, n + 1)]
    z = [x[math.ceil(i / n) - 1] * y[(i - 1) % n] for i in range(1, m * n + 1)]
    assert z.count(1) == 1
    return z.index(1) + 1


def test_fold_identity_case():
    assert fold_index(IndexPair(1, 1), 5) == 1


def test_fold_matches_brute_force_expansion():
    assert brute_force_fold(2, 3, 3, 4) == 7
    assert fold_index(IndexPair(2, 3), 4) == 7


def test_fold_last_index():
    for m, n in [(2, 2), (3, 5), (7, 1)]:
        assert fold_index(IndexPair(m, n), n) == m * n


def test_fold_rejects_bad_input():
    with pytest.raises(ValueError):
        fold_index(IndexPair(2, 5), 4)
    with pytest.raises(ValueError):
        fold_index(IndexPair(0, 1), 4)
    with pytest.raises(ValueError):
        fold_index(IndexPair(1, 1), 0)


def test_unfold_examples():
    # Inverse of the brute-force fold oracle over all (k, l) pairs.
    for k in range(1, 4):
        for ell in range(1, 5):
            i = brute_force_fold(k, ell, 3, 4)
            assert unfold_index(i, 4) == (k, ell)
    assert unfold_index(7, 4) == (2, 3)
    assert unfold_index(1, 9) == (1, 1)
    assert unfold_index(6, 6) == (1, 6)


def test_unfold_rejects_bad_input():
    with pytest.raises(ValueError):
        unfold_index(0, 4)
    with pytest.raises(ValueError):
        unfold_index(3, 0)


def test_division_identity_examples():
    assert division_identity_holds(7, 4)
    assert division_identity_holds(1, 1)
    # Floor-based remainder makes the identity hold for negative i too:
    # ceil(-3/5) = 0, (-3-1) % 5 = 1, so (0-1)*5 + 1 + 1 = -3.
    assert division_identity_holds(-3, 5)


@given(st.integers(-1000, 1000), st.integers(1, 64))
def test_division_identity_property(i, n):
    assert division_identity_holds(i, n)


@given(st.integers(1, 32), st.integers(1, 32), st.data())
def test_fold_unfold_roundtrip(m, n, data):
    i = data.draw(st.integers(1, m * n))
    assert fold_index(unfold_index(i, n), n) == i
    k = data.draw(st.integers(1, m))
    ell = data.draw(st.integers(1, n))
    assert unfold_index(fold_index(IndexPair(k, ell), n), n) == (k, ell)


def test_division_identity_refuses_a_zero_modulus():
    with pytest.raises(ValueError, match="modulus must be positive, got 0"):
        division_identity_holds(3, 0)
