import math

import numpy as np
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


# Grids, taken elementwise: each function's result on a grid is the list of
# its int results, entry by entry.  Entries and n run past int64, where the
# grid is computed on Python ints.
INTS = st.integers(-(2**70), 2**70)
MODULI = st.one_of(st.integers(1, 64), st.integers(1, 2**70))
RANGES = st.builds(
    range,
    st.integers(-2000, 2000),
    st.integers(-2000, 2000),
    st.integers(-7, 7).filter(bool),
)
GRIDS = st.one_of(RANGES, st.lists(INTS, max_size=40))


def _positive(grid):
    return [abs(i) + 1 for i in grid]


def _refusal(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@given(GRIDS, MODULI)
def test_division_identity_grid_matches_scalar_calls(grid, n):
    assert division_identity_holds(grid, n).tolist() == [
        division_identity_holds(i, n) for i in grid
    ]


@given(GRIDS, MODULI)
def test_unfold_grid_matches_scalar_calls(grid, n):
    grid = _positive(grid)
    outer, inner = unfold_index(grid, n)
    assert list(zip(outer.tolist(), inner.tolist())) == [unfold_index(i, n) for i in grid]


@given(MODULI, st.data())
def test_fold_grid_matches_scalar_calls(n, data):
    ks = _positive(data.draw(GRIDS))
    ells = data.draw(st.lists(st.integers(1, n), min_size=len(ks), max_size=len(ks)))
    assert fold_index(IndexPair(ks, ells), n).tolist() == [
        fold_index(IndexPair(k, ell), n) for k, ell in zip(ks, ells)
    ]


@pytest.mark.parametrize("grid, n", [
    (range(2**63 - 3, 2**63 + 3), 5),
    (range(-(2**63) - 2, -(2**63) + 2), 3),
    ([2**62, 2**63 - 1], 4),
    (range(1, 40), 2**62),
])
def test_grids_past_int64_stay_exact(grid, n):
    assert division_identity_holds(grid, n).tolist() == [True] * len(grid)
    if min(grid) >= 1:
        outer, inner = unfold_index(grid, n)
        assert list(zip(outer.tolist(), inner.tolist())) == [unfold_index(i, n) for i in grid]
        ells = [min(i, n) for i in grid]
        assert fold_index(IndexPair(grid, ells), n).tolist() == [
            fold_index(IndexPair(i, ell), n) for i, ell in zip(grid, ells)
        ]


@given(INTS, st.integers(1, 2**70))
def test_an_int_index_returns_python_scalars(i, n):
    assert type(division_identity_holds(i, n)) is bool
    i = abs(i) + 1
    pair = unfold_index(i, n)
    assert type(pair) is IndexPair
    assert [type(v) for v in pair] == [int, int]
    assert type(fold_index(pair, n)) is int


@given(MODULI, st.data())
def test_a_grid_with_one_bad_entry_refuses_as_its_scalar_call(n, data):
    grid = _positive(data.draw(GRIDS))
    at = data.draw(st.integers(0, len(grid)))
    bad = data.draw(st.integers(-(2**70), 0))
    flat = grid[:at] + [bad] + grid[at:]
    assert _refusal(lambda: unfold_index(flat, n)) == _refusal(lambda: unfold_index(bad, n))

    ks = [1] * len(grid)
    ells = [1] * len(grid)
    for pair in (IndexPair(bad, 1), IndexPair(1, bad), IndexPair(1, n + 1 + abs(bad))):
        grids = IndexPair(ks[:at] + [pair.outer] + ks[at:], ells[:at] + [pair.inner] + ells[at:])
        assert _refusal(lambda: fold_index(grids, n)) == _refusal(lambda: fold_index(pair, n))


def test_every_refusal_keeps_its_message():
    assert _refusal(lambda: unfold_index(range(-1, 3), 4)) == "index must be positive, got -1"
    assert _refusal(lambda: fold_index(IndexPair([1, 2], [5, 0]), 4)) == (
        "indices must be positive, got IndexPair(outer=2, inner=0)"
    )
    assert _refusal(lambda: fold_index(IndexPair([1, 2], [5, 1]), 4)) == (
        "inner index 5 exceeds inner dimension 4"
    )
    assert _refusal(lambda: division_identity_holds(range(3), 0)) == (
        "modulus must be positive, got 0"
    )


# Grids that numpy alone would not hold exactly: ints that mix int64 and
# larger magnitudes become float64 in `np.asarray`, and ints in
# [2**63, 2**64) become uint64.
EXACT_GRIDS = [
    [1, 2**63],
    [2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1],
    [3, 2**62 + 1, 2**63 + 5, 2**64, 2**64 + 7, 2**70 + 1],
]


def _python_scalars(values):
    return [type(v) in (int, bool) for v in values] == [True] * len(values)


@pytest.mark.parametrize("grid", EXACT_GRIDS, ids=["mixed", "uint64", "past-2**64"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_every_grid_of_python_ints_is_computed_exactly(grid, n):
    holds = division_identity_holds(grid, n).tolist()
    assert holds == [division_identity_holds(i, n) for i in grid]
    assert _python_scalars(holds)

    outer, inner = (part.tolist() for part in unfold_index(grid, n))
    assert list(zip(outer, inner)) == [unfold_index(i, n) for i in grid]
    assert _python_scalars(outer + inner)

    ells = [min(i, n) for i in grid]
    flat = fold_index(IndexPair(grid, ells), n).tolist()
    assert flat == [fold_index(IndexPair(i, ell), n) for i, ell in zip(grid, ells)]
    assert _python_scalars(flat)


@pytest.mark.parametrize("index", [
    np.int64(5),
    np.array([5, 2**62 + 7]),
    np.array([2**63, 2**64 - 1], dtype=np.uint64),
], ids=["int64-scalar", "int64", "uint64"])
@pytest.mark.parametrize("n", [3, 2**70])
def test_numpy_integers_past_int64_stay_exact(index, n):
    ints = np.ravel(index).tolist()
    outer, inner = unfold_index(index, n)
    pairs = list(zip(np.ravel(outer).tolist(), np.ravel(inner).tolist()))
    assert pairs == [unfold_index(i, n) for i in ints]
    assert _python_scalars([v for pair in pairs for v in pair])
