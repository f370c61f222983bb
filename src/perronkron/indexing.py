"""1-based index arithmetic for Kronecker products.

A Kronecker product of an m-vector and an n-vector lives in dimension m*n;
entry i of the product is the pair (ceil(i/n), (i-1) % n + 1) of factor
indices.  Everything here is 1-based; `%` is the nonnegative (floor
division) remainder, which is Python's native convention for positive
moduli.

An index may be an int or an integer grid, taken elementwise.  A grid is a
range or a 1-D sequence of ints, and one expression serves both: an int
gives a Python int, bool or IndexPair of ints, a grid a 1-D array of the
results.  The inner dimension n is always an int.  A refusal is decided
over every entry and names the first entry that fails, as the int call
would.  Grid arithmetic is exact for a grid of any Python ints, mixed
magnitudes included: a grid whose entries times n could leave int64 is
computed on the entries' Python ints.
"""
from __future__ import annotations

import operator
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

Index = Union[int, range, Sequence[int], np.ndarray]
# An int index as it is, a grid as an array.
Grid = Union[int, np.ndarray]

_INT64_MAX = 2**63 - 1


class IndexPair(NamedTuple):
    """Outer/inner factor indices of a Kronecker-product position."""

    outer: Index
    inner: Index


def _fits_int64(ends: Sequence[int], n: int) -> bool:
    """Whether every expression here stays within int64 for entries no
    larger in magnitude than ``ends`` and inner dimension n >= 1."""
    return (max(abs(int(e)) for e in ends) + 1) * (n + 1) <= _INT64_MAX


def _grid(index: Index, n: int) -> Grid:
    """An int as it is; a grid as a 1-D array, of int64 when that is exact
    for this n, else of Python ints."""
    if isinstance(index, int):
        return index
    if isinstance(index, range):
        # np.arange, not np.asarray, which iterates the range in Python.
        if _fits_int64((index.start, index.stop), n):
            return np.arange(index.start, index.stop, index.step)
        return np.array(index, dtype=object)
    grid = np.asarray(index)
    if grid.dtype == np.int64 and (not grid.size or _fits_int64((grid.min(), grid.max()), n)):
        return grid
    if grid.dtype.kind in "iub":
        return grid.astype(object)
    # numpy holds ints that mix int64 and larger magnitudes as float64, so
    # such a grid is built from its entries' own ints.
    return np.array([operator.index(i) for i in index], dtype=object)


def _first(bad, *entries) -> Optional[Tuple[object, ...]]:
    """The ``entries`` at the first position where ``bad`` holds, or None
    when it holds nowhere.  For int indices ``bad`` is a bool and the
    entries are returned as they are."""
    if isinstance(bad, bool):
        return entries if bad else None
    if not bad.any():
        return None
    at = int(bad.argmax())
    return tuple(
        np.broadcast_to(np.asarray(e, dtype=object), bad.shape).flat[at] for e in entries
    )


def _ceil_div(i: Grid, n: int) -> Grid:
    return -((-i) // n)


def fold_index(pair: IndexPair, n: int) -> Grid:
    """Map (k, l) to the flat index (k-1)*n + l of e_k (x) e_l."""
    if n < 1:
        raise ValueError(f"inner dimension must be positive, got {n}")
    k, ell = (_grid(index, n) for index in pair)
    bad = _first((k < 1) | (ell < 1), k, ell)
    if bad is not None:
        raise ValueError(f"indices must be positive, got {IndexPair(*bad)}")
    bad = _first(ell > n, ell)
    if bad is not None:
        raise ValueError(f"inner index {bad[0]} exceeds inner dimension {n}")
    return (k - 1) * n + ell


def unfold_index(i: Index, n: int) -> IndexPair:
    """Split flat index i into (ceil(i/n), (i-1) % n + 1)."""
    if n < 1:
        raise ValueError(f"inner dimension must be positive, got {n}")
    i = _grid(i, n)
    bad = _first(i < 1, i)
    if bad is not None:
        raise ValueError(f"index must be positive, got {bad[0]}")
    return IndexPair(_ceil_div(i, n), (i - 1) % n + 1)


def division_identity_holds(i: Index, n: int) -> Union[bool, np.ndarray]:
    """Check i == (ceil(i/n) - 1)*n + (i-1) % n + 1.

    Always true for integer i and positive n; kept as an executable oracle
    for the test suite.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    i = _grid(i, n)
    return i == (_ceil_div(i, n) - 1) * n + (i - 1) % n + 1
