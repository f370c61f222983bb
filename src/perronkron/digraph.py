"""Zero-pattern digraphs: irreducibility and the index of imprimitivity.

A square matrix is irreducible iff its digraph (edge i -> j when the
(i, j) entry is nonzero) is strongly connected.  The index of
imprimitivity of an irreducible matrix is the gcd of the lengths of the
closed directed walks; for a strongly connected digraph this equals the
gcd of |dist(u) + 1 - dist(v)| over all edges (u, v), with dist taken
from any fixed root.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import List, Tuple

from .linalg import Matrix, Tolerance, support


class NotIrreducibleError(ValueError):
    """Raised when an operation requires an irreducible matrix."""


@dataclass(frozen=True)
class Digraph:
    """Adjacency-list digraph on vertices 0..order-1; self-loops allowed."""

    order: int
    succ: Tuple[Tuple[int, ...], ...]

    def edges(self) -> List[Tuple[int, int]]:
        return [(u, v) for u in range(self.order) for v in self.succ[u]]


def digraph_of(A: Matrix, tol: Tolerance = Tolerance()) -> Digraph:
    """Digraph of the zero pattern of a square matrix."""
    if not A.is_square:
        raise ValueError("digraphs require square matrices")
    succ = tuple(tuple(row.nonzero()[0].tolist()) for row in support(A, tol))
    return Digraph(A.nrows, succ)


def _reachable_all(succ, n: int, start: int = 0) -> bool:
    seen = [False] * n
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in succ[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def is_strongly_connected(g: Digraph) -> bool:
    # Order 1 demands a self-loop: every vertex must lie on a closed walk,
    # so the 1-by-1 zero matrix counts as reducible.
    if g.order == 1:
        return bool(g.succ[0])
    if not _reachable_all(g.succ, g.order):
        return False
    rev: List[List[int]] = [[] for _ in range(g.order)]
    for u, v in g.edges():
        rev[v].append(u)
    return _reachable_all(rev, g.order)


def is_irreducible(A: Matrix, tol: Tolerance = Tolerance()) -> bool:
    """A square matrix is irreducible iff its digraph is strongly connected."""
    return is_strongly_connected(digraph_of(A, tol))


def imprimitivity_index(A: Matrix, tol: Tolerance = Tolerance()) -> int:
    """gcd of the closed directed walk lengths of an irreducible matrix."""
    g = digraph_of(A, tol)
    if not is_strongly_connected(g):
        raise NotIrreducibleError("imprimitivity index requires irreducibility")
    dist = [-1] * g.order
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    period = 0
    for u, v in g.edges():
        period = math.gcd(period, abs(dist[u] + 1 - dist[v]))
    return period


def kron_irreducibility_predicate(
    A: Matrix, B: Matrix, tol: Tolerance = Tolerance()
) -> bool:
    """Whether the Kronecker product of two irreducible matrices is irreducible.

    Equivalent to the imprimitivity indices of the factors being coprime.
    """
    return math.gcd(imprimitivity_index(A, tol), imprimitivity_index(B, tol)) == 1
