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
from typing import List, Sequence, Tuple

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


def _distances(succ: Sequence[Sequence[int]]) -> List[int]:
    """Breadth-first distance from vertex 0 to each vertex, -1 where unreached."""
    dist = [-1] * len(succ)
    dist[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _reachability(A: Matrix, tol: Tolerance) -> Tuple[Digraph, List[int], bool]:
    """The digraph g of A, the breadth-first distances from vertex 0 in g,
    and whether g is strongly connected: vertex 0 reaches every vertex in g
    and in its reverse, the digraph of A^T."""
    g = digraph_of(A, tol)
    dist = _distances(g.succ)
    # Order 1 demands a self-loop: every vertex must lie on a closed walk,
    # so the 1-by-1 zero matrix counts as reducible.  A larger digraph with
    # a vertex that vertex 0 does not reach needs no reverse walk.
    if g.order == 1 or -1 in dist:
        return g, dist, g.order == 1 and bool(g.succ[0])
    reverse = digraph_of(A.transpose(), tol)
    return g, dist, -1 not in _distances(reverse.succ)


def is_irreducible(A: Matrix, tol: Tolerance = Tolerance()) -> bool:
    """A square matrix is irreducible iff its digraph is strongly connected."""
    return _reachability(A, tol)[2]


def imprimitivity_index(A: Matrix, tol: Tolerance = Tolerance()) -> int:
    """gcd of the closed directed walk lengths of an irreducible matrix."""
    g, dist, connected = _reachability(A, tol)
    if not connected:
        raise NotIrreducibleError("imprimitivity index requires irreducibility")
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
