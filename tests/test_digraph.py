import math
import random

import pytest

from perronkron.digraph import (
    NotIrreducibleError,
    digraph_of,
    imprimitivity_index,
    is_irreducible,
    kron_irreducibility_predicate,
)
from perronkron.families import cycle_companion, hadamard_like
from perronkron.linalg import Matrix, Tolerance, Vector, kron
from perronkron.perron import reproduce_counterexample


def reachability_oracle(A: Matrix) -> bool:
    """Brute-force strong connectivity via boolean transitive closure."""
    n = A.nrows
    reach = [[A.entries[i][j] != 0 for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][k] and reach[k][j])
    return all(reach[i][j] for i in range(n) for j in range(n))


def closed_walk_gcd_oracle(A: Matrix, max_len: int) -> int:
    """gcd of closed walk lengths up to max_len, via boolean matrix powers."""
    n = A.nrows
    adj = [[A.entries[i][j] != 0 for j in range(n)] for i in range(n)]
    power = [row[:] for row in adj]
    g = 0
    for length in range(1, max_len + 1):
        if any(power[i][i] for i in range(n)):
            g = math.gcd(g, length)
        power = [
            [any(power[i][k] and adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return g


def random_irreducible(rng: random.Random, n: int) -> Matrix:
    """Hamiltonian cycle plus random extra edges: always irreducible."""
    entries = [[0] * n for _ in range(n)]
    for i in range(n):
        entries[i][(i + 1) % n] = 1
    for _ in range(rng.randint(0, n)):
        entries[rng.randrange(n)][rng.randrange(n)] = 1
    return Matrix.rational(entries)


def test_digraph_of_identity():
    g = digraph_of(Matrix.identity(3))
    assert g.edges() == [(0, 0), (1, 1), (2, 2)]


def test_digraph_of_cycle():
    g = digraph_of(cycle_companion(3))
    assert g.edges() == [(0, 1), (1, 2), (2, 0)]


def test_digraph_of_counterexample_image():
    a = reproduce_counterexample().a
    g = digraph_of(a)
    assert set(g.edges()) == {
        (0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (2, 0), (1, 3), (3, 1),
    }


def test_digraph_complex_tolerance():
    A = Matrix.complex_([[1, 1e-12], [1, 1]])
    g = digraph_of(A, Tolerance(1e-9))
    assert (0, 1) not in g.edges()


def test_digraph_requires_square():
    with pytest.raises(ValueError):
        digraph_of(Matrix.rational([[1, 2, 3], [4, 5, 6]]))


def test_is_irreducible_examples():
    for n in range(1, 11):
        assert is_irreducible(cycle_companion(n))
    assert not is_irreducible(Matrix.identity(2))
    assert not is_irreducible(reproduce_counterexample().a)


def test_is_irreducible_matches_reachability_oracle():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(1, 5)
        entries = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        A = Matrix.rational(entries)
        assert is_irreducible(A) == reachability_oracle(A)


def test_is_irreducible_permutation_invariant():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 5)
        A = random_irreducible(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        B = Matrix.rational(
            [[A.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert is_irreducible(A) == is_irreducible(B)


def test_imprimitivity_index_cycles():
    for n in range(2, 11):
        assert imprimitivity_index(cycle_companion(n)) == n
        # Walk-enumeration oracle up to length 2n.
        assert closed_walk_gcd_oracle(cycle_companion(n), 2 * n) == n


def test_imprimitivity_index_self_loop():
    A = Matrix.rational([[1, 1], [1, 0]])
    assert is_irreducible(A)
    assert imprimitivity_index(A) == 1


def test_imprimitivity_index_kron_of_cycles():
    product = kron(cycle_companion(2), cycle_companion(3))
    assert is_irreducible(product)
    assert imprimitivity_index(product) == 6
    assert closed_walk_gcd_oracle(product, 12) == 6


def test_imprimitivity_index_matches_walk_oracle():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(2, 6)
        A = random_irreducible(rng, n)
        assert imprimitivity_index(A) == closed_walk_gcd_oracle(A, 2 * n)


def test_imprimitivity_index_requires_irreducible():
    with pytest.raises(NotIrreducibleError):
        imprimitivity_index(Matrix.identity(2))


def test_kron_irreducibility_predicate_examples():
    c2, c3 = cycle_companion(2), cycle_companion(3)
    assert kron_irreducibility_predicate(c2, c3)
    assert is_irreducible(kron(c2, c3))
    assert not kron_irreducibility_predicate(c2, c2)
    assert not is_irreducible(kron(c2, c2))
    c1 = cycle_companion(1)
    assert kron_irreducibility_predicate(c1, c3)


def test_kron_irreducibility_cycle_grid():
    for m in range(1, 9):
        for n in range(1, 9):
            cm, cn = cycle_companion(m), cycle_companion(n)
            assert kron_irreducibility_predicate(cm, cn) == is_irreducible(
                kron(cm, cn)
            )


def test_kron_irreducibility_random_grid():
    rng = random.Random(67)
    for _ in range(20):
        A = random_irreducible(rng, rng.randint(2, 5))
        B = random_irreducible(rng, rng.randint(2, 5))
        assert kron_irreducibility_predicate(A, B) == is_irreducible(kron(A, B))


def test_kron_irreducibility_rejects_reducible_factor():
    with pytest.raises(NotIrreducibleError):
        kron_irreducibility_predicate(Matrix.identity(2), cycle_companion(3))


@pytest.mark.parametrize("entries", [
    [[0, 1, 0], [0, 0, 1], [0, 1, 0]],  # 0 reaches every vertex; none reaches 0
    [[1, 0, 0], [1, 0, 0], [0, 1, 0]],  # every vertex reaches 0; 0 reaches none
], ids=["out-of-0", "into-0"])
def test_strong_connectivity_needs_both_directions(entries):
    A = Matrix.rational(entries)
    assert not is_irreducible(A) and not reachability_oracle(A)
    with pytest.raises(NotIrreducibleError):
        imprimitivity_index(A)
