"""verify-paper's seeded rational draws against the ``Fraction`` oracle.

``verification`` draws each rational entry and each sampler weight as a
reduced integer pair read off a table, ``_ENTRY`` or ``_WEIGHT``, by the
numerator and denominator that ``rng.randint`` gives, and builds no
``Fraction``.  The oracle here is the draw it replaced: ``Fraction`` of the
same two ``randint`` calls, through ``Matrix.rational`` and
``Vector.rational``.  The arrays, their denominators and bounds, the
generator state afterwards and the order of the ``randint`` calls must all
agree with it.  Every report finding is a boolean, so the report hashes
cannot show a changed draw; a digest of the seed-1 samples of the rational
catalog pairs pins the cases themselves.
"""
import hashlib
import random
from fractions import Fraction

import pytest

from perronkron import verification
from perronkron.linalg import RATIONAL, Matrix, Vector


def oracle_fraction(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def oracle_matrix(rng, m, n):
    return Matrix.rational([[oracle_fraction(rng) for _ in range(n)] for _ in range(m)])


def oracle_vector(rng, n):
    return Vector.rational([oracle_fraction(rng) for _ in range(n)])


class Recording(random.Random):
    """A generator that records the range of each ``randint`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = []

    def randint(self, a, b):
        self.calls.append((a, b))
        return super().randint(a, b)


def assert_same_array(new, old):
    assert new == old
    assert list(new.to_pairs()) == list(old.to_pairs())
    new_form, old_form = new.array_form(), old.array_form()
    assert new_form.num.tolist() == old_form.num.tolist()
    assert (new_form.den, new_form.bound) == (old_form.den, old_form.bound)


@pytest.mark.parametrize("seed", range(20))
def test_random_matrices_match_the_fraction_oracle(seed):
    new, old = random.Random(seed), random.Random(seed)
    for m in range(1, 5):
        for n in range(1, 5):
            A = verification._random_rational_matrix(new, m, n)
            assert (A.nrows, A.ncols) == (m, n)
            assert_same_array(A, oracle_matrix(old, m, n))
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("seed", range(20))
def test_random_vectors_match_the_fraction_oracle(seed):
    new, old = random.Random(seed), random.Random(seed)
    for n in range(1, 7):
        x = verification._random_rational_vector(new, n)
        assert x.dim == n
        assert_same_array(x, oracle_vector(old, n))
        assert new.getstate() == old.getstate()


def test_the_tables_hold_each_fraction_in_lowest_terms():
    for table, numerators, denominators in [
        (verification._WEIGHT, range(0, 7), range(1, 4)),
        (verification._ENTRY, range(-6, 7), range(1, 5)),
    ]:
        assert len(table) == len(numerators)
        for row, p in zip(table, numerators):
            assert len(row) == len(denominators) + 1
            for q in denominators:
                assert row[q] == Fraction(p, q).as_integer_ratio()


def test_each_entry_draws_its_numerator_then_its_denominator():
    rng = Recording(3)
    verification._random_rational_matrix(rng, 2, 3)
    verification._random_rational_vector(rng, 4)
    assert rng.calls == [(-6, 6), (1, 4)] * 10


def test_each_sample_draws_s_weights_then_t_weights():
    S, T = Matrix.rational([[1, 0], [0, 1], [1, 1]]), Matrix.rational([[1, 2], [3, 4]])
    rng = Recording(3)
    verification._kron_samples(rng, S, T, 5)
    assert rng.calls == [(0, 6), (1, 3)] * (3 + 2) * 5


def test_all_zero_weights_become_e1():
    """A generator that draws 0 for every numerator and 2 for every
    denominator: each row of weights is 0/2, ..., 0/2, which becomes e_1."""

    class Zeros(random.Random):
        def randint(self, a, b):
            return 0 if a == 0 else 2

    S = Matrix.rational([[1, 2], [3, 4], [5, 6]])
    T = Matrix.rational([[Fraction(1, 3), -1], [2, 0]])
    X, Y, _ = verification._kron_samples(Zeros(), S, T, 3)
    assert X.rows() == [S.row(0)] * 3 and Y.rows() == [T.row(0)] * 3


def _sample_digests(seed):
    """sha256 of the samples of every rational catalog pair, 200 each in
    sorted pair order from ``random.Random(seed)``, and of the generator
    state afterwards."""
    catalog, inverses = verification._catalog(), {}
    pairs = {
        (ns, nt): verification._PairData(S, T, inverses)
        for ns, S in catalog
        for nt, T in catalog
    }
    rng, digest, count = random.Random(seed), hashlib.sha256(), 0
    for _, pd in sorted(pairs.items()):
        if pd.K.mode != RATIONAL:
            continue
        count += 1
        for M in verification._kron_samples(rng, pd.S, pd.T, 200):
            form = M.array_form()
            digest.update(repr((form.num.tolist(), form.den)).encode())
    state = hashlib.sha256(repr(rng.getstate()).encode()).hexdigest()
    return count, digest.hexdigest(), state


def test_the_seed_1_samples_are_pinned():
    count, samples, state = _sample_digests(1)
    assert count == 9
    assert samples == "6dec3eb3dfdc9297750ce1a7a63e521bff3b64a4bcbe97f302dd1c92271e9a2d"
    assert state == "9b372f8c79facb369042b8ba1051abd6e72cf44599b6bbfb1f8147d81f69cf46"
