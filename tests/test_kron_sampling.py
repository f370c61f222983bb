"""verify-paper's stacked Kronecker sampling against the per-sample loop.

``verification._check_kron_membership`` draws a pair's samples x_b (x) y_b
at once as the rows of Z, and ``perron.in_spectracone`` decides them in
stacked exact products, ``similarity_image(K, Z_chunk, K^{-1})``, whose row
block b is K diag(z_b) K^{-1} and which hold at most
``perron._CHUNK_ENTRIES`` image entries each; a Sylvester K (every rational
catalog pair) is decided by one Walsh-Hadamard transform instead, so the
tests that pin the chunks turn the recogniser off.  The oracle here is the loop
it replaced: one ``in_spectracone`` and one ``in_spectratope`` call per
sample, each on a ``kron_vec`` of row combinations built one sample at a
time.  Findings, the ``rng`` state after sampling, each row of Z and each
stacked verdict must agree with it, also on pairs where most samples are
not members.
"""
import random
from fractions import Fraction

import pytest

from perronkron import perron, verification
from perronkron.families import counterexample_factors, hadamard_like
from perronkron.linalg import (
    Matrix,
    SingularMatrixError,
    Tolerance,
    Vector,
    inf_norm,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_vec,
)


def old_row_combination(rng, S):
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(S.nrows)]
    if all(w == 0 for w in weights):
        weights[0] = Fraction(1)
    return S.transpose() @ Vector.rational(weights)


def old_samples(rng, S, T, count):
    """Each sample as (x, y), drawn one at a time."""
    return [
        (old_row_combination(rng, S), old_row_combination(rng, T)) for _ in range(count)
    ]


def old_verdicts(pd, x, y, tol=Tolerance()):
    """The cone and tope verdicts of one sample, as the loop decided them."""
    cone = perron.in_spectracone(pd.K, kron_vec(x, y), tol, pd.K_inv)
    xt, yt = x.scale(1 / inf_norm(x)), y.scale(1 / inf_norm(y))
    tope = perron.in_spectratope(pd.K, kron_vec(xt, yt), tol, pd.K_inv)
    return cone, tope


def old_kron_membership(findings, pairs, rng, samples):
    cone_ok = tope_ok = True
    for _, pd in sorted(pairs.items()):
        if pd.K.mode != "rational":
            continue
        for x, y in old_samples(rng, pd.S, pd.T, samples):
            cone, tope = old_verdicts(pd, x, y)
            cone_ok, tope_ok = cone_ok and cone, tope_ok and tope
    findings["kron_cone_membership_sampling"] = cone_ok
    findings["kron_tope_membership_sampling"] = tope_ok


def catalog_pairs():
    catalog, inverses = verification._catalog(), {}
    return {
        (ns, nt): verification._PairData(S, T, inverses)
        for ns, S in catalog
        for nt, T in catalog
    }


def _similarities(seed, count):
    """Seeded invertible rational matrices of orders 2-4."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        n = rng.randint(2, 4)
        S = verification._random_rational_matrix(rng, n, n)
        try:
            inverse(S)
        except SingularMatrixError:
            continue
        found.append(S)
    return found


def mixed_pairs():
    """Pairs on which many samples are not members: the counterexample S
    with H2, and seeded rational similarities."""
    h2, t = counterexample_factors()
    S = kron(h2, t)
    rational = _similarities(11, 4)
    pairs = {("S", "H2"): verification._PairData(S, hadamard_like(2))}
    for i, (A, B) in enumerate(zip(rational, rational[1:] + rational[:1])):
        pairs[(f"R{i}", f"R{(i + 1) % len(rational)}")] = verification._PairData(A, B)
    return pairs


def _run_both(pairs, seed, samples):
    old_findings, new_findings = {}, {}
    old, new = random.Random(seed), random.Random(seed)
    old_kron_membership(old_findings, pairs, old, samples)
    verification._check_kron_membership(new_findings, pairs, new, samples)
    return old_findings, new_findings, old.getstate(), new.getstate()


@pytest.mark.parametrize("seed", [42, 1, 7])
def test_findings_and_draws_match_the_loop_on_the_catalog(seed):
    old_findings, new_findings, old_state, new_state = _run_both(catalog_pairs(), seed, 3)
    assert new_findings == old_findings
    assert list(new_findings.values()) == [True, True]
    assert new_state == old_state


@pytest.mark.parametrize("seed", [0, 5])
def test_findings_and_draws_match_the_loop_where_samples_fail(seed):
    old_findings, new_findings, old_state, new_state = _run_both(mixed_pairs(), seed, 6)
    assert new_findings == old_findings
    assert list(new_findings.values()) == [False, False]
    assert new_state == old_state


def test_each_row_of_z_is_the_kron_of_its_samples():
    rng = random.Random(3)
    matrices = [hadamard_like(2), hadamard_like(3), kron(*counterexample_factors())]
    matrices += [verification._random_rational_matrix(rng, m, n) for m, n in
                 [(1, 3), (2, 2), (3, 1), (5, 4)]]
    for S in matrices:
        for T in matrices:
            new, old = random.Random(len(matrices)), random.Random(len(matrices))
            X, Y, Z = verification._kron_samples(new, S, T, 4)
            expected = old_samples(old, S, T, 4)
            assert X.rows() == [x for x, _ in expected]
            assert Y.rows() == [y for _, y in expected]
            assert Z.rows() == [kron_vec(x, y) for x, y in expected]
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("count", [1, 3, 10])
def test_each_stacked_verdict_matches_per_sample_membership(count):
    """24 samples a pair, decided in chunks of ``count``; the mixed pairs
    give 119 non-members in 120 samples, and H2 (x) H3 only members."""
    pairs = mixed_pairs()
    pairs[("H2", "H3")] = verification._PairData(hadamard_like(2), hadamard_like(3))
    chunk_verdicts, non_members = set(), 0
    for name, pd in sorted(pairs.items()):
        rng_new, rng_old = random.Random(1), random.Random(1)
        for start in range(0, 24, count):
            size = min(count, 24 - start)
            X, Y, Z = verification._kron_samples(rng_new, pd.S, pd.T, size)
            verdicts = [old_verdicts(pd, x, y) for x, y in
                        old_samples(rng_old, pd.S, pd.T, size)]
            cone, tope = verification._decide_kron_samples(pd, X, Y, Z)
            assert cone == all(c for c, _ in verdicts), name
            assert tope == all(t for _, t in verdicts), name
            chunk_verdicts.add(cone)
            non_members += sum(not c for c, _ in verdicts)
    assert chunk_verdicts == {True, False}
    assert non_members == 119


def test_the_tope_verdict_needs_the_norm_identity():
    """A positive multiple of z_b stays in the cone but leaves the tope."""
    pd = verification._PairData(hadamard_like(2), hadamard_like(3))
    X, Y, Z = verification._kron_samples(random.Random(2), pd.S, pd.T, 5)
    assert verification._decide_kron_samples(pd, X, Y, Z) == (True, True)
    assert verification._decide_kron_samples(pd, X, Y, Z.scale(2)) == (True, False)
    assert verification._decide_kron_samples(pd, X, Y.scale(3), Z) == (True, False)


@pytest.mark.parametrize("chunk, samples, sizes", [
    (3, 7, [3, 3, 1]),  # the last chunk is not full
    (1, 3, [1, 1, 1]),  # chunks of one sample
    (4, 4, [4]),
    (5, 2, [2]),
])
def test_chunks_of_any_size_match_the_loop(monkeypatch, chunk, samples, sizes):
    pairs = mixed_pairs()
    pairs.update(catalog_pairs())
    # Rational pairs of one order share a chunk size: S (x) H2, H2 (x) H3, ...
    order = 8
    pairs = {key: pd for key, pd in pairs.items()
             if pd.K.nrows == order and pd.K.mode == "rational"}
    monkeypatch.setattr(perron, "_CHUNK_ENTRIES", chunk * order**2)
    # The chunks pinned here are the dense path's; H2 (x) H3 is Sylvester H8.
    monkeypatch.setattr(perron, "is_sylvester", lambda S: False)
    # The stacked products of each pair: (rows, verdict) per chunk.
    chunks = {key: [] for key in pairs}
    names = {id(pd.K): key for key, pd in pairs.items()}
    image = perron.similarity_image

    def spy(S, x, sinv=None):
        result = image(S, x, sinv)
        if isinstance(x, Matrix):
            chunks[names[id(S)]].append((x.nrows, is_entrywise_nonneg(result)))
        return result

    monkeypatch.setattr(perron, "similarity_image", spy)
    old_findings, new_findings, old_state, new_state = _run_both(pairs, 9, samples)
    assert len(pairs) == 5
    for key, decided in chunks.items():
        verdicts = [verdict for _, verdict in decided]
        # Every chunk up to the first that fails, and none after it.
        stop = verdicts.index(False) + 1 if False in verdicts else len(sizes)
        assert [rows for rows, _ in decided] == sizes[:stop], key
    assert sum(len(decided) == len(sizes) for decided in chunks.values()) >= 2
    assert new_findings == old_findings and new_state == old_state


def test_no_stacked_product_exceeds_the_entry_budget(monkeypatch):
    """The suite's own run, spied: every stacked image ``in_spectracone``
    forms stays within ``perron._CHUNK_ENTRIES`` entries, and each rational
    pair fills its chunks."""
    shapes = []
    image = perron.similarity_image

    def spy(S, x, sinv=None):
        result = image(S, x, sinv)
        shapes.append((any(S is pd.K for pd in rational), result.nrows * result.ncols))
        return result

    monkeypatch.setattr(perron, "similarity_image", spy)
    # Every rational catalog pair is Sylvester; pin the dense path's chunks.
    monkeypatch.setattr(perron, "is_sylvester", lambda S: False)
    findings = {}
    pairs = catalog_pairs()
    rational = [pd for pd in pairs.values() if pd.K.mode == "rational"]
    verification._check_kron_membership(findings, pairs, random.Random(1))
    assert list(findings.values()) == [True, True]
    budget = perron._CHUNK_ENTRIES
    assert max(entries for _, entries in shapes) <= budget
    stacked = sorted(entries for is_image, entries in shapes if is_image)
    assert stacked[-1] == budget  # H4 (x) H4: four samples of order 64
    assert len(stacked) == sum(-(-200 // (budget // pd.K.nrows**2)) for pd in rational)


def test_the_suite_forms_no_stacked_image_of_a_sylvester_pair(monkeypatch):
    """The suite's own run, spied with the recogniser on: every rational
    catalog pair is a Sylvester H_n, decided by one transform of its 200
    samples, and no similarity image is formed."""
    images, transformed = [], []
    image, transform = perron.similarity_image, perron.walsh_hadamard

    def spy_image(S, x, sinv=None):
        images.append(x)
        return image(S, x, sinv)

    def spy_transform(x):
        transformed.append(x.nrows)
        return transform(x)

    monkeypatch.setattr(perron, "similarity_image", spy_image)
    monkeypatch.setattr(perron, "walsh_hadamard", spy_transform)
    findings = {}
    verification._check_kron_membership(findings, catalog_pairs(), random.Random(1))
    assert list(findings.values()) == [True, True]
    assert images == []
    assert transformed == [200] * 9
