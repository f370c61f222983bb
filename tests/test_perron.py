import random
from fractions import Fraction

import pytest

from perronkron import perron
from perronkron.cones import spectratope_strictness_certificate
from perronkron.families import counterexample_factors, cycle_companion, dft, hadamard_like
from perronkron.linalg import (
    Matrix,
    Tolerance,
    Vector,
    basis_vector,
    has_unit_inf_norm,
    inf_norm,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_factor,
    kron_vec,
    ones_vector,
    support,
    vector_is_nonneg,
)
from perronkron.perron import (
    PerronWitness,
    cone_inequalities,
    factor_cone_members,
    find_perron_witness,
    in_spectracone,
    in_spectratope,
    is_ideal,
    kron_witness_index,
    make_totally_nonzero,
    reproduce_counterexample,
    similarity_image,
    strict_cone_containment_certificate,
    verify_strong_certificate,
    witness_is_valid,
)
from test_kron_kernel import assert_same_bits

H2 = hadamard_like(2)
COUNTEREXAMPLE_S = kron(H2, Matrix.rational([[1, 2], [1, 1]]))


def satisfies_cone_inequalities(
    M: Matrix, x: Vector, tol: Tolerance = Tolerance()
) -> bool:
    """Whether M x >= 0 (real and nonnegative within eps in complex mode)."""
    return vector_is_nonneg(M @ x, tol)


def test_similarity_image_counterexample():
    image = similarity_image(COUNTEREXAMPLE_S, Vector.rational([2, 2, -1, -1]))
    assert image == Matrix.rational(
        [
            ["1/2", "0", "3/2", "0"],
            ["0", "1/2", "0", "3/2"],
            ["3/2", "0", "1/2", "0"],
            ["0", "3/2", "0", "1/2"],
        ]
    )


def test_similarity_image_of_ones_is_identity():
    for S in (H2, COUNTEREXAMPLE_S, hadamard_like(3)):
        assert similarity_image(S, ones_vector(S.nrows)) == Matrix.identity(S.nrows)


def test_similarity_image_hand_oracle():
    # H2 diag(1, 0) H2^{-1} = (1/2) * ones by direct expansion.
    image = similarity_image(H2, Vector.rational([1, 0]))
    assert image == Matrix.rational([["1/2", "1/2"], ["1/2", "1/2"]])


def test_in_spectracone_examples():
    assert in_spectracone(COUNTEREXAMPLE_S, Vector.rational([2, 2, -1, -1]))
    assert in_spectracone(H2, ones_vector(2))
    # H2 diag(1, -2) H2^{-1} has a negative entry: ((1-2)/2 off-diagonal).
    assert not in_spectracone(H2, Vector.rational([1, -2]))


def test_in_spectratope_examples():
    assert in_spectratope(H2, Vector.rational([1, -1]))
    assert in_spectratope(H2, ones_vector(2))
    # In the cone but with infinity norm 2, so outside the tope.
    assert not in_spectratope(COUNTEREXAMPLE_S, Vector.rational([2, 2, -1, -1]))


def test_cone_inequalities_identity_matrix():
    M = cone_inequalities(Matrix.identity(3))
    n = 3
    for i in range(n):
        for j in range(n):
            row = M.entries[i * n + j]
            if i == j:
                assert row == [1 if k == i else 0 for k in range(n)]
            else:
                assert all(v == 0 for v in row)


def test_cone_inequalities_match_spectracone():
    rng = random.Random(29)
    checked = 0
    while checked < 10:
        S = Matrix.rational(
            [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        )
        try:
            sinv = inverse(S)
        except Exception:
            continue
        M = cone_inequalities(S, sinv)
        for _ in range(200):
            x = Vector.rational([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
            assert satisfies_cone_inequalities(M, x) == in_spectracone(S, x, sinv=sinv)
        checked += 1


def test_find_perron_witness_examples():
    assert find_perron_witness(H2) == PerronWitness(1, 1)
    assert find_perron_witness(COUNTEREXAMPLE_S) is None
    for n in range(2, 7):
        assert find_perron_witness(dft(n)) == PerronWitness(1, 1)


def test_find_perron_witness_negative_sign():
    assert find_perron_witness(H2.scale(-1)) == PerronWitness(1, -1)


def test_kron_witness_index():
    assert kron_witness_index(PerronWitness(1, 1), PerronWitness(1, 1), 2) == PerronWitness(1, 1)
    assert kron_witness_index(PerronWitness(2, 1), PerronWitness(1, 1), 2) == PerronWitness(3, 1)
    assert kron_witness_index(PerronWitness(1, -1), PerronWitness(1, -1), 3) == PerronWitness(1, 1)


def test_kron_witness_verified_directly():
    h4 = kron(H2, H2)
    wS = find_perron_witness(H2)
    combined = kron_witness_index(wS, wS, 2)
    assert witness_is_valid(h4, combined)
    neg = kron_witness_index(
        find_perron_witness(H2.scale(-1)), find_perron_witness(H2.scale(-1)), 2
    )
    assert neg.sign == 1
    assert witness_is_valid(kron(H2.scale(-1), H2.scale(-1)), neg)


def test_witness_membership_remark():
    # For a witness (k, s), e_k lies in the spectracone: the image is the
    # rank-one product (S e_k)(e_k^T S^{-1}) >= 0.
    for S in (H2, hadamard_like(3), dft(4)):
        w = find_perron_witness(S)
        e_k = basis_vector(S.nrows, w.index, S.mode)
        assert in_spectracone(S, e_k)


def test_spectracone_is_convex_cone():
    rng = random.Random(31)
    S = hadamard_like(3)
    rows = S.rows()
    for _ in range(50):
        weights = [Fraction(rng.randint(0, 5), rng.randint(1, 3)) for _ in rows]
        x = rows[0].scale(weights[0])
        for r, w in zip(rows[1:], weights[1:]):
            x = x + r.scale(w)
        assert in_spectracone(S, x)


def test_is_ideal_examples():
    assert is_ideal(H2)
    for n in range(2, 9):
        assert is_ideal(dft(n))
    assert not is_ideal(Matrix.rational([[1, 2], [1, 1]]))


def test_verify_strong_certificate_examples():
    for n in range(2, 9):
        F = dft(n)
        assert verify_strong_certificate(F, F.row(1))
    assert not verify_strong_certificate(H2, ones_vector(2))
    # H2 with (1, -1) gives the 2-cycle: nonnegative and irreducible.
    assert verify_strong_certificate(H2, Vector.rational([1, -1]))
    # Brute-force check of the image used above.
    assert similarity_image(H2, Vector.rational([1, -1])) == Matrix.rational(
        [[0, 1], [1, 0]]
    )


def test_make_totally_nonzero():
    assert make_totally_nonzero(H2, PerronWitness(1, 1)) == Vector.rational([3, 2])
    h4 = kron(H2, H2)
    x = make_totally_nonzero(h4, find_perron_witness(h4))
    assert x == Vector.rational([3, 2, 2, 2])
    assert satisfies_cone_inequalities(cone_inequalities(h4), x)
    f3 = dft(3)
    y = make_totally_nonzero(f3, find_perron_witness(f3))
    assert in_spectracone(f3, y)


def test_make_totally_nonzero_rejects_bad_witness():
    with pytest.raises(ValueError):
        make_totally_nonzero(H2, PerronWitness(2, 1))


def test_strict_cone_containment_h2():
    zp, evidence = strict_cone_containment_certificate(H2, H2)
    assert zp == Vector.rational([10, 7, 7, 5])
    assert evidence.member
    assert evidence.factorization_absent
    # Rank oracle: det of the 2x2 reshape is 10*5 - 7*7 = 1.
    a, b, c, d = zp.entries
    assert a * d - b * c == 1


def test_strict_cone_containment_mode_mismatch():
    with pytest.raises(Exception):
        strict_cone_containment_certificate(H2, dft(3))


def test_strict_cone_containment_takes_the_factors_inverses(monkeypatch):
    S, T = H2, hadamard_like(3)
    expected = strict_cone_containment_certificate(S, T)
    sinv, tinv = inverse(S), inverse(T)

    def refuse(M):
        raise AssertionError("a given inverse was recomputed")

    monkeypatch.setattr(perron, "inverse", refuse)
    assert strict_cone_containment_certificate(S, T, sinv=sinv, tinv=tinv) == expected
    with pytest.raises(ValueError, match="dimension mismatch"):
        strict_cone_containment_certificate(S, T, sinv=sinv, tinv=sinv)
    with pytest.raises(ValueError, match="mode"):
        strict_cone_containment_certificate(S, T, sinv=sinv, tinv=tinv.to_complex())


def test_strict_cone_containment_order_16():
    h4 = kron(H2, H2)
    zp, evidence = strict_cone_containment_certificate(h4, h4)
    assert zp.dim == 16
    assert evidence.holds


def test_reproduce_counterexample():
    report = reproduce_counterexample()
    assert report.a.entries[0][2] == Fraction(3, 2)
    assert report.witness_search is None
    assert report.nonscalar
    assert report.a == report.s @ report.d @ report.s_inv
    assert is_entrywise_nonneg(report.a)


# --- certificate points in closed form ---------------------------------------


def _seeded_perron_similarities(seed, count=6):
    """Seeded invertible rational matrices of orders 2-4 with a witness."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        n = rng.randint(2, 4)
        S = Matrix.rational(
            [[Fraction(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        )
        try:
            if find_perron_witness(S) is not None:
                found.append(S)
        except ValueError:  # singular
            continue
    return found


def _certificate_pairs():
    from perronkron.verification import _catalog

    catalog = [S for _, S in _catalog()]
    pairs = [(S, T) for S in catalog for T in catalog]
    seeded = _seeded_perron_similarities(3)
    pairs += list(zip(seeded, seeded[1:] + seeded[:1]))
    # A pair of mixed modes is lifted to complex mode, as verify-paper does.
    return [
        (S, T) if S.mode == T.mode else (S.to_complex(), T.to_complex())
        for S, T in pairs
    ]


def test_strict_certificate_point_is_z_plus_e():
    """x and y have entries 2 and 3, so z + e >= 5 with shift 1, never more."""
    for S, T in _certificate_pairs():
        zp, evidence = strict_cone_containment_certificate(S, T)
        x, y, _ = factor_cone_members(S, T)
        assert zp == kron_vec(x, y) + ones_vector(S.nrows * T.nrows, S.mode)
        assert support(zp, Tolerance(0)).all()
        assert evidence.shift == 1 and type(evidence.shift) is type(zp[0])
        assert evidence.holds
        if S.mode == "rational":
            assert min(zp) >= 5


def test_tope_certificate_point_keeps_the_given_phi():
    """x and y scaled to norm 1 have entries 2/3 and 1, so z >= 4/9 and
    z' = phi*z + psi*e > psi is totally nonzero for the phi passed."""
    for S, T in _certificate_pairs():
        for phi in (Fraction(1, 2), Fraction(1, 3), Fraction(99, 100)):
            zp, evidence = spectratope_strictness_certificate(S, T, phi=phi)
            assert (evidence.phi, evidence.psi) == (phi, 1 - phi)
            assert support(zp, Tolerance(0)).all()
            assert evidence.holds
            if S.mode == "rational":
                assert min(zp) > 1 - phi


def test_certificate_points_are_the_closed_forms_bit_for_bit():
    """Each certificate's point is its closed form built from the factors'
    cone members, bit for bit (signed zeros too), and each evidence flag is
    the direct decision on that point."""
    for S, T in _certificate_pairs():
        m, n = S.nrows, T.nrows
        x, y, K_inv = factor_cone_members(S, T)
        K = kron(S, T)
        zp, evidence = strict_cone_containment_certificate(S, T)
        assert_same_bits(zp, kron_vec(x, y) + ones_vector(m * n, S.mode))
        assert evidence.member == in_spectracone(K, zp, Tolerance(), K_inv)
        assert evidence.factorization_absent == (kron_factor(zp, m, n) is None)
        z = kron_vec(x.scale(1 / inf_norm(x)), y.scale(1 / inf_norm(y)))
        for phi in (Fraction(1, 2), Fraction(1, 3), Fraction(99, 100)):
            zp, evidence = spectratope_strictness_certificate(S, T, phi=phi)
            assert_same_bits(
                zp, z.scale(phi) + ones_vector(m * n, S.mode).scale(1 - phi)
            )
            assert evidence.member_cone == in_spectracone(K, zp, Tolerance(), K_inv)
            assert evidence.norm_is_one == has_unit_inf_norm(zp)
            assert evidence.factorization_absent == (kron_factor(zp, m, n) is None)


def test_certificates_check_their_arguments_in_order():
    """Each certificate refuses a bad order before a bad phi, and both before
    asking whether the factors are Perron similarities."""
    one = Matrix.rational([[1]])
    counterexample = kron(*counterexample_factors())
    with pytest.raises(ValueError, match="strictness certificates require orders at least 2"):
        spectratope_strictness_certificate(one, H2, phi=Fraction(1))
    with pytest.raises(ValueError, match="phi and psi = 1 - phi must both be positive"):
        spectratope_strictness_certificate(counterexample, H2, phi=Fraction(0))
    with pytest.raises(ValueError, match="strict containment requires orders at least 2"):
        strict_cone_containment_certificate(one, counterexample)


def test_cone_inequalities_refuse_a_non_square_matrix():
    with pytest.raises(ValueError, match="require square matrices"):
        cone_inequalities(Matrix.rational([[1, 2]]))


def test_factor_cone_members_refuse_the_counterexample():
    assert find_perron_witness(COUNTEREXAMPLE_S) is None
    for S, T in ((COUNTEREXAMPLE_S, H2), (H2, COUNTEREXAMPLE_S)):
        with pytest.raises(ValueError, match="both factors must be Perron similarities"):
            factor_cone_members(S, T)
