import random
from fractions import Fraction

import pytest

from perronkron.cones import (
    ConeGenerators,
    _canonical_ray,
    coni_coefficients,
    coni_member,
    conv_member,
    enumerate_extreme_rays,
    kron_generator_set,
    spectratope_strictness_certificate,
)
from perronkron.families import dft, hadamard_like
from perronkron.linalg import (
    Matrix,
    ModeMismatchError,
    Tolerance,
    Vector,
    kron,
    kron_vec,
    ones_vector,
)
from perronkron.perron import cone_inequalities, in_spectracone

H2 = hadamard_like(2)
H2_ROWS = ConeGenerators.from_rows(H2)


def containment_check(inner: ConeGenerators, outer_membership) -> bool:
    """Hull containment via generators: every inner generator must satisfy
    the outer membership predicate."""
    return all(outer_membership(g) for g in inner.vectors)


def combine(vectors, weights):
    total = vectors[0].scale(weights[0])
    for v, w in zip(vectors[1:], weights[1:]):
        total = total + v.scale(w)
    return total


def test_coni_member_h2_examples():
    assert coni_member(H2_ROWS, Vector.rational([1, 0]))
    # Verified combination: (1/2)(1,1) + (1/2)(1,-1) = (1,0).
    lam = coni_coefficients(H2_ROWS, Vector.rational([1, 0]))
    assert lam == [Fraction(1, 2), Fraction(1, 2)]
    # Any nonnegative combination has first coordinate >= |second|.
    assert not coni_member(H2_ROWS, Vector.rational([0, 1]))
    assert coni_member(H2_ROWS, Vector.rational([0, 0]))


def test_coni_soundness_roundtrip():
    rng = random.Random(37)
    G = ConeGenerators.from_rows(hadamard_like(3))
    for _ in range(25):
        weights = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in G.vectors]
        x = combine(list(G.vectors), weights)
        lam = coni_coefficients(G, x)
        assert lam is not None
        assert combine(list(G.vectors), lam) == x


def test_conv_member_examples():
    assert conv_member(H2_ROWS, Vector.rational([1, 0]))
    assert not conv_member(H2_ROWS, Vector.rational([2, 0]))
    for g in H2_ROWS.vectors:
        assert conv_member(H2_ROWS, g)


def test_member_dimension_mismatch():
    with pytest.raises(ValueError):
        coni_member(H2_ROWS, ones_vector(3))
    with pytest.raises(ModeMismatchError):
        coni_member(H2_ROWS, ones_vector(2).to_complex())


def test_complex_mode_membership():
    G = ConeGenerators.from_rows(dft(3))
    # Rows are their own conical combinations.
    for g in G.vectors:
        assert coni_member(G, g)
        assert conv_member(G, g)


def test_kron_generator_set():
    product = kron_generator_set(H2_ROWS, H2_ROWS)
    expected = [
        kron_vec(u, v) for u in H2_ROWS.vectors for v in H2_ROWS.vectors
    ]
    assert list(product.vectors) == expected
    # The products are exactly the rows of H2 (x) H2, in Hadamard order.
    assert expected == kron(H2, H2).rows()

    singleton = ConeGenerators((ones_vector(2),))
    assert list(kron_generator_set(singleton, singleton).vectors) == [ones_vector(4)]


def test_kron_generator_set_rejects_mismatches():
    with pytest.raises(ModeMismatchError):
        kron_generator_set(H2_ROWS, ConeGenerators.from_rows(dft(2)))
    with pytest.raises(ValueError):
        kron_generator_set(H2_ROWS, ConeGenerators.from_rows(H2, "convex"))


def test_coni_kron_containment_sampling():
    rng = random.Random(41)
    U = ConeGenerators.from_rows(H2)
    V = ConeGenerators.from_rows(hadamard_like(3))
    product = kron_generator_set(U, V)
    for _ in range(20):
        lam = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in U.vectors]
        mu = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in V.vectors]
        u = combine(list(U.vectors), lam)
        v = combine(list(V.vectors), mu)
        assert coni_member(product, kron_vec(u, v))


def test_conv_kron_containment_sampling():
    rng = random.Random(43)
    U = ConeGenerators.from_rows(H2, "convex")
    V = ConeGenerators.from_rows(hadamard_like(3), "convex")
    product = kron_generator_set(U, V)
    for _ in range(10):
        lam = [Fraction(rng.randint(1, 4)) for _ in U.vectors]
        mu = [Fraction(rng.randint(1, 4)) for _ in V.vectors]
        lam = [w / sum(lam) for w in lam]
        mu = [w / sum(mu) for w in mu]
        u = combine(list(U.vectors), lam)
        v = combine(list(V.vectors), mu)
        assert conv_member(product, kron_vec(u, v))


def test_containment_check():
    product = kron_generator_set(H2_ROWS, H2_ROWS)
    h4_rows = ConeGenerators.from_rows(kron(H2, H2))
    assert containment_check(product, lambda x: coni_member(h4_rows, x))
    assert containment_check(
        ConeGenerators.from_rows(kron(H2, H2)),
        lambda x: in_spectracone(kron(H2, H2), x),
    )
    assert not containment_check(
        ConeGenerators((Vector.rational([0, 1]),)),
        lambda x: coni_member(H2_ROWS, x),
    )


def test_hadamard_cone_equals_row_cone_sampling():
    # Spectracone membership and row-cone membership agree on samples for
    # Sylvester Hadamard matrices.
    rng = random.Random(47)
    for depth in (2, 3, 4):
        H = hadamard_like(depth)
        rows = ConeGenerators.from_rows(H)
        for _ in range(20):
            weights = [Fraction(rng.randint(0, 4)) for _ in rows.vectors]
            x = combine(list(rows.vectors), weights)
            assert in_spectracone(H, x)
            assert coni_member(rows, x)


def test_extreme_rays_match_hadamard_rows():
    for depth in (2, 3):
        H = hadamard_like(depth)
        rays = enumerate_extreme_rays(cone_inequalities(H))
        expected = {_canonical_ray(list(r.entries)) for r in H.rows()}
        assert {tuple(r.entries) for r in rays} == expected


def test_spectratope_strictness_h2():
    zp, evidence = spectratope_strictness_certificate(H2, H2)
    assert zp == Vector.rational(["1", "5/6", "5/6", "13/18"])
    assert evidence.holds
    # Exact rank oracle: reshape determinant 13/18 - 25/36 = 1/36.
    a, b, c, d = zp.entries
    assert a * d - b * c == Fraction(1, 36)


def test_spectratope_strictness_complex():
    f3 = dft(3)
    zp, evidence = spectratope_strictness_certificate(f3, f3)
    assert evidence.holds


def test_spectratope_strictness_rejects_degenerate_split():
    with pytest.raises(ValueError):
        spectratope_strictness_certificate(H2, H2, phi=Fraction(1))
    with pytest.raises(ValueError):
        spectratope_strictness_certificate(H2, H2, phi=Fraction(0))
