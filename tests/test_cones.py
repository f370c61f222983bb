import random
from fractions import Fraction
from itertools import combinations

import pytest

from perronkron import cones
from perronkron.cones import (
    ConeGenerators,
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
    SingularMatrixError,
    Tolerance,
    Vector,
    kron,
    kron_vec,
    ones_vector,
    support,
    vector_is_nonneg,
)
from perronkron.perron import cone_inequalities, in_spectracone
from test_bareiss import _oracle_null_space, _random_rows

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
        expected = {
            tuple(v / max(abs(u) for u in r.entries) for v in r.entries) for r in H.rows()
        }
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


# --- the ray scan over distinct directions -----------------------------------


def scan_every_row_subset(M):
    """Oracle: the scan over (n-1)-subsets of every nonzero inequality row."""
    n = M.ncols
    rows = M.array_form().num[support(M).any(axis=1)].tolist()
    rays = {}
    for subset in combinations(range(len(rows)), n - 1):
        kernel = _oracle_null_space([[Fraction(v) for v in rows[i]] for i in subset], n)
        if len(kernel) != 1:
            continue
        vec = kernel[0]
        image = M @ Vector(vec, "rational")
        for sign in (1, -1):
            if vector_is_nonneg(image, Tolerance(), sign):
                biggest = max(abs(v) for v in vec)
                canon = tuple(sign * v / biggest for v in vec)
                rays[canon] = Vector(list(canon), "rational")
                break
    return [rays[key] for key in sorted(rays, key=lambda t: [str(v) for v in t])]


def _ray_test_matrices():
    S = kron(H2, Matrix.rational([[1, 2], [1, 1]]))
    named = [hadamard_like(2), hadamard_like(3), S, Matrix.identity(3),
             Matrix.rational([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    rng = random.Random(8)
    seeded = []
    while len(seeded) < 35:
        n = rng.randint(2, 4)
        M = Matrix.rational(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        )
        try:
            seeded.append(cone_inequalities(M))
        except SingularMatrixError:
            continue
    return [cone_inequalities(M) for M in named] + seeded


def test_ray_scan_over_distinct_directions_matches_the_full_scan():
    for M in _ray_test_matrices():
        assert enumerate_extreme_rays(M) == scan_every_row_subset(M)


def test_ray_scan_takes_each_sylvester_direction_once(monkeypatch):
    """cone_inequalities(H3) repeats each of its 4 directions 4 times: the
    scan eliminates C(4, 3) = 4 subsets, not C(16, 3) = 560."""
    kernels = []
    eliminate = cones.integer_kernel
    M = cone_inequalities(hadamard_like(3))
    monkeypatch.setattr(
        cones, "integer_kernel", lambda A: kernels.append(A.shape) or eliminate(A)
    )
    assert enumerate_extreme_rays(M) == scan_every_row_subset(M)
    assert len(kernels) == 4


def test_a_scaled_duplicate_row_is_one_direction():
    M = Matrix.rational([[1, 0], [2, 0], [0, 3], [0, 1], [0, 0]])
    assert enumerate_extreme_rays(M) == scan_every_row_subset(M)
    assert [r.entries for r in enumerate_extreme_rays(M)] == [[0, 1], [1, 0]]


# --- cones that contain a line ------------------------------------------------


def test_a_line_gives_the_kernel_vector_with_a_positive_free_entry():
    """{x | -x1 >= 0, x2 >= 0} contains the x3 axis.  Its elimination ends on
    the pivot -1, and the scan still returns e3, not -e3."""
    M = Matrix.rational([[-1, 0, 0], [0, 1, 0]])
    assert [r.entries for r in enumerate_extreme_rays(M)] == [[0, 0, 1]]


def _matrices_with_a_line():
    """Seeded m-by-n systems of rank n - 1: each cone contains the line
    ker M, and every ray the scan finds spans it."""
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randint(2, 5)
        rows = _random_rows(rng, rng.randint(n - 1, n + 2), n, n - 1, lo=-4, hi=4)
        if len(_oracle_null_space(rows, n)) == 1:
            yield Matrix.rational(rows)


def test_cones_with_a_line_match_the_full_scan():
    rays = 0
    for M in _matrices_with_a_line():
        got = enumerate_extreme_rays(M)
        assert got == scan_every_row_subset(M)
        rays += len(got)
    assert rays >= 20


def test_generator_sets_refuse_no_vectors_and_mixed_ones():
    with pytest.raises(ValueError, match="generator sets must be nonempty"):
        ConeGenerators(())
    with pytest.raises(ValueError, match="generators must share a dimension"):
        ConeGenerators((Vector.rational([1]), Vector.rational([1, 2])))
    with pytest.raises(ModeMismatchError, match="generators must share a mode"):
        ConeGenerators((Vector.rational([1]), Vector.complex_([1])))


def test_extreme_rays_refuse_complex_mode():
    with pytest.raises(ModeMismatchError, match="requires rational mode"):
        enumerate_extreme_rays(dft(3))


def test_spectratope_strictness_refuses_an_order_one_factor():
    one = Matrix.rational([[1]])
    for S, T in ((one, H2), (H2, one)):
        with pytest.raises(ValueError, match="orders at least 2"):
            spectratope_strictness_certificate(S, T)
