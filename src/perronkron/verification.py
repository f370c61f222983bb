"""End-to-end verification suite behind the ``verify-paper`` CLI verb.

Runs every index-arithmetic identity, Kronecker closure property,
strict-containment certificate, the refutation instance, and the
ideal/strong/irreducibility checks over a fixed catalog of matrices.
All sampling is seeded; reports are byte-identical across runs with the
same seed.

A finding decided over many cases holds when ``_holds`` finds every case
true.  Every case is decided, in order, also after one has failed, so a
failing case changes no later draw from the seeded generator.
"""
from __future__ import annotations

import math
import operator
import random
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import cones, digraph, families, perron
from .indexing import IndexPair, division_identity_holds, fold_index, unfold_index
from .linalg import (
    RATIONAL,
    Matrix,
    Tolerance,
    Vector,
    basis_vector,
    diag_kron_identity,
    face_split,
    inverse,
    kron,
    kron_vec,
    p_norm,
    row_inf_norms,
    support,
)

DEFAULT_SEED = 42


def _catalog() -> List[Tuple[str, Matrix]]:
    entries = [(f"H{n}", families.hadamard_like(n)) for n in (2, 3, 4)]
    entries += [(f"F{n}", families.dft(n)) for n in (2, 3, 4, 5, 6)]
    return entries


class _PairData:
    """Kronecker product of a catalog pair with its (blockwise) inverse.

    A pair of mixed modes is lifted to complex mode.  ``inverses`` maps
    matrices to their inverses; pairs that share it invert each distinct
    matrix once.
    """

    def __init__(
        self, S: Matrix, T: Matrix, inverses: Optional[Dict[Matrix, Matrix]] = None
    ):
        if S.mode != T.mode:
            S, T = S.to_complex(), T.to_complex()
        if inverses is None:
            inverses = {}
        for M in (S, T):
            if M not in inverses:
                inverses[M] = inverse(M)
        self.S = S
        self.T = T
        self.K = kron(S, T)
        self.S_inv = inverses[S]
        self.T_inv = inverses[T]
        self.K_inv = kron(self.S_inv, self.T_inv)


def _holds(verdicts: Iterable[object]) -> bool:
    """Whether every verdict is true.  Each one is decided, in order, also
    after one has failed; only the failing ones are kept."""
    return not [v for v in verdicts if not v]


def _reduced_pairs(p: int, denominators: int) -> List[Optional[Tuple[int, int]]]:
    """Entry q of the list, for 1 <= q <= ``denominators``, is p/q as the
    pair ``from_pairs`` takes: in lowest terms with a positive denominator,
    so 2/2 is (1, 1) and 0/3 is (0, 1).  Entry 0 is unused."""
    return [None] + [
        (p // math.gcd(p, q), q // math.gcd(p, q)) for q in range(1, denominators + 1)
    ]


# The seeded rational draws, as pairs and with no Fraction built: a weight
# is _WEIGHT[randint(0, 6)][randint(1, 3)], an entry
# _ENTRY[randint(-6, 6) + 6][randint(1, 4)]; the numerator is drawn first.
_WEIGHT = [_reduced_pairs(p, 3) for p in range(0, 7)]
_ENTRY = [_reduced_pairs(p, 4) for p in range(-6, 7)]


def _random_entries(rng: random.Random, count: int) -> List[Tuple[int, int]]:
    return [_ENTRY[rng.randint(-6, 6) + 6][rng.randint(1, 4)] for _ in range(count)]


def _random_rational_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    return Matrix.from_pairs(_random_entries(rng, m * n), (m, n), RATIONAL)


def _random_rational_vector(rng: random.Random, n: int) -> Vector:
    return Vector.from_pairs(_random_entries(rng, n), (n,), RATIONAL)


def _random_complex_vector(rng: random.Random, n: int) -> Vector:
    return Vector.complex_(
        [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    )


def _kron_samples(
    rng: random.Random, S: Matrix, T: Matrix, count: int
) -> Tuple[Matrix, Matrix, Matrix]:
    """``count`` samples as the rows of X, Y and Z: x_b and y_b are random
    nonnegative rational combinations of the rows of S and T, and row b of
    Z is x_b (x) y_b.

    Each sample draws S's weights, then T's; weights that are all zero
    become e_1.
    """
    weights: Tuple[List[Tuple[int, int]], List[Tuple[int, int]]] = ([], [])
    for _ in range(count):
        for pairs, M in zip(weights, (S, T)):
            w = [_WEIGHT[rng.randint(0, 6)][rng.randint(1, 3)] for _ in range(M.nrows)]
            if w.count((0, 1)) == len(w):
                w[0] = (1, 1)
            pairs += w
    X = Matrix.from_pairs(weights[0], (count, S.nrows), RATIONAL) @ S
    Y = Matrix.from_pairs(weights[1], (count, T.nrows), RATIONAL) @ T
    return X, Y, face_split(X.transpose(), Y.transpose()).transpose()


def _decide_kron_samples(
    pd: _PairData, X: Matrix, Y: Matrix, Z: Matrix
) -> Tuple[bool, bool]:
    """Whether every z_b is in C(K), and every x_b (x) y_b scaled by the
    infinity norms of x_b and y_b is in the spectratope of K.

    ``perron.in_spectracone`` decides every row z_b of Z in stacked exact
    products.  The scaled product is a positive multiple of z_b, in the
    cone iff z_b is, and of norm 1 iff ||z_b|| = ||x_b|| ||y_b||.
    """
    in_cone = perron.in_spectracone(pd.K, Z, sinv=pd.K_inv)
    unit_norms = all(
        z == x * y for x, y, z in zip(*map(row_inf_norms, (X, Y, Z)))
    )
    return in_cone, in_cone and unit_norms


def _check_index_lemmas(findings: Dict[str, object]) -> None:
    # Each grid is decided one row of n at a time, in the order of its
    # cases: every case is still one entry of an ``indexing`` expression.
    findings["division_identity_grid"] = _holds(chain.from_iterable(
        division_identity_holds(range(-1000, 1001), n).tolist()
        for n in range(1, 65)
    ))
    # Each distinct case of the m, n <= 32 grid once.
    findings["fold_unfold_roundtrip"] = _holds(chain(
        chain.from_iterable(
            _fold_unfold_verdicts(range(1, 32 * n + 1), n) for n in range(1, 33)
        ),
        chain.from_iterable(
            _unfold_fold_verdicts(n) for n in range(1, 33)
        ),
    ))


def _fold_unfold_verdicts(flat: range, n: int) -> List[bool]:
    """Whether fold_index(unfold_index(i, n), n) == i for each i of ``flat``."""
    return list(map(operator.eq, fold_index(unfold_index(flat, n), n).tolist(), flat))


def _unfold_fold_verdicts(n: int) -> List[bool]:
    """Whether unfold_index(fold_index((k, l), n), n) == (k, l) for each
    k <= 32 and l <= n, k major; the grid is built from ranges."""
    ks = [k for k in range(1, 33) for _ in range(n)]
    ells = list(range(1, n + 1)) * 32
    outer, inner = unfold_index(fold_index(IndexPair(ks, ells), n), n)
    return ((outer == ks) & (inner == ells)).tolist()


def _row_extractions(rng: random.Random) -> Iterator[bool]:
    """Whether each row of a random S (x) T is the kron of the rows of S and
    T that ``unfold_index`` names."""
    for _ in range(20):
        mm, nn = rng.randint(1, 4), rng.randint(1, 4)
        pp, qq = rng.randint(1, 4), rng.randint(1, 4)
        S = _random_rational_matrix(rng, mm, nn)
        T = _random_rational_matrix(rng, pp, qq)
        K = kron(S, T)
        for i in range(1, mm * pp + 1):
            outer, inner = unfold_index(i, pp)
            yield K.row(i - 1) == kron_vec(S.row(outer - 1), T.row(inner - 1))


def _norm_products(rng: random.Random) -> Iterator[bool]:
    """Whether ||x (x) y||_p = ||x||_p ||y||_p for random complex x, y and
    p = 1, 2, inf."""
    for _ in range(50):
        x = _random_complex_vector(rng, rng.randint(1, 8))
        y = _random_complex_vector(rng, rng.randint(1, 8))
        xy = kron_vec(x, y)
        for p in (1, 2, math.inf):
            yield abs(p_norm(xy, p) - p_norm(x, p) * p_norm(y, p)) <= 1e-9


def _check_kron_identities(findings: Dict[str, object], rng: random.Random) -> None:
    m = n = 16
    # Each factor's basis vectors are built once; each case still forms
    # its own product and the basis vector it must equal.
    e_m = [basis_vector(m, k) for k in range(1, m + 1)]
    e_n = [basis_vector(n, ell) for ell in range(1, n + 1)]
    findings["basis_kron_identity"] = _holds(
        kron_vec(e_m[k - 1], e_n[ell - 1]) == basis_vector(m * n, (k - 1) * n + ell)
        for k in range(1, m + 1)
        for ell in range(1, n + 1)
    )
    findings["row_extraction_identity"] = _holds(_row_extractions(rng))
    findings["diag_kron_identity"] = _holds(
        diag_kron_identity(
            _random_rational_vector(rng, rng.randint(1, 6)),
            _random_rational_vector(rng, rng.randint(1, 6)),
        )
        for _ in range(100)
    )
    findings["norm_multiplicativity"] = _holds(_norm_products(rng))


def _check_kron_membership(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    rng: random.Random,
    samples: int = 200,
) -> None:
    verdicts = [
        _decide_kron_samples(pd, *_kron_samples(rng, pd.S, pd.T, samples))
        for _, pd in sorted(pairs.items())
        if pd.K.mode == RATIONAL
    ]
    findings["kron_cone_membership_sampling"] = _holds(cone for cone, _ in verdicts)
    findings["kron_tope_membership_sampling"] = _holds(tope for _, tope in verdicts)


def _kron_witness_holds(pd: _PairData, tol: Tolerance) -> bool:
    """Whether both factors have witnesses and their combined index is a
    witness for the product."""
    wS = perron.find_perron_witness(pd.S, tol, pd.S_inv)
    wT = perron.find_perron_witness(pd.T, tol, pd.T_inv)
    if wS is None or wT is None:
        return False
    combined = perron.kron_witness_index(wS, wT, pd.T.nrows)
    return perron.witness_is_valid(pd.K, combined, tol, pd.K_inv)


def _check_kron_witnesses(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    tol: Tolerance,
) -> None:
    findings["kron_witness_grid"] = _holds(
        _kron_witness_holds(pd, tol) for _, pd in sorted(pairs.items())
    )


def _totally_nonzero_member_holds(S: Matrix, S_inv: Matrix, tol: Tolerance) -> bool:
    """Whether S has a witness and the member built from it is in C(S),
    totally nonzero and not constant."""
    w = perron.find_perron_witness(S, tol, S_inv)
    if w is None:
        return False
    x = perron.make_totally_nonzero(S, w, tol, S_inv)
    return (
        perron.in_spectracone(S, x, tol, S_inv)
        and support(x, Tolerance(0)).all()
        and len(set(x.to_pairs())) > 1
    )


def _check_totally_nonzero(
    findings: Dict[str, object],
    catalog: List[Tuple[str, Matrix]],
    inverses: Dict[Matrix, Matrix],
    tol: Tolerance,
) -> None:
    findings["totally_nonzero_cone_vectors"] = _holds(
        _totally_nonzero_member_holds(S, inverses[S], tol) for _, S in catalog
    )


def _check_strict_containment(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    tol: Tolerance,
) -> None:
    certificates = {
        key: perron.strict_cone_containment_certificate(
            pd.S, pd.T, tol, pd.S_inv, pd.T_inv
        )
        for key, pd in sorted(pairs.items())
        if pd.K.mode == RATIONAL
    }
    findings["strict_cone_containment_certificates"] = _holds(
        evidence.holds for _, evidence in certificates.values()
    )

    zp, _ = certificates[("H2", "H2")]
    # The common denominator cancels from the sign of the reshape determinant.
    a, b, c, d = zp.array_form().num.tolist()
    findings["strict_certificate_reshape_det_nonzero"] = (a * d - b * c) != 0


_EXPECTED_S = [[1, 2, 1, 2], [1, 1, 1, 1], [1, 2, -1, -2], [1, 1, -1, -1]]
_EXPECTED_S_INV = [
    ["-1/2", "1", "-1/2", "1"],
    ["1/2", "-1/2", "1/2", "-1/2"],
    ["-1/2", "1", "1/2", "-1"],
    ["1/2", "-1/2", "-1/2", "1/2"],
]
_EXPECTED_A = [
    ["1/2", "0", "3/2", "0"],
    ["0", "1/2", "0", "3/2"],
    ["3/2", "0", "1/2", "0"],
    ["0", "3/2", "0", "1/2"],
]


def _check_counterexample(findings: Dict[str, object]) -> None:
    report = perron.reproduce_counterexample()
    findings["counterexample_s_matches"] = report.s == Matrix.rational(_EXPECTED_S)
    findings["counterexample_inverse_matches"] = report.s_inv == Matrix.rational(
        _EXPECTED_S_INV
    )
    findings["counterexample_image_matches"] = report.a == Matrix.rational(_EXPECTED_A)
    findings["counterexample_no_witness"] = report.witness_search is None
    findings["counterexample_nonscalar"] = report.nonscalar


def _check_ideal(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    tol: Tolerance,
) -> None:
    findings["hadamard_ideal"] = _holds(
        perron.is_ideal(families.hadamard_like(n), tol) for n in (2, 3, 4, 5)
    )
    findings["dft_ideal"] = _holds(
        perron.is_ideal(families.dft(n), tol) for n in range(2, 9)
    )
    findings["ideal_closed_under_kron"] = _holds(
        perron.is_ideal(pd.K, tol, pd.K_inv) for _, pd in sorted(pairs.items())
    )


def _extremal_row_image_holds(n: int, k: int, tol: Tolerance, F_inv: Matrix) -> bool:
    """Whether row k of the order-n DFT has its extremal image."""
    try:
        families.extremal_row_image(n, k, tol, F_inv)
    except families.VerificationFailedError:
        return False
    return True


def _check_digraphs(findings: Dict[str, object], tol: Tolerance) -> None:
    findings["cycle_imprimitivity_indices"] = _holds(
        digraph.imprimitivity_index(families.cycle_companion(n), tol) == n
        for n in range(2, 11)
    )
    cycles = [families.cycle_companion(n) for n in range(1, 9)]
    findings["kron_irreducibility_grid"] = _holds(
        digraph.kron_irreducibility_predicate(cm, cn, tol)
        == digraph.is_irreducible(kron(cm, cn), tol)
        for cm in cycles
        for cn in cycles
    )
    dft_inverses = {n: inverse(families.dft(n)) for n in range(1, 9)}
    findings["dft_extremal_row_images"] = _holds(
        _extremal_row_image_holds(n, k, tol, F_inv)
        for n, F_inv in dft_inverses.items()
        for k in range(1, n + 1)
    )


def _check_tope_strictness(findings: Dict[str, object], tol: Tolerance) -> None:
    h2 = families.hadamard_like(2)
    f3 = families.dft(3)
    findings["tope_strictness_factors_ideal_strong"] = _holds((
        perron.is_ideal(h2, tol),
        perron.is_ideal(f3, tol),
        perron.verify_strong_certificate(h2, Vector.rational([1, -1]), tol),
        perron.verify_strong_certificate(f3, f3.row(1), tol),
    ))
    image_h2 = perron.similarity_image(h2, Vector.rational([1, -1]))
    image_f3 = perron.similarity_image(f3, f3.row(1))
    indices_coprime = digraph.kron_irreducibility_predicate(image_h2, image_f3, tol)
    _, evidence = cones.spectratope_strictness_certificate(
        h2.to_complex(), f3, tol
    )
    findings["tope_strictness_indices_coprime"] = indices_coprime
    findings["tope_strictness_certificate"] = evidence.holds


def _rays_are_rows(H: Matrix) -> bool:
    """Whether the extreme rays of C(H) are the rows of H, scaled to unit
    infinity norm."""
    rays = cones.enumerate_extreme_rays(perron.cone_inequalities(H))
    expected = {row.scale(1 / norm) for row, norm in zip(H.rows(), row_inf_norms(H))}
    return set(rays) == expected


def _check_extreme_rays(findings: Dict[str, object]) -> None:
    findings["hadamard_extreme_rays_match_rows"] = _holds(
        _rays_are_rows(families.hadamard_like(depth)) for depth in (2, 3)
    )


def report(
    verb: str, inputs: Dict[str, object], findings: Dict[str, object]
) -> Dict[str, object]:
    """Report of a check verb: it passes when every boolean finding holds."""
    status = "pass" if all(
        v for v in findings.values() if isinstance(v, bool)
    ) else "fail"
    return {"verb": verb, "status": status, "inputs": inputs, "findings": findings}


def run_verification_suite(
    seed: int = DEFAULT_SEED, tol: Tolerance = Tolerance()
) -> Dict[str, object]:
    """Run every check and return a deterministic report dictionary."""
    rng = random.Random(seed)
    findings: Dict[str, object] = {}

    catalog = _catalog()
    inverses: Dict[Matrix, Matrix] = {}
    pairs: Dict[Tuple[str, str], _PairData] = {
        (ns, nt): _PairData(S, T, inverses) for ns, S in catalog for nt, T in catalog
    }

    _check_index_lemmas(findings)
    _check_kron_identities(findings, rng)
    _check_kron_membership(findings, pairs, rng)
    _check_kron_witnesses(findings, pairs, tol)
    _check_totally_nonzero(findings, catalog, inverses, tol)
    _check_strict_containment(findings, pairs, tol)
    _check_counterexample(findings)
    _check_ideal(findings, pairs, tol)
    _check_digraphs(findings, tol)
    _check_tope_strictness(findings, tol)
    _check_extreme_rays(findings)

    return report("verify-paper", {"seed": seed, "tolerance": tol.eps}, findings)
