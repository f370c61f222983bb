"""End-to-end verification suite behind the ``verify-paper`` CLI verb.

Runs every index-arithmetic identity, Kronecker closure property,
strict-containment certificate, the refutation instance, and the
ideal/strong/irreducibility checks over a fixed catalog of matrices.
All sampling is seeded; reports are byte-identical across runs with the
same seed.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import cones, digraph, families, perron
from .indexing import IndexPair, division_identity_holds, fold_index, unfold_index
from .linalg import (
    RATIONAL,
    Matrix,
    Tolerance,
    Vector,
    basis_vector,
    diag_kron_identity,
    inf_norm,
    inverse,
    kron,
    kron_vec,
    p_norm,
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


def _random_fraction(rng: random.Random, lo: int = -6, hi: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def _random_rational_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    return Matrix.rational(
        [[_random_fraction(rng) for _ in range(n)] for _ in range(m)]
    )


def _random_rational_vector(rng: random.Random, n: int) -> Vector:
    return Vector.rational([_random_fraction(rng) for _ in range(n)])


def _random_complex_vector(rng: random.Random, n: int) -> Vector:
    return Vector.complex_(
        [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(n)]
    )


def _nonneg_row_combination(rng: random.Random, S: Matrix) -> Vector:
    """Random nonnegative rational combination of the rows of S."""
    weights = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(S.nrows)]
    if all(w == 0 for w in weights):
        weights[0] = Fraction(1)
    return S.transpose() @ Vector.rational(weights)


def _check_index_lemmas(findings: Dict[str, object]) -> None:
    findings["division_identity_grid"] = all(
        division_identity_holds(i, n)
        for n in range(1, 65)
        for i in range(-1000, 1001)
    )
    ok = True
    for m in range(1, 33):
        for n in range(1, 33):
            for i in range(1, m * n + 1):
                pair = unfold_index(i, n)
                if fold_index(pair, n) != i:
                    ok = False
            for k in range(1, m + 1):
                for ell in range(1, n + 1):
                    if unfold_index(fold_index(IndexPair(k, ell), n), n) != (k, ell):
                        ok = False
    findings["fold_unfold_roundtrip"] = ok


def _check_kron_identities(findings: Dict[str, object], rng: random.Random) -> None:
    m = n = 16
    findings["basis_kron_identity"] = all(
        kron_vec(basis_vector(m, k), basis_vector(n, ell))
        == basis_vector(m * n, (k - 1) * n + ell)
        for k in range(1, m + 1)
        for ell in range(1, n + 1)
    )

    ok = True
    for _ in range(20):
        mm, nn = rng.randint(1, 4), rng.randint(1, 4)
        pp, qq = rng.randint(1, 4), rng.randint(1, 4)
        S = _random_rational_matrix(rng, mm, nn)
        T = _random_rational_matrix(rng, pp, qq)
        K = kron(S, T)
        for i in range(1, mm * pp + 1):
            outer, inner = unfold_index(i, pp)
            if K.row(i - 1) != kron_vec(S.row(outer - 1), T.row(inner - 1)):
                ok = False
    findings["row_extraction_identity"] = ok

    findings["diag_kron_identity"] = all(
        diag_kron_identity(
            _random_rational_vector(rng, rng.randint(1, 6)),
            _random_rational_vector(rng, rng.randint(1, 6)),
        )
        for _ in range(100)
    )

    ok = True
    for _ in range(50):
        x = _random_complex_vector(rng, rng.randint(1, 8))
        y = _random_complex_vector(rng, rng.randint(1, 8))
        for p in (1, 2, math.inf):
            if abs(p_norm(kron_vec(x, y), p) - p_norm(x, p) * p_norm(y, p)) > 1e-9:
                ok = False
    findings["norm_multiplicativity"] = ok


def _check_kron_membership(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    rng: random.Random,
    tol: Tolerance,
    samples: int = 200,
) -> None:
    cone_ok = True
    tope_ok = True
    for (name_s, name_t), pd in sorted(pairs.items()):
        if pd.K.mode != RATIONAL:
            continue
        for _ in range(samples):
            x = _nonneg_row_combination(rng, pd.S)
            y = _nonneg_row_combination(rng, pd.T)
            if not perron.in_spectracone(pd.K, kron_vec(x, y), tol, pd.K_inv):
                cone_ok = False
            xt = x.scale(1 / inf_norm(x))
            yt = y.scale(1 / inf_norm(y))
            if not perron.in_spectratope(pd.K, kron_vec(xt, yt), tol, pd.K_inv):
                tope_ok = False
    findings["kron_cone_membership_sampling"] = cone_ok
    findings["kron_tope_membership_sampling"] = tope_ok


def _check_kron_witnesses(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    tol: Tolerance,
) -> None:
    ok = True
    for (name_s, name_t), pd in sorted(pairs.items()):
        wS = perron.find_perron_witness(pd.S, tol, pd.S_inv)
        wT = perron.find_perron_witness(pd.T, tol, pd.T_inv)
        if wS is None or wT is None:
            ok = False
            continue
        combined = perron.kron_witness_index(wS, wT, pd.T.nrows)
        if not perron.witness_is_valid(pd.K, combined, tol, pd.K_inv):
            ok = False
    findings["kron_witness_grid"] = ok


def _check_totally_nonzero(
    findings: Dict[str, object],
    catalog: List[Tuple[str, Matrix]],
    inverses: Dict[Matrix, Matrix],
    tol: Tolerance,
) -> None:
    ok = True
    for name, S in catalog:
        S_inv = inverses[S]
        w = perron.find_perron_witness(S, tol, S_inv)
        if w is None:
            ok = False
            continue
        x = perron.make_totally_nonzero(S, w, tol, S_inv)
        if not (
            perron.in_spectracone(S, x, tol, S_inv)
            and support(x, Tolerance(0)).all()
            and len(set(x)) > 1
        ):
            ok = False
    findings["totally_nonzero_cone_vectors"] = ok


def _check_strict_containment(
    findings: Dict[str, object],
    pairs: Dict[Tuple[str, str], _PairData],
    tol: Tolerance,
) -> None:
    ok = True
    for (name_s, name_t), pd in sorted(pairs.items()):
        if pd.K.mode != RATIONAL:
            continue
        _, evidence = perron.strict_cone_containment_certificate(pd.S, pd.T, tol)
        if not evidence.holds:
            ok = False
    findings["strict_cone_containment_certificates"] = ok

    h2 = families.hadamard_like(2)
    zp, _ = perron.strict_cone_containment_certificate(h2, h2, tol)
    a, b, c, d = zp.entries
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
    findings["hadamard_ideal"] = all(
        perron.is_ideal(families.hadamard_like(n), tol) for n in (2, 3, 4, 5)
    )
    findings["dft_ideal"] = all(
        perron.is_ideal(families.dft(n), tol) for n in range(2, 9)
    )
    findings["ideal_closed_under_kron"] = all(
        perron.is_ideal(pd.K, tol, pd.K_inv) for _, pd in sorted(pairs.items())
    )


def _check_digraphs(findings: Dict[str, object], tol: Tolerance) -> None:
    findings["cycle_imprimitivity_indices"] = all(
        digraph.imprimitivity_index(families.cycle_companion(n), tol) == n
        for n in range(2, 11)
    )
    ok = True
    for m in range(1, 9):
        for n in range(1, 9):
            cm = families.cycle_companion(m)
            cn = families.cycle_companion(n)
            predicted = digraph.kron_irreducibility_predicate(cm, cn, tol)
            direct = digraph.is_irreducible(kron(cm, cn), tol)
            if predicted != direct:
                ok = False
    findings["kron_irreducibility_grid"] = ok

    ok = True
    for n in range(1, 9):
        F_inv = inverse(families.dft(n))
        for k in range(1, n + 1):
            try:
                families.extremal_row_image(n, k, tol, F_inv)
            except families.VerificationFailedError:
                ok = False
    findings["dft_extremal_row_images"] = ok


def _check_tope_strictness(findings: Dict[str, object], tol: Tolerance) -> None:
    h2 = families.hadamard_like(2)
    f3 = families.dft(3)
    ideal_ok = perron.is_ideal(h2, tol) and perron.is_ideal(f3, tol)
    strong_h2 = perron.verify_strong_certificate(h2, Vector.rational([1, -1]), tol)
    strong_f3 = perron.verify_strong_certificate(f3, f3.row(1), tol)
    image_h2 = perron.similarity_image(h2, Vector.rational([1, -1]))
    image_f3 = perron.similarity_image(f3, f3.row(1))
    indices_coprime = (
        math.gcd(
            digraph.imprimitivity_index(image_h2, tol),
            digraph.imprimitivity_index(image_f3, tol),
        )
        == 1
    )
    _, evidence = cones.spectratope_strictness_certificate(
        h2.to_complex(), f3, tol
    )
    findings["tope_strictness_factors_ideal_strong"] = (
        ideal_ok and strong_h2 and strong_f3
    )
    findings["tope_strictness_indices_coprime"] = indices_coprime
    findings["tope_strictness_certificate"] = evidence.holds


def _check_extreme_rays(findings: Dict[str, object]) -> None:
    ok = True
    for depth in (2, 3):
        H = families.hadamard_like(depth)
        rays = cones.enumerate_extreme_rays(perron.cone_inequalities(H))
        expected = {
            cones._canonical_ray(list(row.entries)) for row in H.rows()
        }
        found = {tuple(r.entries) for r in rays}
        if found != expected:
            ok = False
    findings["hadamard_extreme_rays_match_rows"] = ok


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
    _check_kron_membership(findings, pairs, rng, tol)
    _check_kron_witnesses(findings, pairs, tol)
    _check_totally_nonzero(findings, catalog, inverses, tol)
    _check_strict_containment(findings, pairs, tol)
    _check_counterexample(findings)
    _check_ideal(findings, pairs, tol)
    _check_digraphs(findings, tol)
    _check_tope_strictness(findings, tol)
    _check_extreme_rays(findings)

    return report("verify-paper", {"seed": seed, "tolerance": tol.eps}, findings)
