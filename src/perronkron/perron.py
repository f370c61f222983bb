"""Perron similarities: witnesses, spectracone and spectratope membership,
ideal/strong certificates, and strict-containment constructions.

The spectracone of an invertible S is the set of x with S diag(x) S^{-1}
entrywise nonnegative; the spectratope additionally requires infinity
norm exactly 1.  S is a Perron similarity when some column of S and the
matching row of S^{-1} are both nonnegative or both nonpositive.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .indexing import IndexPair, fold_index
from .linalg import (
    RATIONAL,
    Matrix,
    ModeMismatchError,
    Tolerance,
    Vector,
    diag_embed,
    inf_norm,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_factor,
    kron_vec,
    matrices_close,
    ones_vector,
    support,
    vector_is_nonneg,
)


class PerronWitness(NamedTuple):
    """Column index k (1-based) and sign certifying a Perron similarity."""

    index: int
    sign: int


def similarity_image(
    S: Matrix, x: Vector, sinv: Optional[Matrix] = None
) -> Matrix:
    """S diag(x) S^{-1}; pass a precomputed inverse to skip elimination."""
    if not S.is_square:
        raise ValueError("similarity images require square matrices")
    if x.dim != S.nrows:
        raise ValueError("dimension mismatch between matrix and spectrum")
    if sinv is None:
        sinv = inverse(S)
    for other in (x, sinv):
        if other.mode != S.mode:
            raise ModeMismatchError(f"mode mismatch: {S.mode} vs {other.mode}")
    if sinv.nrows != S.ncols:
        raise ValueError("dimension mismatch")
    return S.scale_columns(x) @ sinv


def in_spectracone(
    S: Matrix,
    x: Vector,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    """Whether S diag(x) S^{-1} is entrywise nonnegative (in complex mode,
    nearly real and nonnegative within ``tol``)."""
    return is_entrywise_nonneg(similarity_image(S, x, sinv), tol)


def in_spectratope(
    S: Matrix,
    x: Vector,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    return in_spectracone(S, x, tol, sinv) and has_unit_inf_norm(x, tol)


def has_unit_inf_norm(x: Vector, tol: Tolerance = Tolerance()) -> bool:
    """Whether the infinity norm of x is 1: exactly in rational mode, within
    eps in complex mode."""
    if x.mode == RATIONAL:
        return inf_norm(x) == 1
    return abs(inf_norm(x) - 1.0) <= tol.eps


def cone_inequalities(S: Matrix, sinv: Optional[Matrix] = None) -> Matrix:
    """n^2-by-n matrix M with x in the spectracone of S iff M x >= 0.

    Row (i, j) (flattened as (i-1)*n + j) has k-th entry
    S[i, k] * S^{-1}[k, j], the coefficient of x_k in the (i, j) entry of
    S diag(x) S^{-1}.
    """
    if not S.is_square:
        raise ValueError("cone inequalities require square matrices")
    if sinv is None:
        sinv = inverse(S)
    n = S.nrows
    rows = [
        [S.entries[i][k] * sinv.entries[k][j] for k in range(n)]
        for i in range(n)
        for j in range(n)
    ]
    return Matrix(rows, S.mode)


def find_perron_witness(
    S: Matrix, tol: Tolerance = Tolerance(), sinv: Optional[Matrix] = None
) -> Optional[PerronWitness]:
    """First (ascending k, + before -) column/inverse-row witness, if any."""
    if not S.is_square:
        raise ValueError("Perron witnesses require square matrices")
    if sinv is None:
        sinv = inverse(S)
    for k in range(1, S.nrows + 1):
        column = S.col(k - 1)
        inv_row = sinv.row(k - 1)
        for sign in (1, -1):
            if vector_is_nonneg(column, tol, sign) and vector_is_nonneg(
                inv_row, tol, sign
            ):
                return PerronWitness(k, sign)
    return None


def witness_is_valid(
    S: Matrix,
    w: PerronWitness,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    if not 1 <= w.index <= S.nrows or w.sign not in (1, -1):
        return False
    if sinv is None:
        sinv = inverse(S)
    return vector_is_nonneg(S.col(w.index - 1), tol, w.sign) and vector_is_nonneg(
        sinv.row(w.index - 1), tol, w.sign
    )


def kron_witness_index(wS: PerronWitness, wT: PerronWitness, n: int) -> PerronWitness:
    """Witness for a Kronecker product of Perron similarities.

    Witnesses (k, s) for S and (l, t) for the order-n factor T combine to
    ((k-1)n + l, s*t) for S (x) T.
    """
    return PerronWitness(
        fold_index(IndexPair(wS.index, wT.index), n), wS.sign * wT.sign
    )


def is_ideal(
    S: Matrix, tol: Tolerance = Tolerance(), sinv: Optional[Matrix] = None
) -> bool:
    """Criterion for an ideal Perron similarity.

    Some row of S must equal the all-ones row and every row of S must lie
    in the spectracone of S.
    """
    if sinv is None:
        sinv = inverse(S)
    rows, ones = S.rows(), ones_vector(S.nrows, S.mode)
    if not any(matrices_close(row, ones, tol) for row in rows):
        return False
    return all(in_spectracone(S, row, tol, sinv) for row in rows)


def verify_strong_certificate(
    S: Matrix,
    x: Vector,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    """Whether S diag(x) S^{-1} is nonnegative and irreducible.

    A single certifying spectrum x establishes that S is strong; no search
    over spectra is performed.
    """
    from .digraph import is_irreducible

    image = similarity_image(S, x, sinv)
    return is_entrywise_nonneg(image, tol) and is_irreducible(image, tol)


def make_totally_nonzero(
    S: Matrix,
    w: PerronWitness,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> Vector:
    """Totally nonzero, non-constant spectracone member built from a witness.

    Returns e_k + 2e, which stays in the cone (the cone contains e_k and e
    and is convex), has no zero entries, and is not a multiple of e when
    the order is at least 2.
    """
    if not witness_is_valid(S, w, tol, sinv):
        raise ValueError(f"{w} is not a valid witness for this matrix")
    entries = [2] * S.nrows
    entries[w.index - 1] = 3
    return Vector(entries, S.mode)


def factor_cone_members(
    S: Matrix, T: Matrix, tol: Tolerance = Tolerance()
) -> Tuple[Vector, Vector, Matrix]:
    """Totally nonzero, non-constant x in C(S) and y in C(T), built from the
    factors' witnesses, and the inverse of S (x) T.

    Raises ValueError unless both factors are Perron similarities.
    """
    S_inv, T_inv = inverse(S), inverse(T)
    wS = find_perron_witness(S, tol, S_inv)
    wT = find_perron_witness(T, tol, T_inv)
    if wS is None or wT is None:
        raise ValueError("both factors must be Perron similarities")
    x = make_totally_nonzero(S, wS, tol, S_inv)
    y = make_totally_nonzero(T, wT, tol, T_inv)
    # (S (x) T)^{-1} = S^{-1} (x) T^{-1}: no elimination at order mn.
    return x, y, kron(S_inv, T_inv)


@dataclass(frozen=True)
class StrictConeEvidence:
    """Evidence that a cone vector lies in C(S (x) T) but has no factorization."""

    member: bool
    factorization_absent: bool
    shift: object  # the epsilon added to x (x) y

    @property
    def holds(self) -> bool:
        return self.member and self.factorization_absent


def strict_cone_containment_certificate(
    S: Matrix, T: Matrix, tol: Tolerance = Tolerance()
) -> Tuple[Vector, StrictConeEvidence]:
    """Certificate that C(S) (x) C(T) is strictly inside C(S (x) T).

    Builds totally nonzero non-constant x in C(S) and y in C(T), forms
    z = x (x) y, and shifts by a positive multiple of e until totally
    nonzero.  The shifted vector is in the product cone but admits no
    Kronecker factorization (its reshape has rank above 1).
    """
    if S.nrows < 2 or T.nrows < 2:
        raise ValueError("strict containment requires orders at least 2")
    x, y, K_inv = factor_cone_members(S, T, tol)
    z = kron_vec(x, y)
    m, n = S.nrows, T.nrows
    shift = Fraction(1) if z.mode == RATIONAL else complex(1)
    e = ones_vector(m * n, z.mode)
    zp = z + e.scale(shift)
    while not support(zp, Tolerance(0)).all():
        shift = shift + 1
        zp = z + e.scale(shift)
    evidence = StrictConeEvidence(
        member=in_spectracone(kron(S, T), zp, tol, K_inv),
        factorization_absent=kron_factor(zp, m, n, tol) is None,
        shift=shift,
    )
    return zp, evidence


@dataclass(frozen=True)
class CounterexampleReport:
    """A nonscalar nonnegative similarity image without a Perron witness."""

    s: Matrix
    s_inv: Matrix
    d: Matrix
    a: Matrix
    witness_search: Optional[PerronWitness]
    nonscalar: bool


def reproduce_counterexample() -> CounterexampleReport:
    """Refutation instance: cone(e) strictly inside C(S) without S being a
    Perron similarity.

    S is the Kronecker product of [[1,1],[1,-1]] and [[1,2],[1,1]];
    conjugating diag(2, 2, -1, -1) by S gives a nonnegative, nonscalar
    matrix even though no column/inverse-row witness exists.
    """
    h2 = Matrix.rational([[1, 1], [1, -1]])
    t = Matrix.rational([[1, 2], [1, 1]])
    s = kron(h2, t)
    s_inv = inverse(s)
    x = Vector.rational([2, 2, -1, -1])
    d = diag_embed(x)
    a = similarity_image(s, x, s_inv)
    nonscalar = a != Matrix.identity(4).scale(a[0, 0])
    return CounterexampleReport(
        s=s,
        s_inv=s_inv,
        d=d,
        a=a,
        witness_search=find_perron_witness(s, sinv=s_inv),
        nonscalar=nonscalar,
    )
