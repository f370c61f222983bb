"""Perron similarities: witnesses, spectracone and spectratope membership,
ideal/strong certificates, and strict-containment constructions.

One construction, ``_kron_certificate``, builds both strictness
certificates, this module's cone one and the spectratope one in ``cones``:
it forms a point from the factors' totally nonzero cone members, decides
its membership in C(S (x) T) through S^{-1} (x) T^{-1}, and asks whether its
reshape has rank 1.  Each certificate checks its own arguments first and
forms its own point.

The spectracone of an invertible S is the set of x with S diag(x) S^{-1}
entrywise nonnegative; the spectratope additionally requires infinity
norm exactly 1.  S is a Perron similarity when some column of S and the
matching row of S^{-1} are both nonnegative or both nonpositive.
Every function that accepts a precomputed inverse ``sinv`` (or ``tinv``
of a second factor T) takes it from ``_checked_inverse``, the one place
a malformed operand is refused.  In order, it checks that S is square (``similarity_image`` and
``in_spectracone`` say "similarity images require square matrices",
``cone_inequalities`` "cone inequalities ..." and ``find_perron_witness``
"Perron witnesses ...", the rest "only square matrices are invertible"),
that a spectrum x is of S's order, that x and then ``sinv`` are in S's
mode once S is inverted (when ``sinv`` is None), and that ``sinv`` has
S's shape.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple, Union

from .digraph import is_irreducible
from .indexing import IndexPair, fold_index
from .linalg import (
    RATIONAL,
    Matrix,
    Tolerance,
    Vector,
    _require_same_mode,
    basis_vector,
    diag_embed,
    face_split,
    has_unit_inf_norm,
    inverse,
    is_entrywise_nonneg,
    is_sylvester,
    kron,
    kron_factor,
    kron_vec,
    matrices_close,
    ones_vector,
    vector_is_nonneg,
    walsh_hadamard,
)


class PerronWitness(NamedTuple):
    """Column index k (1-based) and sign certifying a Perron similarity."""

    index: int
    sign: int


# Most image entries one stacked membership product of the dense path may
# hold; it sets how many rows of a matrix x ``in_spectracone`` decides at
# once.  The Sylvester path forms no image: for S = H_n its entry (i, j)
# is (H_n x)[i XOR j] / n.
_CHUNK_ENTRIES = 2**14

# What ``similarity_image`` and ``in_spectracone`` say of a non-square S.
_IMAGE_SQUARE = "similarity images require square matrices"


def similarity_image(
    S: Matrix, x: Union[Vector, Matrix], sinv: Optional[Matrix] = None
) -> Matrix:
    """S diag(x) S^{-1}; pass a precomputed inverse to skip elimination.

    For a matrix x, the images of its rows x_b stacked: row block b is
    S diag(x_b) S^{-1}, and one product forms them all.
    """
    sinv = _checked_inverse(S, sinv, x, _IMAGE_SQUARE)
    return S.scale_columns(x) @ sinv


def _checked_inverse(
    S: Matrix,
    sinv: Optional[Matrix],
    x: Union[Vector, Matrix, None] = None,
    square: str = "only square matrices are invertible",
) -> Matrix:
    """``sinv``, or S^{-1} when it is None: the one place perron refuses a
    malformed operand.

    In order: S must be square, whether or not ``sinv`` is given (else
    ValueError with the caller's ``square`` message); x (when given) must
    be of S's order; S is inverted when ``sinv`` is None; x and then the
    inverse must be in S's mode (``_require_same_mode``); and the inverse
    must have S's shape.
    """
    if not S.is_square:
        raise ValueError(square)
    if x is not None and (x.ncols if isinstance(x, Matrix) else x.dim) != S.nrows:
        raise ValueError("dimension mismatch between matrix and spectrum")
    if sinv is None:
        sinv = inverse(S)
    for other in (x, sinv):
        if other is not None:
            _require_same_mode(S, other)
    if (sinv.nrows, sinv.ncols) != (S.nrows, S.ncols):
        raise ValueError("dimension mismatch")
    return sinv


def in_spectracone(
    S: Matrix,
    x: Union[Vector, Matrix],
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    """Whether S diag(x) S^{-1} is entrywise nonnegative (in complex mode,
    nearly real and nonnegative within ``tol``).

    For a matrix x, whether every row of x is in the spectracone.

    S, x and ``sinv`` are checked first by ``_checked_inverse``, as
    ``similarity_image`` checks them: S square ("similarity images require
    square matrices"), x of S's order, x and ``sinv`` in S's mode, and
    ``sinv`` of S's shape.  When S is the Sylvester Hadamard matrix H_n
    (``is_sylvester``) and ``sinv`` is exactly H_n / n, entry (i, j) of
    H_n diag(x) H_n^{-1} is (H_n x)[i XOR j] / n, so x is a member iff
    H_n x >= 0: one exact ``walsh_hadamard`` of every row decides, and no
    image is formed.
    Otherwise the rows are decided in chunks, each by one stacked
    ``similarity_image`` of at most ``_CHUNK_ENTRIES`` entries (or of one
    row), and the first chunk that fails decides.
    """
    sinv = _checked_inverse(S, sinv, x, _IMAGE_SQUARE)
    if is_sylvester(S) and sinv == S.scale(Fraction(1, S.nrows)):
        return is_entrywise_nonneg(walsh_hadamard(x))
    if isinstance(x, Vector):
        return is_entrywise_nonneg(similarity_image(S, x, sinv), tol)
    chunk = max(1, _CHUNK_ENTRIES // S.nrows**2)
    blocks = (x.row_block(b, b + chunk) for b in range(0, x.nrows, chunk))
    return all(is_entrywise_nonneg(similarity_image(S, X, sinv), tol) for X in blocks)


def in_spectratope(
    S: Matrix,
    x: Vector,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    return in_spectracone(S, x, tol, sinv) and has_unit_inf_norm(x, tol)


def cone_inequalities(S: Matrix, sinv: Optional[Matrix] = None) -> Matrix:
    """n^2-by-n matrix M with x in the spectracone of S iff M x >= 0.

    Row (i, j) (flattened as (i-1)*n + j) has k-th entry
    S[i, k] * S^{-1}[k, j], the coefficient of x_k in the (i, j) entry of
    S diag(x) S^{-1}.
    """
    sinv = _checked_inverse(S, sinv, square="cone inequalities require square matrices")
    return face_split(S, sinv.transpose())


def find_perron_witness(
    S: Matrix, tol: Tolerance = Tolerance(), sinv: Optional[Matrix] = None
) -> Optional[PerronWitness]:
    """First (ascending k, + before -) column/inverse-row witness, if any."""
    sinv = _checked_inverse(S, sinv, square="Perron witnesses require square matrices")
    witnesses = (PerronWitness(k, s) for k in range(1, S.nrows + 1) for s in (1, -1))
    return next((w for w in witnesses if witness_is_valid(S, w, tol, sinv)), None)


def witness_is_valid(
    S: Matrix,
    w: PerronWitness,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> bool:
    if not 1 <= w.index <= S.nrows or w.sign not in (1, -1):
        return False
    sinv = _checked_inverse(S, sinv)
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
    sinv = _checked_inverse(S, sinv)
    ones = ones_vector(S.nrows, S.mode)
    if not any(matrices_close(S.row(i), ones, tol) for i in range(S.nrows)):
        return False
    return in_spectracone(S, S, tol, sinv)


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
    image = similarity_image(S, x, sinv)
    return is_entrywise_nonneg(image, tol) and is_irreducible(image, tol)


def make_totally_nonzero(
    S: Matrix,
    w: PerronWitness,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
) -> Vector:
    """Totally nonzero, non-constant spectracone member built from a witness.

    Returns e_k + 2e for the witness index k, the sum of the unit vectors
    ``basis_vector`` and ``ones_vector`` build.  It stays in the cone (the
    cone contains e_k and e and is convex), has no zero entries, and is not
    a multiple of e when the order is at least 2.
    """
    if not witness_is_valid(S, w, tol, sinv):
        raise ValueError(f"{w} is not a valid witness for this matrix")
    return basis_vector(S.nrows, w.index, S.mode) + ones_vector(S.nrows, S.mode).scale(2)


def factor_cone_members(
    S: Matrix,
    T: Matrix,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
    tinv: Optional[Matrix] = None,
) -> Tuple[Vector, Vector, Matrix]:
    """Totally nonzero, non-constant x in C(S) and y in C(T), built from the
    factors' witnesses, and the inverse of S (x) T.

    Pass precomputed inverses ``sinv`` of S and ``tinv`` of T to skip
    elimination.  Raises ValueError unless both factors are Perron
    similarities.
    """
    S_inv, T_inv = _checked_inverse(S, sinv), _checked_inverse(T, tinv)
    wS = find_perron_witness(S, tol, S_inv)
    wT = find_perron_witness(T, tol, T_inv)
    if wS is None or wT is None:
        raise ValueError("both factors must be Perron similarities")
    x = make_totally_nonzero(S, wS, tol, S_inv)
    y = make_totally_nonzero(T, wT, tol, T_inv)
    # (S (x) T)^{-1} = S^{-1} (x) T^{-1}: no elimination at order mn.
    return x, y, kron(S_inv, T_inv)


def _kron_certificate(
    S: Matrix,
    T: Matrix,
    tol: Tolerance,
    point: Callable[[Vector, Vector], Vector],
    sinv: Optional[Matrix] = None,
    tinv: Optional[Matrix] = None,
) -> Tuple[Vector, bool, bool]:
    """The one construction behind both strictness certificates.

    Forms zp = point(x, y) from the ``factor_cone_members`` x and y, and
    returns zp, whether it lies in C(S (x) T) (decided through
    S^{-1} (x) T^{-1}), and whether it admits no Kronecker factorization
    (its reshape to S.nrows rows has rank above 1).  ``sinv`` and
    ``tinv``, when given, are the inverses of S and T.  The callers check
    their own arguments first.
    """
    x, y, K_inv = factor_cone_members(S, T, tol, sinv, tinv)
    zp = point(x, y)
    member = in_spectracone(kron(S, T), zp, tol, K_inv)
    return zp, member, kron_factor(zp, S.nrows, T.nrows, tol) is None


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
    S: Matrix,
    T: Matrix,
    tol: Tolerance = Tolerance(),
    sinv: Optional[Matrix] = None,
    tinv: Optional[Matrix] = None,
) -> Tuple[Vector, StrictConeEvidence]:
    """Certificate that C(S) (x) C(T) is strictly inside C(S (x) T).

    Builds non-constant x in C(S) and y in C(T) with entries 2 and 3, forms
    z = x (x) y >= 4, and shifts it by e to a totally nonzero vector in the
    product cone that admits no Kronecker factorization (its reshape has
    rank above 1).  Pass precomputed inverses ``sinv`` of S and ``tinv`` of
    T to skip elimination.
    """
    if S.nrows < 2 or T.nrows < 2:
        raise ValueError("strict containment requires orders at least 2")
    zp, member, absent = _kron_certificate(
        S,
        T,
        tol,
        lambda x, y: kron_vec(x, y) + ones_vector(x.dim * y.dim, x.mode),
        sinv,
        tinv,
    )
    shift = Fraction(1) if zp.mode == RATIONAL else complex(1)
    return zp, StrictConeEvidence(member, absent, shift)


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
    nonscalar = a != Matrix.identity(4).scale(Fraction(*next(a.to_pairs())))
    return CounterexampleReport(
        s=s,
        s_inv=s_inv,
        d=d,
        a=a,
        witness_search=find_perron_witness(s, sinv=s_inv),
        nonscalar=nonscalar,
    )
