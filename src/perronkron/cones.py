"""Conical and convex hull membership by exact LP, Kronecker products of
generator sets, and polyhedral cross-checks.

The spectratope strictness certificate is its checks, its blended point
and its evidence; ``perron._kron_certificate``, the construction behind
the cone certificate too, decides membership and factorization.

Membership is decided by a phase-one simplex over exact rationals with
Bland's anti-cycling rule (R. G. Bland, "New finite pivoting rules for the
simplex method", Math. Oper. Res. 2 (1977)).  The system is built from the
array state: rational generators as numerators over one denominator,
complex ones split into real and imaginary rows, with each float (and eps)
lifted exactly by ``float.as_integer_ratio`` and each equality relaxed to
a band of width eps via slack variables.  Its rows reach the simplex as
integers in lowest terms, each with its own positive denominator.  The
simplex pivots one integer tableau, every constraint row and the objective
with its denominator in its last column, by one vectorised rank-1 update
and one gcd per row: in int64 while no update can overflow it, on Python
ints after.  A column that is +/- a row's unit vector, every complex slack
among them, is read off that row's artificial column instead of stored.
Every entering variable is picked by one Bland scan over the structural
columns, each read through one column map, and no artificial ever enters:
once no structural column improves, the artificial sum is at its minimum
over the structural variables and the basic artificials, which is 0
exactly when the system is feasible, and at 0 any further pivot would be
degenerate, so the answer could not change.  The pivot row needs no gcd:
every row is kept in lowest terms and holds its own denominator at its
basic column.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Literal, Optional, Sequence, Tuple

import numpy as np

from .linalg import (
    RATIONAL,
    Matrix,
    ModeMismatchError,
    Tolerance,
    Vector,
    has_unit_inf_norm,
    inf_norm,
    integer_array,
    integer_kernel,
    integer_product,
    kron_vec,
    ones_vector,
    rank_one,
    support,
)
from .perron import _kron_certificate

HullKind = Literal["conical", "convex"]


@dataclass(frozen=True)
class ConeGenerators:
    """Finite generating set for a conical or convex hull."""

    vectors: Tuple[Vector, ...]
    hull_kind: HullKind = "conical"

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("generator sets must be nonempty")
        object.__setattr__(self, "vectors", tuple(self.vectors))
        dim = self.vectors[0].dim
        mode = self.vectors[0].mode
        for v in self.vectors[1:]:
            if v.dim != dim:
                raise ValueError("generators must share a dimension")
            if v.mode != mode:
                raise ModeMismatchError("generators must share a mode")

    @property
    def dim(self) -> int:
        return self.vectors[0].dim

    @property
    def mode(self) -> str:
        return self.vectors[0].mode

    @classmethod
    def from_rows(cls, S: Matrix, hull_kind: HullKind = "conical") -> "ConeGenerators":
        return cls(tuple(S.rows()), hull_kind)


def _phase_one_feasible(
    system: Sequence[List[int]], dens: Sequence[int]
) -> Optional[List[Fraction]]:
    """Solve A lam = b, lam >= 0 exactly; return lam or None.

    Row i of [A | b] is ``system[i] / dens[i]``, ints over a positive
    denominator.  Phase-one simplex with artificial variables and Bland's
    rule: the entering variable is the smallest structural index with a
    positive reduced cost, and ties in the ratio test go to the smallest
    basic variable index.  No artificial variable ever enters.  Once no
    structural column improves, the basis is optimal for the problem over
    the structural variables and the basic artificials, whose optimum is 0
    exactly when the system is feasible; at 0 every further pivot would be
    degenerate, so neither lam nor ``None`` could change.

    The tableau is one integer array with a row per constraint and the
    objective last.  Its columns are the stored structural variables, the
    m artificials, the rhs and the row's positive denominator, so row r
    stands for ``T[r, :-1] / T[r, -1]`` and one rank-1 update pivots every
    row.  A structural column whose only nonzero is +/- the denominator of
    row i is +/- the artificial column of row i in every tableau, so it is
    not stored.  Every structural column j is read through one map,
    ``sign[j] * T[:, where[j]]``; for that, the objective row holds at each
    artificial column the reduced cost of a structural column equal to it.
    Every row stays in lowest terms: the rank-1 update divides out each
    updated row's gcd, and the pivot row needs none, because it holds its
    old denominator at its old basic column.  The array starts as
    ``integer_array`` stores it, int64 when its entries allow; it stays
    int64 while ``integer_product`` admits the update, and is Python ints
    from then on.
    """
    m = len(system)
    if not m:
        return []
    n = len(system[0]) - 1
    d = np.array(dens, dtype=object)
    # Flip the rows with a negative rhs, so the artificial basis is feasible.
    raw = np.array(system, dtype=object)
    raw *= np.where(raw[:, n] < 0, -1, 1)[:, None]
    nonzero = raw[:, :n] != 0
    home = nonzero.argmax(axis=0)
    value = raw[home, np.arange(n)]
    unit = (nonzero.sum(axis=0) == 1) & (abs(value) == d[home])
    stored = np.flatnonzero(~unit)
    k = len(stored)
    rhs, den = k + m, k + m + 1
    # Structural column j is sign[j] * T[:, where[j]]: its stored column, or
    # the artificial column of the row a folded unit column lives in.
    where = np.where(unit, k + home, 0)
    where[stored] = np.arange(k)
    sign = np.where(unit & (value < 0), -1, 1)
    T = np.zeros((m + 1, k + m + 2), dtype=object)
    T[:m, :k] = raw[:, stored]
    T[np.arange(m), k + np.arange(m)] = d
    T[:m, rhs] = raw[:, n]
    T[:m, den] = d
    # Objective row for minimizing the artificial sum, kept in reduced form:
    # every column starts at its column sum, so an artificial column holds
    # 1, the reduced cost of a structural column equal to it (its own is 0).
    obj_den = math.lcm(*dens)
    T[m] = np.array([obj_den // q for q in dens], dtype=object) @ T[:m]
    T[m, den] = obj_den
    T[m] //= np.gcd.reduce(T[m])
    T = integer_array(T, abs(T).max())
    basis = list(range(n, n + m))
    while True:
        # Denominators are positive, so each sign is the numerator's.
        hit = np.flatnonzero(sign * T[m, where] > 0)
        if not hit.size:
            break
        entering = int(hit[0])
        column = int(sign[entering]) * T[:, where[entering]]
        candidates = np.flatnonzero(column[:m] > 0)
        if not candidates.size:
            # Unbounded artificial objective cannot occur; defensive only.
            return None
        leaving = None
        for i, coeff, r in zip(
            candidates.tolist(), column[candidates].tolist(), T[candidates, rhs].tolist()
        ):
            if leaving is None:
                better = True
            else:
                # The row denominator cancels from rhs/coeff, so compare two
                # ratios by cross-multiplying positive coefficients.
                left, right = r * best_coeff, best_rhs * coeff
                better = left < right or (left == right and basis[i] < basis[leaving])
            if better:
                leaving, best_rhs, best_coeff = i, r, coeff
        p = column[leaving]
        T[leaving, den] = p
        pivot = T[leaving].copy()
        pivot[den] = 0
        rows = np.flatnonzero(column)
        rows = rows[rows != leaving]
        f = column[rows]
        g = np.gcd(f, p)
        pp, ff = p // g, f // g
        block = T[rows]
        # Once on Python ints the tableau stays there, and no bound applies.
        bound = 0 if T.dtype == object else (
            int(abs(block).max()) * int(pp.max()) + int(abs(ff).max()) * int(abs(pivot).max())
        )
        block = integer_product(rank_one, block, pp[:, None], ff, pivot, bound=bound)
        g = np.gcd.reduce(block, axis=1)
        common = g > 1
        if common.any():
            block[common] //= g[common, None]
        if block.dtype != T.dtype:
            T = T.astype(object)
        T[rows] = block
        basis[leaving] = entering
    if T[m, rhs] != 0:
        return None
    lam = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = Fraction(int(T[i, rhs]), int(T[i, den]))
    return lam


def _reduced(row: List[int], d: int) -> Tuple[List[int], int]:
    """row/d with the common factor of its ints and d divided out."""
    g = math.gcd(*row, d)
    if g == 1:
        return row, d
    return [v // g for v in row], d // g


def _membership_system(
    G: ConeGenerators, x: Vector, tol: Tolerance, sum_to_one: bool
) -> Tuple[List[List[int]], List[int], int]:
    """Build the equality system for hull membership.

    Returns (system, dens, p): row i of [A | b] is ``system[i] / dens[i]``,
    ints in lowest terms, and the first p variables are the combination
    coefficients.  Complex data is split into real/imaginary rows with an
    eps-wide slack band on each.
    """
    if x.dim != G.dim:
        raise ValueError("dimension mismatch between generators and point")
    if x.mode != G.mode:
        raise ModeMismatchError("mode mismatch between generators and point")
    p = len(G.vectors)
    forms = [v.array_form() for v in G.vectors + (x,)]
    if G.mode == RATIONAL:
        d = math.lcm(*(f.den for f in forms))
        columns = [f.num.astype(object) * (d // f.den) for f in forms]
        rows = [(row, d) for row in np.column_stack(columns).tolist()]
    else:
        values = np.column_stack(forms)
        # Row 2i is the real part of coordinate i, row 2i + 1 its imaginary part.
        raw_rows = np.stack((values.real, values.imag), axis=1).reshape(2 * G.dim, p + 1)
        eps_num, eps_den = tol.eps.as_integer_ratio()
        n_slack = 2 * len(raw_rows)
        rows = []
        for r, raw in enumerate(raw_rows.tolist()):
            ratios = [v.as_integer_ratio() for v in raw]
            d = math.lcm(eps_den, *(q for _, q in ratios))
            row = [a * (d // q) for a, q in ratios]
            rb, eps = row.pop(), eps_num * (d // eps_den)
            # row . lam + s_hi = rb + eps;  row . lam - s_lo = rb - eps
            for k, (slack, rhs) in enumerate(((d, rb + eps), (-d, rb - eps))):
                band = row + [0] * n_slack + [rhs]
                band[p + 2 * r + k] = slack
                rows.append((band, d))
    if sum_to_one:
        width = len(rows[0][0]) - 1
        rows.append(([1] * p + [0] * (width - p) + [1], 1))
    system, dens = map(list, zip(*(_reduced(row, d) for row, d in rows)))
    return system, dens, p


def coni_coefficients(
    G: ConeGenerators, x: Vector, tol: Tolerance = Tolerance(), sum_to_one: bool = False
) -> Optional[List[Fraction]]:
    """Nonnegative combination coefficients expressing x, or None."""
    system, dens, p = _membership_system(G, x, tol, sum_to_one)
    lam = _phase_one_feasible(system, dens)
    if lam is None:
        return None
    return lam[:p]


def coni_member(G: ConeGenerators, x: Vector, tol: Tolerance = Tolerance()) -> bool:
    """Whether x lies in the conical hull of the generators."""
    return coni_coefficients(G, x, tol) is not None


def conv_member(G: ConeGenerators, x: Vector, tol: Tolerance = Tolerance()) -> bool:
    """Whether x lies in the convex hull of the generators."""
    return coni_coefficients(G, x, tol, sum_to_one=True) is not None


def kron_generator_set(U: ConeGenerators, V: ConeGenerators) -> ConeGenerators:
    """All pairwise Kronecker products u_i (x) v_j in lexicographic order."""
    if U.mode != V.mode:
        raise ModeMismatchError("generator sets must share a mode")
    if U.hull_kind != V.hull_kind:
        raise ValueError("generator sets must share a hull kind")
    return ConeGenerators(
        tuple(kron_vec(u, v) for u in U.vectors for v in V.vectors), U.hull_kind
    )


def enumerate_extreme_rays(M: Matrix) -> List[Vector]:
    """Extreme rays of {x | M x >= 0} by tight-constraint enumeration.

    Naive double-description cross-check: every (n-1)-subset of distinct
    constraint directions with a one-dimensional kernel whose kernel vector
    (or its negation) satisfies all constraints yields a candidate ray.
    ``integer_kernel`` reads the kernel vector off one Bareiss elimination
    of the subset as an integer vector k whose free entry, the last pivot,
    is positive; each ray is k / max|k|.  Rational mode only; intended for
    small n.
    """
    if M.mode != RATIONAL:
        raise ModeMismatchError("extreme-ray enumeration requires rational mode")
    n = M.ncols
    # Numerator rows over M's one denominator span the same kernels and give
    # the same signs, a zero row constrains nothing, a positive multiple of
    # a row gives the same signs again, and a subset that repeats a
    # direction has rank below n - 1.  So the distinct directions alone
    # serve both for the subsets and for the sign test.
    rows = M.array_form().num[support(M).any(axis=1)]
    rows = rows // np.gcd.reduce(rows, axis=1)[:, None]
    rows = np.array(list(dict.fromkeys(map(tuple, rows.tolist()))), dtype=object)
    rows = rows.reshape(-1, n)
    rays = {}
    for subset in combinations(range(len(rows)), n - 1):
        k = integer_kernel(rows[list(subset)])
        if k is None:
            continue
        image = rows @ k
        for sign in (1, -1):
            if (sign * image >= 0).all():
                rays[Vector._of_values(sign * k, RATIONAL, int(abs(k).max()))] = None
                break
    return sorted(rays, key=lambda ray: [str(Fraction(p, q)) for p, q in ray.to_pairs()])


@dataclass(frozen=True)
class TopeStrictnessEvidence:
    """Evidence that a spectratope point has no Kronecker factorization."""

    member_cone: bool
    norm_is_one: bool
    factorization_absent: bool
    phi: Fraction
    psi: Fraction

    @property
    def holds(self) -> bool:
        return self.member_cone and self.norm_is_one and self.factorization_absent


def spectratope_strictness_certificate(
    S: Matrix,
    T: Matrix,
    tol: Tolerance = Tolerance(),
    phi: Fraction = Fraction(1, 2),
) -> Tuple[Vector, TopeStrictnessEvidence]:
    """Certificate that P(S) (x) P(T) is strictly inside P(S (x) T).

    Builds non-constant spectratope members x, y with entries 2/3 and 1
    from the factors' witnesses, forms z = x (x) y >= 4/9, and blends the
    totally nonzero z' = phi*z + psi*e > psi with phi + psi = 1.  z' lies
    in the cone with infinity norm 1 but admits no Kronecker factorization.
    """
    if S.nrows < 2 or T.nrows < 2:
        raise ValueError("strictness certificates require orders at least 2")
    if not 0 < phi < 1:
        raise ValueError("phi and psi = 1 - phi must both be positive")
    psi = 1 - phi

    def blend(x: Vector, y: Vector) -> Vector:
        z = kron_vec(x.scale(1 / inf_norm(x)), y.scale(1 / inf_norm(y)))
        return z.scale(phi) + ones_vector(z.dim, z.mode).scale(psi)

    zp, member, absent = _kron_certificate(S, T, tol, blend)
    # The blend has entry phi*1 + psi = 1 where both factors attain their
    # norm, and no entry can exceed 1.
    return zp, TopeStrictnessEvidence(member, has_unit_inf_norm(zp, tol), absent, phi, psi)
