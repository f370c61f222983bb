"""Conical and convex hull membership by exact LP, Kronecker products of
generator sets, and polyhedral cross-checks.

Membership is decided by a phase-one simplex over exact rationals with
Bland's anti-cycling rule.  Each tableau row is held as a list of Python
ints with its own positive denominator, so a pivot updates integers and
takes one gcd per row, not one per entry.  Complex-mode systems are split
into real and imaginary rows (with float coefficients lifted exactly into
rationals) and each equality is relaxed to a band of width eps via slack
variables.
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
    bareiss_eliminate,
    inf_norm,
    integer_form,
    kron,
    kron_factor,
    kron_vec,
    ones_vector,
    support,
)
from .perron import factor_cone_members, has_unit_inf_norm, in_spectracone

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
    A: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Solve A lam = b, lam >= 0 exactly; return lam or None.

    Phase-one simplex with artificial variables and Bland's rule (smallest
    eligible entering index; ties in the ratio test broken by smallest
    basic variable index).  Each tableau row, and the objective row, is a
    list of ints R with its own positive denominator d, standing for R/d.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    total_cols = n + m
    # Tableau columns: n structural vars, then m artificials, then rhs.
    rows: List[List[int]] = []
    dens: List[int] = []
    for i in range(m):
        values = list(A[i]) + [b[i]]
        d = math.lcm(*(v.denominator for v in values))
        sign = -1 if b[i] < 0 else 1
        row = [sign * v.numerator * (d // v.denominator) for v in values]
        row[n:n] = [d if j == i else 0 for j in range(m)]
        rows.append(row)
        dens.append(d)
    basis = [n + i for i in range(m)]
    # Objective row for minimizing the artificial sum, kept in reduced form:
    # structural columns start at the column sums, artificial columns at 0.
    obj_den = math.lcm(*dens)
    weights = [obj_den // d for d in dens]
    obj = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
    obj += [0] * m
    obj.append(sum(w * row[total_cols] for w, row in zip(weights, rows)))
    obj, obj_den = _reduced(obj, obj_den)
    while True:
        # Denominators are positive, so each sign is the numerator's.
        entering = next((j for j in range(total_cols) if obj[j] > 0), None)
        if entering is None:
            break
        leaving = None
        for i, row in enumerate(rows):
            coeff = row[entering]
            if coeff > 0:
                if leaving is None:
                    better = True
                else:
                    # The row denominator cancels from rhs/coeff, so compare
                    # two ratios by cross-multiplying positive coefficients.
                    left, right = row[total_cols] * best_coeff, best_rhs * coeff
                    better = left < right or (
                        left == right and basis[i] < basis[leaving]
                    )
                if better:
                    leaving, best_rhs, best_coeff = i, row[total_cols], coeff
        if leaving is None:
            # Unbounded artificial objective cannot occur; defensive only.
            return None
        pivot = rows[leaving]
        p = pivot[entering]
        dens[leaving] = p
        for i in range(m):
            f = rows[i][entering]
            if i != leaving and f != 0:
                rows[i], dens[i] = _eliminated(rows[i], dens[i], f, pivot, p)
        obj, obj_den = _eliminated(obj, obj_den, obj[entering], pivot, p)
        basis[leaving] = entering
    if obj[total_cols] != 0:
        return None
    lam = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = Fraction(rows[i][total_cols], dens[i])
    return lam


def _eliminated(
    row: List[int], d: int, f: int, pivot: List[int], p: int
) -> Tuple[List[int], int]:
    """(row/d) - (f/d) * (pivot/p) as ints over one denominator."""
    g = math.gcd(p, f)
    p, f = p // g, f // g
    return _reduced([p * v - f * w for v, w in zip(row, pivot)], d * p)


def _reduced(row: List[int], d: int) -> Tuple[List[int], int]:
    """row/d with the common factor of its ints and d divided out."""
    g = math.gcd(*row, d)
    if g == 1:
        return row, d
    return [v // g for v in row], d // g


def _membership_system(
    G: ConeGenerators, x: Vector, tol: Tolerance, sum_to_one: bool
) -> Tuple[List[List[Fraction]], List[Fraction], int]:
    """Build the equality system for hull membership.

    Returns (A, b, p) where the first p variables are the combination
    coefficients.  Complex data is split into real/imaginary rows with an
    eps-wide slack band on each.
    """
    if x.dim != G.dim:
        raise ValueError("dimension mismatch between generators and point")
    if x.mode != G.mode:
        raise ModeMismatchError("mode mismatch between generators and point")
    p = len(G.vectors)
    if G.mode == RATIONAL:
        A = [[g.entries[i] for g in G.vectors] for i in range(G.dim)]
        b = list(x.entries)
    else:
        raw_rows: List[List[Fraction]] = []
        raw_b: List[Fraction] = []
        for i in range(G.dim):
            raw_rows.append([Fraction(g.entries[i].real) for g in G.vectors])
            raw_b.append(Fraction(x.entries[i].real))
            raw_rows.append([Fraction(g.entries[i].imag) for g in G.vectors])
            raw_b.append(Fraction(x.entries[i].imag))
        eps = Fraction(tol.eps)
        A = []
        b = []
        n_slack = 2 * len(raw_rows)
        for r, (row, rb) in enumerate(zip(raw_rows, raw_b)):
            # row . lam + s_hi = rb + eps;  row . lam - s_lo = rb - eps
            hi = row + [Fraction(0)] * n_slack
            hi[p + 2 * r] = Fraction(1)
            lo = row + [Fraction(0)] * n_slack
            lo[p + 2 * r + 1] = Fraction(-1)
            A.append(hi)
            b.append(rb + eps)
            A.append(lo)
            b.append(rb - eps)
    if sum_to_one:
        width = len(A[0])
        A.append([Fraction(1)] * p + [Fraction(0)] * (width - p))
        b.append(Fraction(1))
    return A, b, p


def coni_coefficients(
    G: ConeGenerators, x: Vector, tol: Tolerance = Tolerance(), sum_to_one: bool = False
) -> Optional[List[Fraction]]:
    """Nonnegative combination coefficients expressing x, or None."""
    A, b, p = _membership_system(G, x, tol, sum_to_one)
    lam = _phase_one_feasible(A, b)
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


def _null_space(rows: List[List[Fraction]], n: int) -> List[List[Fraction]]:
    """Basis of the kernel of the given rational row system in dimension n.

    One vector per free column fc of the reduced system, with entry 1 at fc
    and 0 at the other free columns.
    """
    M = np.zeros((len(rows), n), dtype=object)
    if rows:
        M[:] = integer_form(rows).num
    pivots, det = bareiss_eliminate(M)
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-M[i, fc], det)
        basis.append(vec)
    return basis


def _canonical_ray(entries: List[Fraction]) -> Optional[Tuple[Fraction, ...]]:
    """Scale by a positive factor so the largest magnitude entry is +/-1."""
    biggest = max(abs(v) for v in entries)
    if biggest == 0:
        return None
    return tuple(v / biggest for v in entries)


def enumerate_extreme_rays(M: Matrix) -> List[Vector]:
    """Extreme rays of {x | M x >= 0} by tight-constraint enumeration.

    Naive double-description cross-check: every (n-1)-subset of constraint
    rows with a one-dimensional kernel whose kernel vector (or its
    negation) satisfies all constraints yields a candidate ray.  Rational
    mode only; intended for small n.
    """
    if M.mode != RATIONAL:
        raise ModeMismatchError("extreme-ray enumeration requires rational mode")
    n = M.ncols
    rows = [row for row in M.entries if any(v != 0 for v in row)]
    rays = {}
    for subset in combinations(range(len(rows)), n - 1):
        kernel = _null_space([rows[i] for i in subset], n)
        if len(kernel) != 1:
            continue
        vec = kernel[0]
        for candidate in (vec, [-v for v in vec]):
            if all(
                sum(r * c for r, c in zip(row, candidate)) >= 0 for row in rows
            ):
                canon = _canonical_ray(candidate)
                if canon is not None:
                    rays[canon] = Vector(list(canon), RATIONAL)
                break
    return [rays[key] for key in sorted(rays, key=lambda t: [str(v) for v in t])]


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

    Builds totally nonzero non-constant spectratope members x, y from the
    factors' witnesses, forms z = x (x) y, and blends z' = phi*z + psi*e
    with phi + psi = 1, halving phi until z' is totally nonzero.  z' lies
    in the cone with infinity norm 1 but admits no Kronecker factorization.
    """
    if S.nrows < 2 or T.nrows < 2:
        raise ValueError("strictness certificates require orders at least 2")
    if not 0 < phi < 1:
        raise ValueError("phi and psi = 1 - phi must both be positive")
    x, y, K_inv = factor_cone_members(S, T, tol)
    z = kron_vec(x.scale(1 / inf_norm(x)), y.scale(1 / inf_norm(y)))
    m, n = S.nrows, T.nrows
    e = ones_vector(m * n, z.mode)
    while True:
        psi = 1 - phi
        zp = z.scale(phi) + e.scale(psi)
        if support(zp, Tolerance(0)).all():
            break
        phi = phi / 2
    evidence = TopeStrictnessEvidence(
        member_cone=in_spectracone(kron(S, T), zp, tol, K_inv),
        # The blend has entry phi*1 + psi = 1 where both factors attain their
        # norm, and no entry can exceed 1.
        norm_is_one=has_unit_inf_norm(zp, tol),
        factorization_absent=kron_factor(zp, m, n, tol) is None,
        phi=phi,
        psi=psi,
    )
    return zp, evidence
