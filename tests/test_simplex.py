"""Differential tests of the integer-row phase-one simplex and of the
integer membership system it is handed.

The reference oracles below are the Fraction tableau that
``cones._phase_one_feasible`` used before its rows became lists of ints,
each with its own denominator, and the Fraction system that
``cones._membership_system`` built before it read the array state.  They
live here, not in the library.  Every simplex test compares the
coefficient vectors exactly, not only feasibility, and every system test
compares the integer rows exactly.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

from perronkron import cones
from perronkron.cones import (
    ConeGenerators,
    _membership_system,
    _phase_one_feasible,
    kron_generator_set,
)
from perronkron.families import dft, hadamard_like
from perronkron.linalg import (
    RATIONAL,
    ModeMismatchError,
    Tolerance,
    Vector,
)
from test_bareiss import integer_form


def _oracle_membership_system(G, x, tol, sum_to_one):
    """The hull membership system over Fractions: (A, b, p), where the
    first p variables are the combination coefficients.  Complex data is
    split into real/imaginary rows with an eps-wide slack band on each."""
    if x.dim != G.dim:
        raise ValueError("dimension mismatch between generators and point")
    if x.mode != G.mode:
        raise ModeMismatchError("mode mismatch between generators and point")
    p = len(G.vectors)
    if G.mode == RATIONAL:
        A = [[g.entries[i] for g in G.vectors] for i in range(G.dim)]
        b = list(x.entries)
    else:
        raw_rows = []
        raw_b = []
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


def _integer_system(A, b):
    """Rows of [A | b] cleared to lowest terms: (system, dens) as the
    library's simplex takes them."""
    forms = [integer_form([list(row) + [v]]) for row, v in zip(A, b)]
    return [f.num[0].tolist() for f in forms], [f.den for f in forms]


def _oracle_phase_one(A, b):
    """Phase-one simplex over Fractions with Bland's rule (smallest entering
    index; ratio ties broken by the smallest basic variable index)."""
    m = len(A)
    n = len(A[0]) if m else 0
    rows = []
    rhs = []
    for i in range(m):
        if b[i] < 0:
            rows.append([-v for v in A[i]])
            rhs.append(-b[i])
        else:
            rows.append(list(A[i]))
            rhs.append(b[i])
    tab = [
        rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]
    obj = [sum(tab[i][j] for i in range(m)) for j in range(n)]
    obj += [Fraction(0)] * m
    obj.append(sum(rhs))
    total_cols = n + m
    while True:
        entering = next((j for j in range(total_cols) if obj[j] > 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(m):
            coeff = tab[i][entering]
            if coeff > 0:
                ratio = tab[i][total_cols] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            return None
        piv = tab[leaving][entering]
        tab[leaving] = [v / piv for v in tab[leaving]]
        for i in range(m):
            if i != leaving and tab[i][entering] != 0:
                f = tab[i][entering]
                tab[i] = [v - f * p for v, p in zip(tab[i], tab[leaving])]
        if obj[entering] != 0:
            f = obj[entering]
            obj = [v - f * p for v, p in zip(obj, tab[leaving])]
        basis[leaving] = entering
    if obj[total_cols] != 0:
        return None
    lam = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = tab[i][total_cols]
    return lam


def _assert_matches_oracle(A, b):
    got = _phase_one_feasible(*_integer_system(A, b))
    assert got == _oracle_phase_one(A, b)
    if got is not None:
        assert all(type(v) is Fraction and v >= 0 for v in got)
        assert [sum(a * v for a, v in zip(row, got)) for row in A] == list(b)
    return got


def _random_lp(rng):
    """A small system with repeated ratios, zero and duplicate rows, and
    right-hand sides of either sign."""
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    entries = [0, 0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3)]
    A = [[Fraction(rng.choice(entries)) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # Feasible by construction: b = A lam0 for a sparse lam0 >= 0.
        lam0 = [Fraction(rng.choice([0, 0, 1, 2, Fraction(1, 2)])) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, lam0)) for row in A]
    else:
        b = [Fraction(rng.choice([0, 1, -1, 2, -3, Fraction(3, 2)])) for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        k = rng.randrange(m)
        A[k] = [Fraction(0)] * n
        b[k] = Fraction(rng.choice([0, 0, 1]))
    if m > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(m), 2)
        A[dst], b[dst] = list(A[src]), b[src]
    return A, b


def test_matches_oracle_on_seeded_random_lps():
    rng = random.Random(2024)
    feasible = infeasible = negative_rhs = 0
    for _ in range(1500):
        A, b = _random_lp(rng)
        got = _assert_matches_oracle(A, b)
        feasible += got is not None
        infeasible += got is None
        negative_rhs += got is not None and any(v < 0 for v in b)
    assert feasible >= 300 and infeasible >= 300 and negative_rhs >= 50


def test_matches_oracle_on_degenerate_ratio_ties():
    """Wide nonnegative systems with small integer entries: many rows tie
    in the ratio test, often after pivots have reordered the basis, so the
    basis-index tie-break decides which feasible vertex is returned."""
    rng = random.Random(1)
    for _ in range(400):
        m, n = rng.randint(5, 9), rng.randint(8, 16)
        A = [[Fraction(rng.choice([0, 1, 1, 1, 2])) for _ in range(n)] for _ in range(m)]
        lam0 = [Fraction(rng.choice([0, 1, 1, 2])) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, lam0)) for row in A]
        _assert_matches_oracle(A, b)


def test_fixed_small_systems():
    one, two = Fraction(1), Fraction(2)
    # x = 1 and x = 2 together: infeasible.
    assert _assert_matches_oracle([[one], [one]], [one, two]) is None
    # -x = -3 needs the row sign flipped.
    assert _assert_matches_oracle([[-one]], [-Fraction(3)]) == [Fraction(3)]
    # x - y = -1/2 with x, y >= 0.
    assert _assert_matches_oracle([[one, -one]], [Fraction(-1, 2)]) == [0, Fraction(1, 2)]
    # A zero row with a nonzero right-hand side.
    assert _assert_matches_oracle([[one, one], [0 * one, 0 * one]], [one, one]) is None
    # Duplicate rows and a zero right-hand side.
    assert _assert_matches_oracle([[one, two]] * 3, [0 * one] * 3) == [0, 0]
    assert _phase_one_feasible([], []) == _oracle_phase_one([], []) == []


def test_large_denominators():
    rng = random.Random(5)
    big = 2**70
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        A = [
            [Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(n)]
            for _ in range(m)
        ]
        b = [Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(m)]
        _assert_matches_oracle(A, b)


def _dft_point(rng, F, kind, member):
    n = F.nrows
    w = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
    if kind == "convex":
        w = [v / sum(w) for v in w]
        if not member:
            w = [2 * v for v in w]
    elif not member:
        w[rng.randrange(n)] = -Fraction(rng.randint(1, 6), rng.randint(1, 3))
    return Vector.complex_(
        [sum(float(wk) * row[j] for wk, row in zip(w, F.entries)) for j in range(n)]
    )


@pytest.mark.parametrize("n", range(3, 13))
def test_matches_oracle_on_complex_dft_systems(n):
    rng = random.Random(300 + n)
    F = dft(n)
    tol = Tolerance()
    # Both hull kinds at every order; which point is the member alternates
    # so that each order runs one member and one non-member system.
    for kind, member in (("conical", n % 2 == 0), ("convex", n % 2 == 1)):
        G = ConeGenerators.from_rows(F, kind)
        x = _dft_point(rng, F, kind, member)
        system, dens, p = _membership_system(G, x, tol, kind == "convex")
        A, b, _ = _oracle_membership_system(G, x, tol, kind == "convex")
        got = _phase_one_feasible(system, dens)
        assert got == _oracle_phase_one(A, b)
        assert (got is not None) == member


@pytest.mark.parametrize("member", [True, False])
def test_matches_oracle_on_kron_h4_points(member):
    """The 64 Kronecker products of the rows of H4 in dimension 64."""
    H4 = hadamard_like(4)
    U = ConeGenerators.from_rows(H4)
    kron_rows = [[a * b for a in u for b in v] for u in H4.entries for v in H4.entries]
    w = [Fraction(1 + k % 6, 1 + k % 4) for k in range(len(kron_rows))]
    if not member:
        w[21] = Fraction(-1, 2)
    x = Vector.rational(
        [sum(wk * row[j] for wk, row in zip(w, kron_rows)) for j in range(64)]
    )
    G = kron_generator_set(U, U)
    A, b, p = _oracle_membership_system(G, x, Tolerance(), False)
    got = _assert_matches_oracle(A, b)
    assert _phase_one_feasible(*_membership_system(G, x, Tolerance(), False)[:2]) == got
    assert (got is not None) == member


def _assert_system_matches_oracle(G, x, tol):
    """The library's integer rows are the oracle's rows in lowest terms."""
    sum_to_one = G.hull_kind == "convex"
    system, dens, p = _membership_system(G, x, tol, sum_to_one)
    A, b, q = _oracle_membership_system(G, x, tol, sum_to_one)
    assert (system, dens, p) == (*_integer_system(A, b), q)
    assert all(type(v) is int for row in system for v in row)
    assert all(type(d) is int and d > 0 for d in dens)


@pytest.mark.parametrize("eps", [1e-9, 0, 1e-3])
@pytest.mark.parametrize("n", range(3, 13))
def test_complex_dft_system_matches_oracle(n, eps):
    rng = random.Random(500 + n)
    F = dft(n)
    for kind in ("conical", "convex"):
        G = ConeGenerators.from_rows(F, kind)
        for member in (True, False):
            _assert_system_matches_oracle(G, _dft_point(rng, F, kind, member), Tolerance(eps))


@pytest.mark.parametrize("kind", ["conical", "convex"])
def test_kron_h4_system_with_mixed_denominators_matches_oracle(kind):
    """Generators u_i (x) v_j in dimension 64 whose factors are rows of H4
    with columns, and then rows, scaled by different fractions.  A row of
    the system then has a denominator of its own, so the common one must
    be divided out of most rows."""
    H4 = hadamard_like(4)
    columns = Vector.rational([Fraction(1, 1 + j) for j in range(8)])
    U = ConeGenerators.from_rows(H4.scale_columns(columns), kind)
    V = ConeGenerators(
        tuple(row.scale(Fraction(2 + k % 3, 3)) for k, row in enumerate(H4.rows())), kind
    )
    G = kron_generator_set(U, V)
    rng = random.Random(64)
    for _ in range(3):
        x = Vector.rational(
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5, 11, 13])) for _ in range(64)]
        )
        _assert_system_matches_oracle(G, x, Tolerance())
    _assert_system_matches_oracle(G, G.vectors[5], Tolerance())
    system, dens, _ = _membership_system(G, G.vectors[5], Tolerance(), kind == "convex")
    assert len(set(dens)) > 2


# --- the integer tableau -----------------------------------------------------
#
# The simplex pivots one integer array: a row per constraint and the
# objective, int64 until an update could overflow it and Python ints from
# then on.  A structural column whose only nonzero is +/- its row's
# denominator (rationally +/- e_i) is not stored: it is +/- the artificial
# column of row i in every tableau.  These tests watch each rank-1 update
# through `integer_product` and compare every coefficient vector with the
# Fraction oracle.


@pytest.fixture
def updates(monkeypatch):
    """(dtype, stored width) of the result of each rank-1 update."""
    seen = []
    real = cones.integer_product

    def record(*operands, bound):
        out = real(*operands, bound=bound)
        seen.append((out.dtype, out.shape[1]))
        return out

    monkeypatch.setattr(cones, "integer_product", record)
    return seen


def _unit_columns(A):
    """{column: (row, sign)} of the columns of A that are +/- e_row."""
    units = {}
    for j in range(len(A[0])):
        support = [i for i, row in enumerate(A) if row[j] != 0]
        if len(support) == 1 and abs(A[support[0]][j]) == 1:
            units[j] = (support[0], A[support[0]][j])
    return units


def _assert_width(updates, A, folded):
    """Every update ran on the stored columns: the structural ones that are
    not folded, one artificial per row, the rhs and the denominator."""
    m, n = len(A), len(A[0])
    assert {width for _, width in updates} <= {n - folded + m + 2}


def test_tableau_moves_to_python_ints_mid_solve(updates):
    """Entries near 2**24 start in int64; a few pivots later an update's
    bound reaches 2**62 and the whole tableau stays on Python ints."""
    rng = random.Random(62)
    crossed = 0
    for _ in range(40):
        m, n = rng.randint(3, 6), rng.randint(4, 8)
        A = [[Fraction(rng.randint(-2**24, 2**24)) for _ in range(n)] for _ in range(m)]
        lam0 = [Fraction(rng.choice([0, 1, 3, 2**10])) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, lam0)) for row in A]
        updates.clear()
        _assert_matches_oracle(A, b)
        dtypes = [dtype for dtype, _ in updates]
        if object in dtypes:
            first = dtypes.index(object)
            assert all(dtype == object for dtype in dtypes[first:])
            crossed += first > 0 and dtypes[0] == np.int64
    assert crossed >= 30


def _unit_column_lp(rng):
    """A small system with +/-e_i columns appended, some rows holding two,
    and right-hand sides of either sign, so rows are flipped."""
    m, n = rng.randint(2, 5), rng.randint(1, 5)
    entries = [0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]
    A = [[Fraction(rng.choice(entries)) for _ in range(n)] for _ in range(m)]
    for _ in range(rng.randint(1, 2 * m)):
        home, sign = rng.randrange(m), rng.choice([1, -1])
        for i, row in enumerate(A):
            row.append(Fraction(sign if i == home else 0))
    b = [Fraction(rng.choice([1, -1, 2, -3, 0, Fraction(3, 2), Fraction(-1, 2)])) for _ in range(m)]
    return A, b


def test_folded_unit_columns_match_oracle(updates):
    """Unit columns of both signs on flipped rows are folded into their
    row's artificial column, and some enter the basis (a positive
    coefficient is basic at the end)."""
    rng = random.Random(14)
    signs_on_flipped = set()
    entered = 0
    for _ in range(600):
        A, b = _unit_column_lp(rng)
        units = _unit_columns(A)
        updates.clear()
        got = _assert_matches_oracle(A, b)
        _assert_width(updates, A, len(units))
        for j, (i, sign) in units.items():
            if b[i] < 0:
                signs_on_flipped.add(-sign)
            entered += got is not None and got[j] > 0
    assert signs_on_flipped == {1, -1}
    assert entered >= 100


def test_single_nonzero_of_twice_the_denominator_stays_stored(updates):
    """A column whose only nonzero is 2 (twice its row's denominator in the
    integer system) is not a unit column: folding it would halve its
    coefficient."""
    rng = random.Random(2)
    basic = 0
    for _ in range(600):
        A, b = _unit_column_lp(rng)
        home = rng.randrange(len(A))
        for i, row in enumerate(A):
            row.append(Fraction(rng.choice([2, -2]) if i == home else 0))
        units = _unit_columns(A)
        assert len(A[0]) - 1 not in units
        updates.clear()
        got = _assert_matches_oracle(A, b)
        _assert_width(updates, A, len(units))
        basic += got is not None and got[-1] > 0
    assert basic >= 30



# --- the entering rule -------------------------------------------------------
#
# Every entering variable is the smallest structural index with a positive
# reduced cost; no artificial variable ever enters.  Once no structural
# column improves, the artificial sum is at its minimum over the structural
# variables and the basic artificials, which is 0 exactly when the system
# is feasible, so the answer is already decided.


def _structural_phase_one(A, b, scan_artificials=False):
    """(lam or None, pivots) of a Fraction phase one under Bland's rule that
    lets an entering variable be any structural column, and also any
    artificial one when ``scan_artificials`` is set."""
    m, n = len(A), len(A[0])
    flip = [-1 if v < 0 else 1 for v in b]
    tab = [
        [s * v for v in row] + [Fraction(int(i == j)) for j in range(m)] + [s * v]
        for i, (row, v, s) in enumerate(zip(A, b, flip))
    ]
    basis = list(range(n, n + m))
    obj = [sum(col) for col in zip(*tab)]
    obj[n:n + m] = [Fraction(0)] * m
    scan = n + m if scan_artificials else n
    pivots = 0
    while True:
        entering = next((j for j in range(scan) if obj[j] > 0), None)
        if entering is None:
            break
        rows = [i for i in range(m) if tab[i][entering] > 0]
        leaving = min(rows, key=lambda i: (tab[i][-1] / tab[i][entering], basis[i]))
        pivot = [v / tab[leaving][entering] for v in tab[leaving]]
        tab = [
            pivot if i == leaving else [v - row[entering] * p for v, p in zip(row, pivot)]
            for i, row in enumerate(tab)
        ]
        obj = [v - obj[entering] * p for v, p in zip(obj, pivot)]
        basis[leaving] = entering
        pivots += 1
    if obj[-1] != 0:
        return None, pivots
    lam = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            lam[var] = tab[i][-1]
    return lam, pivots


def test_no_artificial_enters_on_an_infeasible_dft_point(updates):
    """The point 3/2 F_1 + 5/2 F_2 - 5 F_3 + ... of the rows of F12 is
    outside their conical hull.  A phase one that also scans artificial
    columns lets some re-enter after the structural columns stop
    improving; the library pivots exactly as often as the structural-only
    rule and still answers None."""
    F = dft(12)
    w = [Fraction(v) for v in "3/2 5/2 -5 5 4 3 4/3 1 5/3 2 3 4/3".split()]
    x = Vector.complex_(
        [sum(float(wk) * row[j] for wk, row in zip(w, F.entries)) for j in range(12)]
    )
    G = ConeGenerators.from_rows(F)
    A, b, _ = _oracle_membership_system(G, x, Tolerance(), False)
    lam, pivots = _structural_phase_one(A, b)
    every_lam, every_pivots = _structural_phase_one(A, b, scan_artificials=True)
    assert lam is every_lam is None
    assert every_pivots > pivots
    updates.clear()
    assert _phase_one_feasible(*_membership_system(G, x, Tolerance(), False)[:2]) is None
    assert len(updates) == pivots


def test_pivots_as_often_as_the_structural_rule(updates):
    """On seeded systems of both kinds, with and without unit columns, the
    library returns the structural-only rule's lam after as many pivots."""
    rng = random.Random(23)
    for make in (_random_lp, _unit_column_lp):
        for _ in range(300):
            A, b = make(rng)
            lam, pivots = _structural_phase_one(A, b)
            updates.clear()
            assert _phase_one_feasible(*_integer_system(A, b)) == lam
            assert len(updates) == pivots
