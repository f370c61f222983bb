"""Named matrix families: Sylvester-type Hadamard matrices, DFT matrices,
cyclic companion matrices, circulants, and the refutation instance factors.
"""
from __future__ import annotations

import cmath
from typing import Optional, Tuple

from .linalg import (
    COMPLEX,
    Matrix,
    Tolerance,
    Vector,
    basis_vector,
    index_matrix,
    kron,
    matrices_close,
)
from .perron import similarity_image


class VerificationFailedError(RuntimeError):
    """Raised when a construction fails its built-in consistency check."""


def hadamard_like(n: int) -> Matrix:
    """Sylvester Hadamard matrix at recursion depth n; order 2**(n-1).

    Depth 2 is [[1, 1], [1, -1]]; each further depth Kronecker-multiplies
    by the depth-2 matrix on the left.  Rational mode.
    """
    if n < 2:
        raise ValueError(f"recursion depth must be at least 2, got {n}")
    h2 = Matrix.rational([[1, 1], [1, -1]])
    result = h2
    for _ in range(n - 2):
        result = kron(h2, result)
    return result


def dft(n: int) -> Matrix:
    """DFT matrix of order n: (i, j) entry omega**((i-1)(j-1)) with
    omega = exp(2*pi*1j/n).  Complex mode; exponents are reduced mod n
    before evaluation to limit phase error, so the matrix holds the n
    roots omega**k, each evaluated once.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    roots = Vector([cmath.exp(2j * cmath.pi * k / n) for k in range(n)], COMPLEX)
    return index_matrix(roots, lambda i, j: i * j)


def cycle_companion(n: int) -> Matrix:
    """Companion matrix of t**n - 1: the n-cycle 0/1 permutation matrix.

    Entry (i, i+1) is 1 for i < n and entry (n, 1) is 1; for n = 1 this is
    the 1-by-1 identity.  It is the circulant of e_2 (e_1 at order 1).
    Rational mode.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return circulant(basis_vector(n, min(n, 2)))


def circulant(c: Vector) -> Matrix:
    """Circulant with first row c: entry (i, j) is c[(j - i) mod n], which is
    sum_k c_k C**(k-1) for the cycle companion matrix C."""
    return index_matrix(c, lambda i, j: j - i)


def extremal_row_image(
    n: int, k: int, tol: Tolerance = Tolerance(), sinv: Optional[Matrix] = None
) -> Matrix:
    """Similarity image of row k of the order-n DFT matrix.

    The image must equal the (k-1)-th power of the cycle companion matrix,
    the circulant of e_k; a mismatch raises VerificationFailedError.  Pass
    the inverse of ``dft(n)`` as ``sinv`` to skip elimination.
    """
    if not 1 <= k <= n:
        raise ValueError(f"row index {k} out of range for order {n}")
    F = dft(n)
    image = similarity_image(F, F.row(k - 1), sinv)
    if not matrices_close(image, circulant(basis_vector(n, k, COMPLEX)), tol):
        raise VerificationFailedError(
            f"row {k} image of the order-{n} DFT matrix does not match the "
            f"companion power"
        )
    return image


def counterexample_factors() -> Tuple[Matrix, Matrix]:
    """Kronecker factors of the refutation instance: the order-2 Hadamard
    matrix and [[1, 2], [1, 1]], both rational."""
    return Matrix.rational([[1, 1], [1, -1]]), Matrix.rational([[1, 2], [1, 1]])
