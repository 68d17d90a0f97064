"""Dense real linear algebra for small matrices (n <= 16).

Determinants and inverses go through an in-house row-pivoted LU so that the
singularity threshold is explicit and scale-aware (a pivot below
``1e-13 * max initial row inf-norm`` is treated as singular).  Full complex
spectra are delegated to LAPACK's Hessenberg + shifted-QR path via
``numpy.linalg.eigvals``; non-convergence is re-raised, never swallowed.

All functions are pure: inputs are never mutated and results are freshly
allocated, so values can be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

MAX_EIG_DIM = 16

PIVOT_RTOL = 1e-13


class DimensionError(ValueError):
    """Input matrix has the wrong shape for the requested operation."""


class SingularMatrixError(ArithmeticError):
    """Pivoted elimination hit a pivot below the singularity threshold."""

    def __init__(self, message, pivot):
        super().__init__(f"{message} (pivot magnitude {pivot:.3e})")
        self.pivot = float(pivot)


class ConvergenceError(ArithmeticError):
    """The eigenvalue iteration did not converge within its budget."""


def as_matrix(a):
    """Validate and return ``a`` as a fresh 2-D float array with finite entries."""
    m = np.array(a, dtype=float)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_square(a):
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _pivot_floor(m):
    # Scale-aware singularity threshold from the *initial* row norms.
    scale = abs(m).sum(axis=1).max() if m.size else 0.0
    return PIVOT_RTOL * max(scale, 1e-300)


def _lu(a):
    """Row-pivoted elimination.  Returns (lu, perm, sign, min_pivot).

    ``lu`` holds U on and above the diagonal and the multipliers below it;
    ``perm`` is the row permutation applied; ``sign`` the permutation sign.
    ``min_pivot`` is the smallest pivot magnitude encountered (0.0 if a whole
    pivot column vanished, in which case elimination of that column is skipped
    and the determinant is exactly zero).
    """
    lu = as_square(a).copy()
    n = lu.shape[0]
    perm = np.arange(n)
    sign = 1.0
    min_pivot = np.inf
    for k in range(n):
        p = k + int(np.argmax(abs(lu[k:, k])))
        piv = abs(lu[p, k])
        min_pivot = min(min_pivot, piv)
        if piv == 0.0:
            continue
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    if n == 0:
        min_pivot = 0.0
    return lu, perm, sign, min_pivot


def determinant(a):
    """det(A) by pivoted elimination; exact sign, no singularity exception."""
    m = as_square(a)
    if m.shape[0] == 0:
        return 1.0
    lu, _, sign, min_pivot = _lu(m)
    if min_pivot == 0.0:
        return 0.0
    return float(sign * np.prod(np.diag(lu)))


def _lu_solve(m, b):
    """Solve M X = B through the pivoted LU, honouring the pivot threshold.

    B is a vector or a matrix of right-hand-side columns.
    """
    lu, perm, _, min_pivot = _lu(m)
    if min_pivot <= _pivot_floor(m):
        raise SingularMatrixError("matrix is singular to working precision", min_pivot)
    x = b[perm]
    n = m.shape[0]
    for k in range(n):        # forward: L y = P b
        x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):   # backward: U x = y
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def solve(a, b):
    """Solve A x = b through the pivoted LU, honouring the pivot threshold."""
    return _lu_solve(as_square(a), np.array(b, dtype=float))


def inverse(a):
    """A^-1 with A * inverse(A) = I to inf-norm 1e-9 for well-scaled inputs."""
    m = as_square(a)
    return _lu_solve(m, np.eye(m.shape[0]))


def eigenvalues(a):
    """All n eigenvalues (with multiplicity) as a complex array."""
    m = as_square(a)
    n = m.shape[0]
    if n > MAX_EIG_DIM:
        raise DimensionError(f"eigenvalue solver limited to n <= {MAX_EIG_DIM}, got n={n}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_abscissa(a):
    """s(A): the maximum real part over the spectrum."""
    return float(eigenvalues(a).real.max())


def spectral_radius(a):
    """rho(A): the maximum eigenvalue modulus."""
    return float(abs(eigenvalues(a)).max())


def det4_block(a):
    """Determinant of a 4x4 matrix by the six-term 2x2-block (Laplace) expansion.

    Expands along the first two columns: pairs of rows contribute
    det(rows|cols 1,2) * det(complementary rows|cols 3,4) with alternating
    signs.  Agrees with :func:`determinant` to 1e-10 relative.
    """
    m = as_square(a)
    if m.shape != (4, 4):
        raise DimensionError(f"det4_block requires a 4x4 matrix, got {m.shape}")

    def d(i, j, k, l):
        return m[i, k] * m[j, l] - m[i, l] * m[j, k]

    return float(
        d(0, 1, 0, 1) * d(2, 3, 2, 3)
        - d(0, 2, 0, 1) * d(1, 3, 2, 3)
        + d(0, 3, 0, 1) * d(1, 2, 2, 3)
        + d(1, 2, 0, 1) * d(0, 3, 2, 3)
        - d(1, 3, 0, 1) * d(0, 2, 2, 3)
        + d(2, 3, 0, 1) * d(0, 1, 2, 3)
    )
