"""Dense real linear algebra for small matrices (n <= 16).

Determinants go through LAPACK (``numpy.linalg.det``).  The in-house
row-pivoted LU serves :func:`solve` and :func:`inverse` and their singularity
threshold, which is explicit and scale-aware (a pivot below
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


def determinant(a):
    """det(A) via LAPACK (``numpy.linalg.det``); 1.0 for 0x0, no singular error.

    The in-house pivoted LU serves :func:`solve`/:func:`inverse` and their
    singularity threshold, not determinants.
    """
    return float(np.linalg.det(as_square(a)))


def _lu_solve(m, b):
    """Solve M X = B by row-pivoted elimination, honouring the pivot threshold.

    B is a vector or a matrix of right-hand-side columns.  Raises
    :class:`SingularMatrixError` with the smallest pivot magnitude met when it
    is at or below the scale-aware floor.
    """
    lu = m.copy()
    n = lu.shape[0]
    perm = list(range(n))
    min_pivot = np.inf
    for k in range(n):
        col = abs(lu[k:, k])
        j = int(col.argmax())
        piv = col[j]
        min_pivot = min(min_pivot, piv)
        if piv == 0.0:
            break  # a vanished pivot column: singular whatever follows
        if j:
            lu[[k, k + j]] = lu[[k + j, k]]
            perm[k], perm[k + j] = perm[k + j], perm[k]
        if k + 1 < n:
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= lu[k + 1:, k, None] * lu[k, k + 1:]
    if min_pivot <= _pivot_floor(m):
        raise SingularMatrixError("matrix is singular to working precision", min_pivot)
    x = b[perm]
    low = lu if x.ndim == 1 else lu[..., None]  # column k of L times row k of x
    for k in range(n - 1):        # forward: L y = P b
        x[k + 1:] -= low[k + 1:, k] * x[k]
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

