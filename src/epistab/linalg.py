"""Dense real linear algebra for small matrices (n <= 16).

Determinants go through LAPACK (``numpy.linalg.det``).  The in-house
row-pivoted LU serves :func:`solve` and :func:`inverse` and their singularity
threshold, which is explicit and scale-aware (a pivot below
``1e-13 * max initial row inf-norm`` is treated as singular).  Full complex
spectra are delegated to LAPACK's Hessenberg + shifted-QR path via
``numpy.linalg.eigvals``; non-convergence is re-raised, never swallowed.

:func:`inverse`, :func:`eigenvalues` and the spectral abscissa and radius
also take a stack (..., n, n): one elimination, or one LAPACK call, serves
every matrix, and each gets the bits it would get alone.  The LU carries the
right-hand sides as augmented columns, so there is no permutation vector and
no separate forward sweep; of a stack, the first matrix whose pivot floor
fails raises.  Several blocks of right-hand sides can share one elimination,
each back-substituted on its own, so each gets the bits it would get alone.

All functions are pure: inputs are never mutated and results are freshly
allocated, so values can be shared freely across threads.
"""

from __future__ import annotations

from itertools import accumulate
from math import prod

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


def as_squares(a):
    """Validate and return ``a`` as a fresh float array of square matrices,
    shape (..., n, n), with finite entries: one matrix or a stack of them."""
    m = np.array(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def _pivot_floor(m):
    # Scale-aware singularity threshold from the *initial* row norms, one per matrix.
    scale = np.maximum.reduce(np.add.reduce(abs(m), axis=-1), axis=-1, initial=0.0)
    return PIVOT_RTOL * np.maximum(scale, 1e-300)


def determinant(a):
    """det(A) via LAPACK (``numpy.linalg.det``); 1.0 for 0x0, no singular error.

    The in-house pivoted LU serves :func:`solve`/:func:`inverse` and their
    singularity threshold, not determinants.
    """
    return float(np.linalg.det(as_square(a)))


def _lu_solve(m, *bs):
    """Solve M X = B for each block B of right-hand-side columns by one
    row-pivoted elimination, honouring the pivot threshold; one X per block.

    M is one matrix or a stack (..., n, n); each B is (n, c) for every member
    or (..., n, c) one per member.  The blocks ride along as augmented
    columns, so their rows swap and eliminate with those of M; the row
    operations are elementwise, so a column's bits do not depend on what
    else rides along.  Each block is then back-substituted on its own
    contiguous copy, so each member and block get the pivots, elementwise
    operations and back-substitution products they would get alone.  The
    first member, in stack order, whose smallest pivot magnitude is at or
    below its scale-aware floor raises :class:`SingularMatrixError` with
    that pivot.
    """
    n, count = m.shape[-1], prod(m.shape[:-2])
    ends = list(accumulate([n, *(b.shape[-1] for b in bs)]))  # block j is columns ends[j]:ends[j+1]
    width = ends[-1]
    aug = np.empty(m.shape[:-1] + (width,))
    aug[..., :n] = m
    for b, lo, hi in zip(bs, ends, ends[1:]):
        aug[..., lo:hi] = b
    aug = aug.reshape(count, n, width)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-pivot member raises below
        for k in range(n):
            j = abs(aug[:, k:, k]).argmax(axis=1)
            if any(j.tolist()):  # bring each member's pivot row up to row k
                rows = aug.reshape(count * n, width)  # row k of member i is rows[i * n + k]
                src = np.arange(k, count * n, n) + j
                top = rows[src]
                rows[src] = aug[:, k]
                aug[:, k] = top
            if k + 1 < n:  # the multipliers are used once, then left behind
                low = aug[:, k + 1:, k, None] / aug[:, k, None, k, None]
                aug[:, k + 1:, k + 1:] -= low * aug[:, k, None, k + 1:]
    # the pivots sit on the diagonal; fmin skips a NaN pivot, as a running min does
    min_pivot = np.fmin.reduce(abs(aug.diagonal(axis1=1, axis2=2)), axis=-1, initial=np.inf)
    bad = (min_pivot <= _pivot_floor(m).ravel()).tolist()
    if True in bad:
        raise SingularMatrixError("matrix is singular to working precision",
                                  min_pivot[bad.index(True)])
    xs = []
    for lo, hi in zip(ends, ends[1:]):
        x = aug[..., lo:hi].copy()  # contiguous, so each product below takes the same BLAS path
        for k in range(n - 1, -1, -1):   # backward: U x = y
            xk = x[:, k, None]
            xk -= aug[:, k, None, k + 1:n] @ x[:, k + 1:]
            xk /= aug[:, k, None, k, None]
        xs.append(x.reshape(m.shape[:-1] + (hi - lo,)))
    return xs


def solve(a, b):
    """Solve A x = b through the pivoted LU, honouring the pivot threshold."""
    b = np.array(b, dtype=float)
    x, = _lu_solve(as_square(a), b[:, None] if b.ndim == 1 else b)
    return x.reshape(b.shape)


def inverse(a):
    """A^-1 with A * inverse(A) = I to inf-norm 1e-9 for well-scaled inputs;
    one inverse per matrix of a stack (..., n, n), from one elimination."""
    m = as_squares(a)
    inv, = _lu_solve(m, np.eye(m.shape[-1]))
    return inv


def eigenvalues(a):
    """All n eigenvalues (with multiplicity) as a complex array, (..., n) for
    a stack (..., n, n): one LAPACK call, each matrix factored as it would be alone."""
    m = as_squares(a)
    n = m.shape[-1]
    if n > MAX_EIG_DIM:
        raise DimensionError(f"eigenvalue solver limited to n <= {MAX_EIG_DIM}, got n={n}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration failed: {exc}") from exc


def spectral_abscissa(a):
    """s(A): the maximum real part over the spectrum; a list for a stack."""
    return eigenvalues(a).real.max(axis=-1).tolist()


def spectral_radius(a):
    """rho(A): the maximum eigenvalue modulus; a list for a stack."""
    return abs(eigenvalues(a)).max(axis=-1).tolist()

