"""Matrix stability criteria.

Hurwitz stability means s(A) < 0.  The compound-matrix criterion used
throughout is the equivalence

    s(A) < 0  <=>  s(A^[2]) < 0  and  (-1)^n det(A) > 0,

together with its sufficient variant where s(A^[2]) < 0 is certified by a
fixed Lozinskii measure mu(A^[2]) < 0.  All strict-inequality verdicts use a
1e-9 dead band: quantities inside the band yield ``INCONCLUSIVE`` rather than
a guess.  Each Li-Wang verdict on a matrix reads one (-1)^n det A and one
A^[2]; ``criterion_verdicts`` takes det A and A^[2] from its caller, which
builds them once per matrix for its own report and all four verdicts.

Each public verdict validates A once and then calls unchecked kernels on
it (``np.linalg.det``, ``compound._add``, ``compound._mult``).  A derived
matrix that can overflow is validated once, where it is first read: A^[2]
by the spectral abscissa or by ``lozinskii.measure``, C_2(A) by the
spectral radius and I - A^2 by ``determinant``.

Also here: diagonal-dominance predicates, determinant bracketing for
diagonally dominant matrices, the one normalisation of a cubic to monic
form (``monic_cubic``), a Cardano cubic solver with discriminant
classification, the Routh-Hurwitz cubic test, a Schur (discrete-time)
criterion through the second multiplicative compound, and M-matrix /
Z-pattern classification flags.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .compound import _add, _mult
from .linalg import (
    SingularMatrixError,
    _lu_solve,
    as_square,
    determinant,
    spectral_abscissa,
    spectral_radius,
)
from .lozinskii import MeasureKind, _measure, measure
from .model import Record

MARGIN = 1e-9

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Verdict(Record):
    """Stability outcome plus the evidence that produced it."""

    outcome: str
    criterion: str
    det_sign: float | None = None
    measure_kind: str | None = None
    measure_value: float | None = None
    abscissa: float | None = None
    discriminant: float | None = None
    cubic_class: str | None = None


def _band(*margins):
    """The dead-band rule on quantities that are positive when stable.

    STABLE if every margin is > MARGIN, UNSTABLE if any is < -MARGIN,
    INCONCLUSIVE otherwise.  Callers pass -s for an abscissa s, so each test
    is the same IEEE comparison as ``s < -MARGIN`` / ``s > MARGIN``.
    """
    if all(m > MARGIN for m in margins):
        return STABLE
    if any(m < -MARGIN for m in margins):
        return UNSTABLE
    return INCONCLUSIVE


def hurwitz_exact(a):
    """Verdict from the spectral abscissa itself."""
    s = spectral_abscissa(a)
    return Verdict(_band(-s), "hurwitz", abscissa=s)


def _det_sign(n, det, exact):
    """(-1)^n det A for an n x n A with determinant ``det``; ``exact`` applies
    the exact criterion's 2 <= n <= 6 guard."""
    if exact and not 2 <= n <= 6:
        raise ValueError(f"exact compound criterion supports 2 <= n <= 6, got n={n}")
    return (-1.0) ** n * det


def _li_wang_inputs(m, exact=False):
    """What a Li-Wang verdict on a validated square M reads: ((-1)^n det M, M^[2])."""
    return _det_sign(len(m), float(np.linalg.det(m)), exact), _add(m, 2)


def _exact(sgn, a2):
    """The exact verdict from (-1)^n det A and A^[2]."""
    s2 = spectral_abscissa(a2)
    return Verdict(_band(sgn, -s2), "li-wang-exact", det_sign=sgn, abscissa=s2)


def _sufficient(sgn, mu2, kind):
    """The sufficient verdict from (-1)^n det A and mu2 = mu_kind(A^[2])."""
    outcome = _band(sgn, -mu2)
    if outcome == UNSTABLE and _band(sgn) != UNSTABLE:
        outcome = INCONCLUSIVE  # mu2 > 0 alone proves nothing
    return Verdict(outcome, "li-wang-sufficient", det_sign=sgn,
                   measure_kind=kind.value, measure_value=mu2)


def li_wang_exact(a):
    """Exact compound-matrix criterion: s(A^[2]) < 0 and (-1)^n det A > 0.

    The reported abscissa is that of the second additive compound.
    """
    return _exact(*_li_wang_inputs(as_square(a), exact=True))


def li_wang_sufficient(a, kind):
    """Sufficient variant with a fixed Lozinskii measure on A^[2].

    Stable when (-1)^n det A > 0 and mu(A^[2]) < 0; unstable when the
    determinant condition fails outright (it is necessary); inconclusive
    otherwise -- the chosen measure may simply be too weak.
    """
    m, kind = as_square(a), MeasureKind.coerce(kind)  # a bad kind fails before n < 2 does
    sgn, a2 = _li_wang_inputs(m)
    return _sufficient(sgn, measure(a2, kind), kind)  # measure validates A^[2]


def criterion_verdicts(a, det, a2):
    """The Hurwitz, exact compound and every sufficient-measure verdict on A, as dicts.

    ``det`` and ``a2`` are det A and A^[2], built once by the caller, which
    reads them too; they serve the exact and all three sufficient verdicts.
    The exact verdict comes first and validates A^[2]; the measures then
    read it unchecked.
    """
    hurwitz = hurwitz_exact(a)  # first: an n = 0 or n > 16 matrix fails here, before the guard
    sgn = _det_sign(len(a), det, exact=True)
    return {
        "hurwitz": hurwitz.to_dict(),
        "li_wang_exact": _exact(sgn, a2).to_dict(),
        "li_wang_sufficient": {k.value: _sufficient(sgn, _measure(a2, k), k).to_dict()
                               for k in MeasureKind},
    }


def dominance(a, axis="rows"):
    """Strict diagonal dominance over every row (or every column)."""
    m = as_square(a)
    if axis not in ("rows", "cols"):
        raise ValueError(f"axis must be 'rows' or 'cols', got {axis!r}")
    off = abs(m) - np.diag(np.diag(abs(m)))
    sums = off.sum(axis=1) if axis == "rows" else off.sum(axis=0)
    return bool((abs(np.diag(m)) > sums).all())


def _upper_split(a):
    """(m, r): A as a square array, checked for a_ii >= sum_{j != i} |a_ij|
    with a_ii >= 0, and its upper-row sums r_i = sum_{j>i} |a_ij|."""
    m = as_square(a)
    off = abs(m) - np.diag(np.diag(abs(m)))
    if (np.diag(m) < 0).any() or (np.diag(m) < off.sum(axis=1)).any():
        raise ValueError(
            "determinant bounds need a_ii >= sum_{j != i} |a_ij| with a_ii >= 0")
    # one sum per row slice: np.triu(abs(m), 1).sum(axis=1) rounds differently
    return m, np.array([abs(m[i, i + 1:]).sum() for i in range(m.shape[0])])


def price_bounds(a):
    """prod(a_ii - r_i) <= det A <= prod(a_ii + r_i) with r_i the upper-row sums."""
    m, r = _upper_split(a)
    d = np.diag(m)
    return float(np.prod(d - r)), float(np.prod(d + r))


def det_bounds(a):
    """Determinant bracketing from the diagonal split a_ii = l_i + r_i with
    r_i = sum_{j>i} |a_ij| and l_i = a_ii - r_i; row dominance (checked) gives
    l_i >= sum_{j<i} |a_ij|.  Returns (lower, upper) with

        lower = sum_k  prod_{i<=k} l_i * prod_{i>k} r_i
        upper = sum_k  prod_{i<k} (l_i + 2 r_i) * l_k * prod_{i>k} r_i

    (the k = 0 upper term is prod_i r_i).
    """
    m, r = _upper_split(a)
    n = m.shape[0]
    l = np.diag(m) - r
    lower = 0.0
    for k in range(n + 1):
        lower += np.prod(l[:k]) * np.prod(r[k:])
    upper = float(np.prod(r))
    for k in range(1, n + 1):
        upper += np.prod(l[: k - 1] + 2.0 * r[: k - 1]) * l[k - 1] * np.prod(r[k:])
    return float(lower), float(upper)


THREE_REAL = "three_real"
REPEATED_ROOT = "repeated_root"
ONE_REAL_TWO_COMPLEX = "one_real_two_complex"


@dataclass(frozen=True)
class CubicRoots(Record):
    roots: tuple
    discriminant: float
    klass: str


def cardano(a, b, c, d):
    """Roots of a x^3 + b x^2 + c x + d by Cardano's formulas.

    Uses principal complex cube roots with S and T paired so that
    S*T = -Q, which stays on compatible branches in the casus irreducibilis
    (three real roots, where the radicand Q^3 + R^2 is negative).  The
    conjugate-pair roots carry the factor (i sqrt(3)/2)(S - T): the half is
    required for the roots to satisfy the cubic.
    """
    a1, a2, a3 = monic_cubic(a, b, c, d)
    with _overflow(a1, a2, a3):
        q = (3.0 * a2 - a1 * a1) / 9.0
        r = (9.0 * a1 * a2 - 27.0 * a3 - 2.0 * a1 ** 3) / 54.0
        sq = cmath.sqrt(r * r + q ** 3)
        # take the cube root on the branch without cancellation; the partner
        # follows from S*T = -q (their cubes multiply to -q^3, so both branches
        # stay consistent)
        plus, minus = r + sq, r - sq
        u = plus if abs(plus) >= abs(minus) else minus
        if u == 0:
            s = t = 0j  # q = r = 0: triple root
        else:
            s = u ** (1.0 / 3.0)
            t = -q / s
    shift = a1 / 3.0
    half_im = 1j * cmath.sqrt(3) / 2.0 * (s - t)
    x1 = s + t - shift
    x2 = -(s + t) / 2.0 - shift + half_im
    x3 = -(s + t) / 2.0 - shift - half_im
    return CubicRoots((complex(x1), complex(x2), complex(x3)), *_cubic_class(a1, a2, a3))


def monic_cubic(a, b, c, d):
    """(a1, a2, a3) = (b/a, c/a, d/a), the monic form of a x^3 + b x^2 + c x + d.

    A zero a is not a cubic (ValueError).  A quotient that is not finite puts
    the roots out of range: ArithmeticError names it and the two coefficients
    it divides, as given.
    """
    if a == 0:
        raise ValueError("leading coefficient is zero: not a cubic")
    for k, (name, coef) in enumerate(zip("bcd", (b, c, d)), 1):
        if not isfinite(coef / a):
            raise ArithmeticError(f"overflow at normalised cubic coefficient a{k} = {name}/a "
                                  f"with {name} = {coef:.12g}, a = {a:.12g}")
    return b / a, c / a, d / a


@contextmanager
def _overflow(a1, a2, a3):
    """A float power's overflow in x^3 + a1 x^2 + a2 x + a3, named by its largest a_i."""
    try:
        yield
    except OverflowError:
        name, value = max(zip(("a1", "a2", "a3"), (a1, a2, a3)), key=lambda kv: abs(kv[1]))
        raise ArithmeticError(f"overflow at normalised cubic coefficient {name} = {value:.12g}") from None


def cubic_discriminant(a1, a2, a3):
    """Discriminant of the monic cubic x^3 + a1 x^2 + a2 x + a3."""
    return (a1 * a1 * a2 * a2 + 18.0 * a1 * a2 * a3 - 27.0 * a3 * a3
            - 4.0 * a2 ** 3 - 4.0 * a1 ** 3 * a3)


def _cubic_class(a1, a2, a3):
    """(discriminant, root-structure class) of x^3 + a1 x^2 + a2 x + a3,
    without solving it: a repeated root when |disc| <= 1e-10 (1 + max|a_i|)^4."""
    with _overflow(a1, a2, a3):
        disc = cubic_discriminant(a1, a2, a3)
        band = 1e-10 * (1.0 + max(abs(a1), abs(a2), abs(a3))) ** 4
    if abs(disc) <= band:
        return float(disc), REPEATED_ROOT
    return float(disc), THREE_REAL if disc > 0 else ONE_REAL_TWO_COMPLEX


def cubic_stability(a1, a2, a3):
    """Routh-Hurwitz test for the monic cubic x^3 + a1 x^2 + a2 x + a3.

    Stable iff a1 > 0, a3 > 0 and a1 a2 - a3 > 0 (1e-9 dead band).
    Evidence carries the discriminant and its root-structure class.
    """
    disc, klass = _cubic_class(a1, a2, a3)
    return Verdict(_band(a1, a3, a1 * a2 - a3), "routh-hurwitz-cubic", det_sign=a3,
                   discriminant=disc, cubic_class=klass)


def schur_sufficient(a):
    """Discrete-time test: rho(C_2(A)) < 1 and det(I - A^2) > 0.

    Agrees with rho(A) < 1 away from the unit-modulus margin.
    """
    m = as_square(a)
    n = m.shape[0]
    if n < 2:
        raise ValueError(f"second compound needs n >= 2, got n={n}")
    rho2 = spectral_radius(_mult(m, 2))  # validates C_2(A)
    d = determinant(np.eye(n) - m @ m)  # validates I - A^2
    return bool(rho2 < 1.0 and d > 0.0)


@dataclass(frozen=True)
class MMatrixFlags:
    """Independently evaluated M-matrix conditions for a square matrix."""

    z_pattern: bool
    leading_minors_positive: bool
    inverse_nonnegative: bool
    dominant_after_scaling: bool
    is_nonsingular_m: bool
    note: str = ""


def m_matrix(a):
    """Evaluate the M-matrix condition flags, each on its own.

    ``dominant_after_scaling`` looks for a positive diagonal scaling D with
    A D strictly row dominant with positive diagonal, taking d_j = x_j from
    the solve A x = e.  ``inverse_nonnegative`` tolerates entries down to
    -1e-10.  A^-1 and x come from one elimination of [A | I | e], each with
    the bits of ``inverse(A)`` and ``solve(A, e)``.  A singular matrix
    reports False flags with a note instead of raising.
    """
    m = as_square(a)
    n = m.shape[0]
    z_pattern = bool((m - np.diag(np.diag(m)) <= 0).all())
    # stops at the first minor <= 0; a NaN minor (overflow) does not stop it
    minors_pos = not any(np.linalg.det(m[:k, :k]) <= 0 for k in range(1, n + 1))
    flags = dict(z_pattern=z_pattern, leading_minors_positive=minors_pos,
                 is_nonsingular_m=z_pattern and minors_pos)
    try:
        inv, x = _lu_solve(m, np.eye(n), np.ones((n, 1)))
    except SingularMatrixError:
        return MMatrixFlags(**flags, inverse_nonnegative=False, dominant_after_scaling=False,
                            note="singular: inverse-based conditions reported false")
    x = x[:, 0]
    dominant_scaled = False
    if (x > 0).all():
        scaled = m * x  # columns scaled by x_j
        dominant_scaled = bool((np.diag(scaled) > 0).all()) and dominance(scaled, "rows")
    return MMatrixFlags(**flags, inverse_nonnegative=bool((inv >= -1e-10).all()),
                        dominant_after_scaling=dominant_scaled)
