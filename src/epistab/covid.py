"""Five-compartment epidemic model (exposed, infected, critical, hospitalised,
dead) with mass-action cross terms.

The printed ODE system is ground truth; Jacobians, endemic ratios and
equilibria are re-derived from it here, from rate groups that are
properties of :class:`CovidParams`: a = beta1 - beta10, the I, C and H
outflows alpha = beta2+beta6+beta8+mu, beta_c = beta3+beta5+mu and gamma_c =
beta4+beta9+mu, and the disease-free ``e_dfe`` = B/mu.  ``e_dfe``, ``endemic``
and ``r0_reduced`` raise through the one mu > 0 check, ``Params.need_mu``.
``ngm_full``, ``det_jp0``, ``splitting_matrices`` and ``chi_cubic`` also
evaluate closed forms as printed in the source publication, because the
stability report and the tests read them; the other transcribed forms live
in :mod:`epistab.paper_check`, which diffs all of them against oracles.  The
R0-threshold verdict uses the criteria's dead band, ``stability.MARGIN``.

State vectors are (E, I, C, H, D).  ``rhs`` broadcasts over leading axes so
batches of states integrate in one call.

The record each model command prints is built here: ``r0_report`` for
``r0`` (``r0_reduced`` for each point of ``r0 --sweep``),
``equilibria_report`` for ``equilibria`` and ``stability_report`` for
``stability``; ``simulate`` integrates ``rhs``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .compound import add_compound
from .linalg import determinant, eigenvalues, inverse, spectral_radius
from .model import InfeasibleError
from .stability import INCONCLUSIVE, MARGIN, STABLE, UNSTABLE, criterion_verdicts, dominance
from .stability import li_wang_exact  # noqa: F401  re-exported; perfbench's tests pin it


class DegenerateSplittingError(ArithmeticError):
    """The diagonal splitting of the disease-free Jacobian is not invertible."""


@dataclass(frozen=True)
class CovidParams(model.Params):
    """Nonnegative epidemiological rates (per day)."""

    MISSING_NOTE = " (beta10 has no default and must be given explicitly)"

    B: float
    mu: float
    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float
    beta6: float
    beta7: float
    beta8: float
    beta9: float
    beta10: float

    @property
    def a(self):
        return self.beta1 - self.beta10

    @property
    def alpha(self):
        return self.beta2 + self.beta6 + self.beta8 + self.mu

    @property
    def beta_c(self):
        return self.beta3 + self.beta5 + self.mu

    @property
    def gamma_c(self):
        return self.beta4 + self.beta9 + self.mu

    @property
    def e_dfe(self):
        """E at the disease-free point, B/mu; it exists only for mu > 0."""
        self.need_mu("disease-free equilibrium")
        return self.B / self.mu


def table_params(beta10):
    """The published rate table.  beta10 carries no table value, so it is required."""
    return CovidParams(B=0.80, mu=0.01, beta1=0.55, beta2=0.40, beta3=0.60,
                       beta4=0.80, beta5=0.34, beta6=0.30, beta7=0.35,
                       beta8=0.30, beta9=0.35, beta10=float(beta10))


def _linear_ratios(p):
    """(alpha_hat, beta_hat), the endemic ratios I*/H* and C*/H*: they solve
    the linear pair of the C and H equilibrium equations, so they stay
    defined at beta1 == beta10."""
    den = p.beta2 * p.beta3 + p.beta8 * p.beta_c
    if den <= 0:
        raise InfeasibleError("endemic ratios undefined: beta2*beta3 + beta8*(beta3+beta5+mu) vanishes")
    return ((p.beta_c * p.gamma_c - p.beta3 * p.beta4) / den,
            (p.beta8 * p.beta4 + p.beta2 * p.gamma_c) / den)


def endemic_ratios(p):
    """(alpha_hat, beta_hat, gamma_hat), the endemic ratios I*/H*, C*/H* and
    D*/H* re-derived from the ODEs: gamma_hat follows from the D equation
    at E* = alpha / a."""
    alpha_hat, beta_hat = _linear_ratios(p)
    if p.a == 0:
        raise InfeasibleError("endemic ratios undefined: beta1 == beta10")
    e_star = p.alpha / p.a
    if p.beta7 * e_star == 0:
        raise InfeasibleError("endemic ratios undefined: beta7 * E* vanishes")
    return alpha_hat, beta_hat, (p.beta6 * alpha_hat + p.beta5 * beta_hat) / (p.beta7 * e_star)


def state(e, i, c, h, d):
    """Validated compartment state (see :func:`epistab.model.population`)."""
    return model.population([e, i, c, h, d])


def rhs(p, x):
    """Right-hand side of the five ODEs, exactly as printed.

    ``x`` is one state (a list of 5 numbers or a (5,) array) or a batch
    (..., 5); the float64 result matches.  States may be negative (the
    linearisation probes leave the positive cone).  Flows shared by two
    equations are computed once in printed operand and term order: the bits
    are the printed ones, for one state (Python floats) and a batch alike.
    """
    (e, i, c, h, d), pack = model.components(x, 5)
    e_to_i, i_to_e = p.beta1 * e * i, p.beta10 * e * i
    i_to_c, i_to_d, i_to_h = p.beta2 * i, p.beta6 * i, p.beta8 * i
    c_to_h, c_to_d, h_to_c, h_to_e = p.beta3 * c, p.beta5 * c, p.beta4 * h, p.beta9 * h
    return pack([p.B - e_to_i + p.beta7 * e * d + h_to_e + i_to_e - p.mu * e,
                 e_to_i - i_to_c - i_to_d - i_to_h - i_to_e - p.mu * i,
                 i_to_c - c_to_d - c_to_h + h_to_c - p.mu * c,
                 c_to_h - h_to_c + i_to_h - h_to_e - p.mu * h,
                 c_to_d + i_to_d - p.beta7 * d * e])


def sum_rate(p, x):
    """Sum of the five right-hand sides.

    Algebraically this equals B - mu*(E + I + C + H): the D equation carries
    no -mu*D term, so the total population is *not* damped through D.  (The
    often-quoted identity with mu*(E+I+C+H+D) overstates the damping by
    mu*D; both values are exposed by the transcription-check report.)

    A single state gives a float, a batch (..., 5) an array of shape (...).
    """
    total = np.sum(rhs(p, x), axis=-1)
    return float(total) if total.ndim == 0 else total


def jacobian_fd(p, x):
    """Central-difference Jacobian of :func:`rhs`; the ground-truth oracle."""
    return model.jacobian_fd(rhs, p, x)


def jacobian_closed(p, x):
    """Analytically re-derived Jacobian of :func:`rhs` at an arbitrary state."""
    e, i, c, h, d = np.asarray(x, dtype=float)
    return np.array([
        [(p.beta10 - p.beta1) * i + p.beta7 * d - p.mu,
         (p.beta10 - p.beta1) * e, 0.0, p.beta9, p.beta7 * e],
        [p.a * i, p.a * e - p.alpha, 0.0, 0.0, 0.0],
        [0.0, p.beta2, -p.beta_c, p.beta4, 0.0],
        [0.0, p.beta8, p.beta3, -p.gamma_c, 0.0],
        [-p.beta7 * d, p.beta6, p.beta5, 0.0, -p.beta7 * e],
    ])


def dfe(p):
    """Disease-free equilibrium (B/mu, 0, 0, 0, 0)."""
    return model.equilibrium(rhs, p, np.array([p.e_dfe, 0.0, 0.0, 0.0, 0.0]), "dfe")


def endemic(p):
    """Endemic equilibrium assembled from the re-derived ratios.

    E* = alpha / (beta1 - beta10); I*, C*, D* are alpha_hat, beta_hat,
    gamma_hat times H*; H* = (B - mu E*) / ([(beta1-beta10) alpha_hat
    - beta7 gamma_hat] E* - beta9).  The sub-1e-10 residual check is the
    acceptance gate for this derivation.  Feasibility means all components
    strictly positive; beta1 < beta10 yields an infeasible point.
    """
    p.need_mu("endemic equilibrium")
    alpha_hat, beta_hat, gamma_hat = endemic_ratios(p)
    e_star = p.alpha / p.a
    den = (p.a * alpha_hat - p.beta7 * gamma_hat) * e_star - p.beta9
    if den == 0:
        raise InfeasibleError("endemic equilibrium undefined: H* denominator vanishes")
    h_star = (p.B - p.mu * e_star) / den
    state = np.array([e_star, alpha_hat * h_star, beta_hat * h_star, h_star, gamma_hat * h_star])
    return model.equilibrium(rhs, p, state, "endemic")


def r0_reduced(p):
    """Basic reproduction number from the reduced 2x2 infected subsystem.

    R0 = beta1 * B / (alpha * mu + beta10 * B), the spectral radius of the
    reduced next-generation matrix at the disease-free point.
    """
    p.need_mu("R0")
    den = p.alpha * p.mu + p.beta10 * p.B
    if den <= 0:
        raise InfeasibleError("reduced R0 undefined: alpha*mu + beta10*B vanishes")
    return p.beta1 * p.B / den


def r0_report(p):
    """The ``r0`` record: the reduced R0 and the full-NGM R0 at the disease-free point."""
    parts = ngm_full(p, dfe(p).state)
    return {"reduced": r0_reduced(p), "full_dfe": parts.r0}


def equilibria_report(p):
    """The ``equilibria`` record, refused for beta1 < beta10, where the
    disease-free point is the unique equilibrium."""
    if p.beta1 < p.beta10:
        raise InfeasibleError(
            "beta1 < beta10, so the disease-free point is the unique equilibrium")
    return {"dfe": dfe(p).to_dict(), "endemic": endemic(p).to_dict()}


def ngm_matrices(p, x):
    """The full 5x5 new-infection matrix F and transition matrix V at state x."""
    e, i, c, h, d = np.asarray(x, dtype=float)
    f = np.zeros((5, 5))
    f[0, 0] = p.beta7 * d + p.beta10 * i
    f[0, 1] = p.beta10 * e
    f[0, 4] = p.beta7 * e
    f[1, 0] = p.beta1 * i
    f[1, 1] = p.beta1 * e
    v = np.array([
        [p.beta1 * i + p.mu, p.beta1 * e, 0.0, -p.beta9, 0.0],
        [p.beta10 * i, p.alpha + p.beta10 * e, 0.0, 0.0, 0.0],
        [0.0, -p.beta2, p.beta_c, -p.beta4, 0.0],
        [0.0, -p.beta8, -p.beta3, p.gamma_c, 0.0],
        [p.beta7 * d, -p.beta6, -p.beta5, 0.0, p.beta7 * e],
    ])
    return f, v


@dataclass(frozen=True)
class NgmParts:
    """Next-generation-matrix factors and the transcribed reduction quantities.

    ``detV_closed``, the four minors and a_c..d_c evaluate the published
    closed forms (most plausible reading where the print is ambiguous);
    ``r0`` is always the numeric spectral radius of F V^-1, which is the
    defining property.  Gaps between the two routes are surfaced by the
    transcription-check report, not here.
    """

    F: np.ndarray
    V: np.ndarray
    detV_closed: float
    m11: float
    m12: float
    m21: float
    m22: float
    a_c: float
    b_c: float
    c_c: float
    d_c: float
    delta: float
    r0: float


def ngm_full(p, x):
    """Assemble the published F and V and the reduction quantities at state x.

    ``detV_closed`` is the published closed form for det V, which is correct.
    Of the published minors of V, m11 matches the true minor; m12 and m21 are
    printed as one shared expression (m21's value divided by beta7*E), and
    m22 is printed without the I factor on beta1.  The transcription checks
    report every gap.
    """
    f, v = ngm_matrices(p, x)
    det_v = determinant(v)
    if abs(det_v) < 1e-300:
        raise linalg.SingularMatrixError("transition matrix V is singular", abs(det_v))
    e, i, c, h, d = np.asarray(x, dtype=float)
    alpha_l = p.beta10 * e + p.beta8 + p.beta6 + p.beta2 + p.mu
    core = p.beta_c * p.gamma_c - p.beta3 * p.beta4
    cross = p.beta2 * p.beta3 + p.beta_c * p.beta8
    detv_closed = p.beta7 * e * ((p.beta1 * i + p.mu) * alpha_l * core
                                 - p.beta10 * i * p.beta1 * e * core
                                 + p.beta10 * i * p.beta9 * cross)
    m11 = alpha_l * p.beta7 * e * core
    m12 = m21 = p.beta1 * e * core - p.beta9 * cross
    m22 = p.beta7 * e * (p.beta1 + p.mu) * core
    a_c = ((p.beta7 * d + p.beta10 * i) * m11 + p.beta10 * e * m12) / det_v
    b_c = -((p.beta7 * d + p.beta10 * i) * m21 + p.beta10 * e * m22) / det_v
    c_c = -(p.beta1 * i * m11 + p.beta1 * e * m12) / det_v
    d_c = (p.beta1 * i * m21 + p.beta1 * e * m22) / det_v
    delta = (a_c + d_c) ** 2 - 4.0 * (a_c * d_c - b_c * c_c)
    r0 = spectral_radius(f @ inverse(v))
    return NgmParts(F=f, V=v, detV_closed=detv_closed,
                    m11=m11, m12=m12, m21=m21, m22=m22,
                    a_c=a_c, b_c=b_c, c_c=c_c, d_c=d_c, delta=delta, r0=r0)


@dataclass(frozen=True)
class DfeDeterminant(model.Record):
    closed: float
    numeric: float
    closed_negative: bool
    numeric_negative: bool
    condition_ii: bool
    beta1_gt_beta10: bool


def _beta_printed(p):
    """beta2 + beta5 + mu: the grouping the publication uses for beta at the
    disease-free point, where the C outflow is beta_c = beta3 + beta5 + mu."""
    return p.beta2 + p.beta5 + p.mu


def det_jp0(p):
    """Disease-free Jacobian determinant: published closed form vs. oracle.

    The closed form is -mu*beta7*beta*E*(2*beta8*a*E + alpha*gamma
    + beta8*beta9 - beta8*alpha) with beta = beta2 + beta5 + mu (the grouping
    the publication uses in this section).  ``numeric`` is the determinant of
    the re-derived Jacobian at (B/mu, 0, 0, 0, 0), ``closed_negative`` and
    ``numeric_negative`` their signs; ``condition_ii`` is the published sign
    predicate.  The disease-free point's residual gate is the caller's.
    """
    e_star = p.e_dfe
    bracket = (2.0 * p.beta8 * p.a * e_star + p.alpha * p.gamma_c + p.beta8 * p.beta9
               - p.beta8 * p.alpha)
    closed = -p.mu * p.beta7 * _beta_printed(p) * e_star * bracket
    numeric = determinant(jacobian_closed(p, (e_star, 0.0, 0.0, 0.0, 0.0)))
    return DfeDeterminant(closed=closed, numeric=numeric, closed_negative=closed < 0.0,
                          numeric_negative=numeric < 0.0, condition_ii=bool(bracket > 0),
                          beta1_gt_beta10=bool(p.beta1 > p.beta10))


def splitting_matrices(p):
    """The M - E splitting of the transcribed disease-free Jacobian.

    M collects the nonnegative couplings, E the diagonal-ish damping; M - E
    reproduces the *published* disease-free Jacobian (including its dropped
    row-5 entries), which is what the splitting cubic is about.
    """
    e_star = p.e_dfe
    aa = p.a * e_star
    m = np.array([
        [0.0, 0.0, 0.0, p.beta9, p.beta7 * e_star],
        [0.0, aa, 0.0, 0.0, 0.0],
        [0.0, p.beta2, 0.0, p.beta4, 0.0],
        [0.0, p.beta8, p.beta3, p.beta8, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    e = np.array([
        [p.mu, aa, 0.0, 0.0, 0.0],
        [p.mu, p.alpha, 0.0, 0.0, 0.0],
        [0.0, 0.0, _beta_printed(p), 0.0, 0.0],
        [0.0, 0.0, 0.0, p.gamma_c, 0.0],
        [0.0, 0.0, 0.0, 0.0, p.beta7 * e_star],
    ])
    return m, e


@dataclass(frozen=True)
class ChiCubic:
    a1: float
    a2: float
    a3: float


def chi_cubic(p):
    """Published cubic factor coefficients of det(M E^-1 - lambda I).

    With u = -1/(alpha - a), v = 1/(alpha - a) and a = (beta1 - beta10) B/mu:
    a1, a2, a3 exactly as printed.  The numeric characteristic polynomial of
    M E^-1 (two zero eigenvalues plus a cubic) is the oracle the
    transcription checks compare against.
    """
    aa = p.a * p.e_dfe
    gap = p.alpha - aa
    if abs(gap) <= 1e-12 * (1.0 + abs(p.alpha) + abs(aa)):
        raise DegenerateSplittingError("splitting degenerate: alpha equals (beta1-beta10)*B/mu")
    u = -1.0 / gap
    v = 1.0 / gap
    av = aa * v
    gamma = p.gamma_c
    loop = p.beta3 * p.beta4 / (_beta_printed(p) * gamma)
    a1 = (p.beta9 * p.beta8 / gamma) * u * (av + 1.0) - av - p.beta8 / gamma
    a2 = (p.beta8 / gamma) * av - loop
    a3 = loop * av
    return ChiCubic(a1=a1, a2=a2, a3=a3)


def splitting_char_poly(p):
    """Monic characteristic polynomial coefficients of M E^-1 (numeric oracle)."""
    m, e = splitting_matrices(p)
    me = m @ inverse(e)
    return np.real(np.poly(eigenvalues(me)))


def _threshold_verdict(r0):
    """R0 against 1 inside the one dead band, ``stability.MARGIN``."""
    if r0 < 1.0 - MARGIN:
        return STABLE
    if r0 > 1.0 + MARGIN:
        return UNSTABLE
    return INCONCLUSIVE


def stability_report(p):
    """Everything the threshold and compound criteria say about both equilibria.

    Covers: reduced and full R0 with the R0-threshold verdict; the
    unique-disease-free-equilibrium conditions; the disease-free determinant
    sign test; the column-dominance conditions (a)-(d) for the second
    additive compound at the disease-free point, evaluated literally as
    printed even where unsatisfiable; and exact plus sufficient criterion
    verdicts at both equilibria.  Where the endemic ratios or the endemic
    point do not exist, the sections that need them hold
    ``{"error": message}`` and the others stay.
    """
    point = dfe(p)
    try:
        alpha_hat, beta_hat = _linear_ratios(p)
        unique = {"beta1_lt_beta10": bool(p.beta1 < p.beta10),
                  "alpha_alphahat_lt_beta5_betahat_plus_beta9": bool(
                      p.alpha * alpha_hat < p.beta5 * beta_hat + p.beta9)}
    except InfeasibleError as exc:
        unique = {"error": str(exc)}
    r0 = r0_reduced(p)
    parts = ngm_full(p, point.state)
    dj = det_jp0(p)

    e_star = p.e_dfe
    cond_a = p.beta3 < _beta_printed(p)
    cond_b = 2.0 * p.a * e_star < p.beta6 + p.mu
    cond_c = p.beta9 < p.beta7 * e_star
    cond_d = p.beta8 + p.beta7 * e_star < p.mu
    j_dfe = jacobian_closed(p, point.state)
    j2 = add_compound(j_dfe, 2)
    report = {
        "params": p.to_dict(),
        "r0": {
            "reduced": r0,
            "full_dfe": parts.r0,
            "threshold_verdict": _threshold_verdict(r0),
        },
        "unique_dfe_conditions": unique,
        "dfe_determinant": dj.to_dict(),
        "dfe_compound_dominance": {
            "cond_a_beta3_lt_beta2_beta5_mu": bool(cond_a),
            "cond_b_2aE_lt_beta6_mu": bool(cond_b),
            "cond_c_beta9_lt_beta7E": bool(cond_c),
            "cond_d_beta8_beta7E_lt_mu": bool(cond_d),
            "hypotheses_hold": bool(cond_a and cond_b and cond_c and cond_d),
            "compound_column_dominant": dominance(j2, "cols"),
            "compound_diag_negative": bool(np.diag(j2).max() < 0),
        },
        "equilibria": {"dfe": point.to_dict()},
        "verdicts": {"dfe": criterion_verdicts(j_dfe)},
    }
    try:
        end = endemic(p)
        report["equilibria"]["endemic"] = end.to_dict()
        report["verdicts"]["endemic"] = criterion_verdicts(jacobian_closed(p, end.state))
    except (InfeasibleError, ArithmeticError) as exc:
        report["equilibria"]["endemic"] = {"error": str(exc)}
    return report
