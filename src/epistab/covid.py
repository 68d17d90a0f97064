"""Five-compartment epidemic model (exposed, infected, critical, hospitalised,
dead) with mass-action cross terms.

The printed ODE system is ground truth; Jacobians, endemic ratios and
equilibria are re-derived from it here, from rate groups that are
properties of :class:`CovidParams`: a = beta1 - beta10, the I, C and H
outflows alpha = beta2+beta6+beta8+mu, beta_c = beta3+beta5+mu and gamma_c =
beta4+beta9+mu, and the disease-free ``e_dfe`` = B/mu.  ``e_dfe``, ``endemic``
and ``r0_reduced`` raise through the one mu > 0 check, ``Params.need_mu``;
``e_dfe`` also names a B/mu that overflows to inf.  Only ``det_jp0`` (with
its grouping ``_beta_printed``) evaluates a closed form as printed in the
source publication, because the stability report prints it; every other printed form lives in :mod:`epistab.paper_check`,
which diffs them against oracles.  The full-NGM R0, ``r0_full``, is the
spectral radius of F V^-1 from ``ngm_matrices``, through ``ngm_radius``,
which takes a stack of probes in one LU.  The R0-threshold verdict
uses the criteria's dead band, ``stability.MARGIN``.

State vectors are (E, I, C, H, D).  ``flows`` gives the five derivatives
as a list; ``rhs`` packs them into a float64 array through
``model.packed`` and broadcasts over leading axes, so batches of states
integrate in one call: a batch's flows are taken on the component arrays
of ``x.T`` and packed component-major by one ``np.array``.

The record each model command prints is built here: ``r0_report`` for
``r0`` (``r0_reduced`` on a batch record for all points of ``r0 --sweep``),
``equilibria_report`` for ``equilibria`` and ``stability_report`` for
``stability``; ``simulate`` integrates ``flows``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, model
from .compound import add_compound
from .linalg import determinant, inverse, spectral_radius
from .model import InfeasibleError
from .stability import INCONCLUSIVE, MARGIN, STABLE, UNSTABLE, criterion_verdicts, dominance
from .stability import li_wang_exact  # noqa: F401  the benchmark harness's tests pin this binding


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
        """E at the disease-free point, B/mu; it exists only for mu > 0, and
        a quotient that overflows (a subnormal mu) raises ArithmeticError."""
        self.need_mu("disease-free equilibrium")
        e = self.B / self.mu
        if e == np.inf:
            raise ArithmeticError("disease-free E* = B/mu overflows to inf")
        return e


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


def flows(p, x):
    """Right-hand side of the five ODEs, exactly as printed, as a list.

    ``x`` unpacks into the five components: Python floats for one state,
    arrays for a batch.  States may be negative (the linearisation probes
    leave the positive cone).  Flows shared by two equations are computed
    once in printed operand and term order, so the bits are the printed ones.
    """
    e, i, c, h, d = x
    e_to_i, i_to_e = p.beta1 * e * i, p.beta10 * e * i
    i_to_c, i_to_d, i_to_h = p.beta2 * i, p.beta6 * i, p.beta8 * i
    c_to_h, c_to_d, h_to_c, h_to_e = p.beta3 * c, p.beta5 * c, p.beta4 * h, p.beta9 * h
    return [p.B - e_to_i + p.beta7 * e * d + h_to_e + i_to_e - p.mu * e,
            e_to_i - i_to_c - i_to_d - i_to_h - i_to_e - p.mu * i,
            i_to_c - c_to_d - c_to_h + h_to_c - p.mu * c,
            c_to_h - h_to_c + i_to_h - h_to_e - p.mu * h,
            c_to_d + i_to_d - p.beta7 * d * e]


def rhs(p, x):
    """:func:`flows` as a float64 array: one state (5,) or a batch (..., 5)
    in, the same shape out, with the same bits."""
    return model.packed(flows, p, x)


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
    reduced next-generation matrix at the disease-free point.  A batch
    record (``Params.batch``) gives an array with each point's bits, and
    fails when any point fails; a float record gives a float.
    """
    p.need_mu("R0")
    den = p.alpha * p.mu + p.beta10 * p.B
    if (bad := den <= 0) is not False and (bad is True or bad.any()):
        raise InfeasibleError("reduced R0 undefined: alpha*mu + beta10*B vanishes")
    return p.beta1 * p.B / den


def r0_report(p):
    """The ``r0`` record: the reduced R0 and the full-NGM R0 at the disease-free point."""
    r0 = r0_full(p, dfe(p).state)  # before r0_reduced: which step fails first is pinned
    return {"reduced": r0_reduced(p), "full_dfe": r0}


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


def ngm_radius(f, v, det_v):
    """rho(F V^-1) for each (F, V) of the stacks ``f`` and ``v``, as a list,
    from one LU and one eigenvalue call for the whole stack.

    V is refused as singular where |det V| = |``det_v``| < 1e-300 or where
    the LU's pivot floor fails; the first probe that fails raises, as if the
    probes were taken one by one, each with its det guard before its LU.
    """
    tiny = [abs(d) < 1e-300 for d in det_v]
    k = tiny.index(True) if True in tiny else len(tiny)
    inv = inverse(v[:k])  # the probes before the first det guard failure
    if k < len(tiny):
        raise linalg.SingularMatrixError("transition matrix V is singular", abs(det_v[k]))
    return spectral_radius(f @ inv)


def r0_full(p, x):
    """The full-NGM R0 at state x: rho(F V^-1) of :func:`ngm_matrices`."""
    f, v = ngm_matrices(p, x)
    return ngm_radius(f[None], v[None], [determinant(v)])[0]


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
    verdicts at both equilibria, which read the one det J and J^[2] built
    per equilibrium (at the disease-free point, those of the determinant
    and dominance sections).  Where the endemic ratios or the endemic
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
    r0_dfe = r0_full(p, point.state)
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
            "full_dfe": r0_dfe,
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
        "verdicts": {"dfe": criterion_verdicts(j_dfe, dj.numeric, j2)},
    }
    try:
        end = endemic(p)
        report["equilibria"]["endemic"] = end.to_dict()
        j_end = jacobian_closed(p, end.state)
        report["verdicts"]["endemic"] = criterion_verdicts(j_end, determinant(j_end),
                                                           add_compound(j_end, 2))
    except (InfeasibleError, ArithmeticError) as exc:
        report["equilibria"]["endemic"] = {"error": str(exc)}
    return report
