"""Three-compartment example system: susceptibles and a two-stage infection.

    S'  = Lambda - (beta1 I1 + beta2 I2) S - mu S
    I1' = (beta1 I1 + beta2 I2) S - (mu + gamma) I1
    I2' = gamma I1 - (mu + d) I2

R0 comes from the 2x2 next-generation factors; the endemic point follows
from I2 = delta I1 with delta = gamma/(mu+d) and S* = (mu+gamma)/(beta1 +
beta2 delta); ``delta``, ``beta_eff`` = beta1 + beta2 delta and the
disease-free ``s_dfe`` = Lambda/mu are properties of :class:`SeirParams`,
and ``s_dfe``, ``r0_seir`` and ``seir_ngm_matrices`` raise through the one
mu > 0 check, ``Params.need_mu``; ``s_dfe`` also names a Lambda/mu that
overflows to inf (``Params.over_mu``), and ``r0_seir`` a denominator that
underflows to 0 or overflows to inf.  ``flows3`` gives the three
derivatives as a list, and ``rhs3`` packs them through ``model.packed`` as
``covid.rhs`` does, a batch component-major.  The stability report builds one det J and one J^[2] at
the endemic point, for its own sections and the criterion verdicts, and
applies the diagonal similarity P = diag(I2*, I1*, S*) to J^[2] as a
scaling, p_i J^[2]_ij / p_j, with no inverse.  ``seir r0`` inverts the
lower-triangular V in closed form, so no pivot floor refuses it.

The record each ``seir`` command prints is built here: ``seir_r0_report``
for ``seir r0`` (``r0_seir`` on a batch record for all points of ``--sweep``),
``seir_equilibria`` for ``seir equilibria`` and ``seir_stability`` for
``seir stability``; ``seir simulate`` integrates ``flows3``.  The last is a
list of named sections that ``model.report`` runs in order, none of which
survives a failure: a J, J^[2] or P J^[2] P^-1 that is not finite is a
numeric failure naming it (``model.finite``), and so is a condition c1
whose gamma/delta^2 cannot be evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .compound import add_compound
from .linalg import determinant, spectral_radius
from .lozinskii import MeasureKind, measure
from .model import InfeasibleError
from .stability import criterion_verdicts, dominance


@dataclass(frozen=True)
class SeirParams(model.Params):
    Lambda: float
    beta1: float
    beta2: float
    mu: float
    gamma: float
    d: float

    @property
    def delta(self):
        return self.gamma / (self.mu + self.d)

    @property
    def beta_eff(self):
        return self.beta1 + self.beta2 * self.delta

    @property
    def s_dfe(self):
        """S at the disease-free point, Lambda/mu, through ``Params.over_mu``."""
        return self.over_mu(self.Lambda, "S* = Lambda/mu")


def figure_params(mu=0.1):
    """The parameter set used for the R0-vs-mu curves."""
    return SeirParams(Lambda=0.7, beta1=0.3, beta2=0.8, mu=float(mu), gamma=0.1, d=0.04)


def flows3(p, x):
    """Right-hand side as a list: Python floats for one state, arrays for a
    batch, with the same expressions and bits."""
    s, i1, i2 = x
    force = (p.beta1 * i1 + p.beta2 * i2) * s
    return [p.Lambda - force - p.mu * s,
            force - (p.mu + p.gamma) * i1,
            p.gamma * i1 - (p.mu + p.d) * i2]


def rhs3(p, x):
    """:func:`flows3` as a float64 array: one state (3,) or a batch (..., 3)
    in, the same shape out, with the same bits."""
    return model.packed(flows3, p, x)


def jacobian3(p, x):
    """Jacobian of :func:`rhs3` (the printed form, which checks out against FD)."""
    s, i1, i2 = np.asarray(x, dtype=float)
    force = p.beta1 * i1 + p.beta2 * i2
    return np.array([
        [-force - p.mu, -p.beta1 * s, -p.beta2 * s],
        [force, p.beta1 * s - p.mu - p.gamma, p.beta2 * s],
        [0.0, p.gamma, -p.mu - p.d],
    ])


def r0_seir(p):
    """R0 = Lambda*(beta1*(mu+d) + beta2*gamma) / (mu*(mu+d)*(mu+gamma)).

    A denominator that underflows to 0 (a subnormal mu passes the mu > 0
    check) or overflows to inf raises ArithmeticError naming it.  A batch
    record (``Params.batch``) gives an array with each point's bits, and
    fails when any point fails; a float record gives a float.
    """
    p.need_mu("R0")
    den = p.mu * (p.mu + p.d) * (p.mu + p.gamma)
    if (bad := den == 0) is not False and (bad is True or bad.any()):
        raise ArithmeticError("R0 denominator mu*(mu+d)*(mu+gamma) underflows to 0")
    if (bad := den == np.inf) is not False and (bad is True or bad.any()):
        raise ArithmeticError("R0 denominator mu*(mu+d)*(mu+gamma) overflows to inf")
    return p.Lambda * (p.beta1 * (p.mu + p.d) + p.beta2 * p.gamma) / den


def seir_ngm_matrices(p):
    """The printed next-generation factors at S = Lambda/mu; R0 is the spectral
    radius of -F V^-1.  F keeps the printed beta*Lambda/mu, not beta*s_dfe."""
    p.need_mu("disease-free equilibrium")
    f = np.array([[p.beta1 * p.Lambda / p.mu, p.beta2 * p.Lambda / p.mu], [0.0, 0.0]])
    v = np.array([[-p.mu - p.gamma, 0.0], [p.gamma, -p.mu - p.d]])
    return f, v


def seir_r0_report(p):
    """The ``seir r0`` record: R0 in closed form and the spectral radius of -F V^-1.

    V = [[a, 0], [gamma, b]] is lower triangular, so V^-1 is taken in closed
    form, [[1/a, -0], [-(gamma/a)/b, 1/b]], which are the bits the pivoted LU
    gives wherever its pivot floor accepts V; a, b = -(mu+gamma), -(mu+d) are
    nonzero for mu > 0.
    """
    r0 = r0_seir(p)
    fm, vm = seir_ngm_matrices(p)
    (a, _), (gamma, b) = vm.tolist()
    ngm = -fm @ np.array([[1.0 / a, -0.0], [-(gamma / a) / b, 1.0 / b]])
    return {"r0": r0, "ngm_spectral_radius": spectral_radius(
        model.finite(ngm, "next-generation matrix -F V^-1"))}


def dfe3(p):
    """Disease-free equilibrium (Lambda/mu, 0, 0)."""
    return model.equilibrium(rhs3, p, np.array([p.s_dfe, 0.0, 0.0]), "dfe")


def endemic3(p):
    """Endemic point: I2 = delta I1, S* = (mu+gamma)/(beta1+beta2*delta).

    I1* solves the S-equation: I1* = (Lambda - mu S*)/(mu + gamma).  (The
    transcribed divisor mu + d fails the residual gate; the checks report
    the gap.)  Feasible iff Lambda*(beta1+beta2*delta) - mu*(mu+gamma) > 0.
    """
    den = p.beta_eff
    if den <= 0:
        raise InfeasibleError("endemic point undefined: beta1 + beta2*delta vanishes")
    s_star = (p.mu + p.gamma) / den
    i1_star = (p.Lambda - p.mu * s_star) / (p.mu + p.gamma)
    i2_star = p.delta * i1_star
    return model.equilibrium(rhs3, p, np.array([s_star, i1_star, i2_star]), "endemic")


def seir_equilibria(p):
    """The ``seir equilibria`` record: the disease-free and endemic points."""
    return {"dfe": dfe3(p).to_dict(), "endemic": endemic3(p).to_dict()}


def endemic_conditions(p):
    """The three positivity/dominance hypotheses for endemic stability.

    c1: beta2 < gamma/delta^2;
    c2: (mu+gamma)(mu+d)(beta1+beta2*delta) / (Lambda*(beta1+beta2*delta)
        - mu*(mu+gamma)) + beta1*(mu+gamma)/(beta1+beta2*delta)
        < d + gamma + 2 mu;
    c3: beta2*delta*Lambda + mu*(gamma+mu) < beta1*Lambda.
    """
    dl = p.delta
    den = p.beta_eff
    feas_num = p.Lambda * den - p.mu * (p.mu + p.gamma)
    try:
        c1 = bool(dl > 0 and p.beta2 < p.gamma / dl ** 2)
    except ArithmeticError:  # delta^2 underflows to 0 or overflows
        how = "underflows to 0" if dl < 1 else "overflows"
        raise ArithmeticError(f"condition c1's gamma/delta^2 cannot be evaluated: "
                              f"delta^2 {how} at delta = {dl:.12g}") from None
    if feas_num > 0:
        lhs = ((p.mu + p.gamma) * (p.mu + p.d) * den / feas_num
               + p.beta1 * (p.mu + p.gamma) / den)
        c2 = bool(lhs < p.d + p.gamma + 2.0 * p.mu)
    else:
        c2 = False
    c3 = bool(p.beta2 * dl * p.Lambda + p.mu * (p.gamma + p.mu) < p.beta1 * p.Lambda)
    return {"c1_beta2_lt_gamma_over_delta_sq": c1,
            "c2_compound_row_sums_negative": c2,
            "c3_det_negative": c3}


def _transformed_compound(j2, end):
    """What P J^[2] P^-1 shows, with P = diag(I2*, I1*, S*) at the endemic
    point ``end`` applied as a scaling, p_i J^[2]_ij / p_j, entry by entry.
    A zero entry of P (I2* = delta*I1* is 0 at gamma = 0) raises
    ArithmeticError, as P has no inverse."""
    s = end.state[::-1]  # the diagonal of P
    for name, entry in zip(("I2*", "I1*", "S*"), s):
        if entry == 0:
            raise ArithmeticError(f"P = diag(I2*, I1*, S*) is singular: {name} = 0")
    m = model.finite((s[:, None] * j2) * (1.0 / s), "P J^[2] P^-1")
    return {"row_dominant": dominance(m, "rows"), "diag_negative": bool(np.diag(m).max() < 0),
            "measure_inf": measure(m, MeasureKind.INF)}


def seir_stability(p):
    """Stability report at the endemic point via the similarity-transformed compound.

    Builds J at the endemic point (cross-checked against finite differences
    by the test-suite), its second additive compound and det J; then R0,
    the disease-free point, the three endemic conditions, what P J^[2] P^-1
    shows (row dominance, diagonal sign, mu_inf), and the exact criteria
    from the same det J and J^[2].  The endemic point comes first, before
    R0 and the disease-free point; no section survives a failure.
    """
    return model.report([
        ("params", lambda r: p),
        ("equilibria.endemic", lambda r: endemic3(p)),
        ("_j", lambda r: model.finite(jacobian3(p, r["equilibria.endemic"].state),
                                      "endemic Jacobian J")),
        ("_j2", lambda r: model.finite(add_compound(r["_j"], 2), "endemic compound J^[2]")),
        ("det_endemic_jacobian", lambda r: determinant(r["_j"])),
        ("r0", lambda r: r0_seir(p)),
        ("equilibria.dfe", lambda r: dfe3(p)),
        ("conditions", lambda r: endemic_conditions(p)),
        ("transformed_compound", lambda r: _transformed_compound(r["_j2"], r["equilibria.endemic"])),
        ("verdicts.endemic", lambda r: criterion_verdicts(r["_j"], r["det_endemic_jacobian"], r["_j2"]))])
