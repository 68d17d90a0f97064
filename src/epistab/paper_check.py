"""Transcription checks: published closed forms vs. independent numeric oracles.

Each claim pins one closed-form expression from the source publication
against a numeric oracle computed from the printed ODE systems (LAPACK
determinants for the determinant and minor claims, central differences for
Jacobians, eigenvalue-based characteristic polynomials, equilibrium
residuals).  One constructor, ``_claim``, builds every claim from (paper,
oracle) pairs; a claim whose largest |paper - oracle| exceeds its tolerance
is ``flagged``; nothing is repaired silently.

The report is the single place where the known transcription slips are
quantified: the Jacobian entries (2,1), (3,3), (4,4); the dropped row-5
entries of the disease-free Jacobian display; the population-sum identity
(the D compartment carries no -mu*D term); the endemic I*/H* ratio
numerator; the next-generation minor expressions; the splitting-cubic
coefficients; the missing 1/2 on the cubic conjugate-pair roots; one entry
of the 10x10 second-compound display; and the (3,3) entry of the
three-compartment compound display.

The printed forms that only these checks read are defined here, not in the
model modules: the general and disease-free Jacobian displays
(``jacobian_transcribed``, ``dfe_jacobian_transcribed``), the reduced NGM
blocks (``reduced_ngm_matrices``), the I*/H* ratio (``alpha_hat_transcribed``),
the NGM reduction (``ngm_printed``: det V, the minors of V, a_c..d_c, delta
and the quadratic-formula R0), the M - E splitting of the disease-free
Jacobian with its cubic (``splitting_matrices``, ``chi_cubic``, raising
``DegenerateSplittingError``) and its numeric characteristic polynomial
(``splitting_char_poly``), the 10x10 second-compound display
(``second_compound5_display``) and the three-compartment compound display
(``j2_dfe_transcribed``).  Each NGM probe takes det V once, in one stacked
LAPACK call: it is both the oracle of the det V claim and the divisor of
a_c..d_c.  R0 = rho(F V^-1) at the five probes comes from one stacked LU
and one stacked eigenvalue call (``covid.ngm_radius``).

The probe states and the two parameter-free claims (the cubic conjugate
pair and the 10x10 compound display) are fixed by ``SEED``: they are
computed once per process and shared, read-only, by every report.
``seeded_claims`` names those two claims, so the CLI can render their JSON
once per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import covid, model, seir
from .compound import add_compound, add_compound2_closed
from .linalg import eigenvalues, inverse
from .model import Record

MATCH = "match"
FLAGGED = "flagged"
SEED = 20260809  # seeds the probe states and random inputs of every report

# flat indices of the (1,1), (1,2), (2,1) and (2,2) minors of a 5x5 matrix, in that order
_MINORS = np.array([[[5 * r + c for c in range(5) if c != j] for r in range(5) if r != i]
                    for i in (0, 1) for j in (0, 1)])


@dataclass(frozen=True)
class ClaimResult(Record):
    claim_id: str
    paper_value: object  # float or matrix at the canonical probe
    oracle_value: object
    max_abs_diff: float
    verdict: str
    note: str = ""


def _claim(claim_id, pairs, tol, note=""):
    """Claim with the values of the first (paper, oracle) pair and the largest
    max|paper - oracle| over all pairs."""
    diff = max(float(abs(pv - ov)) if isinstance(pv, float) and isinstance(ov, float)
               else float(np.abs(pv - ov).max()) for pv, ov in pairs)
    paper, oracle = pairs[0]
    return ClaimResult(claim_id=claim_id, paper_value=paper, oracle_value=oracle,
                       max_abs_diff=diff, verdict=MATCH if diff <= tol else FLAGGED, note=note)


class DegenerateSplittingError(ArithmeticError):
    """The diagonal splitting of the disease-free Jacobian is not invertible."""


# --- transcribed forms (kept here: only the checks evaluate them) ---

def jacobian_transcribed(p, x):
    """The published general Jacobian display, typos included."""
    e, i, c, h, d = np.asarray(x, dtype=float)
    return np.array([
        [(p.beta10 - p.beta1) * i + p.beta7 * d - p.mu,
         (p.beta10 - p.beta1) * e, 0.0, p.beta9, p.beta7 * e],
        [(p.beta1 - p.beta10) * i + p.beta7 * d - p.mu,
         (p.beta1 - p.beta10) * e - (p.beta2 + p.beta6 + p.beta8 + p.mu),
         0.0, 0.0, 0.0],
        [0.0, p.beta2, -(p.beta2 + p.beta5 + p.mu), p.beta4, 0.0],
        [0.0, p.beta8, p.beta3, p.beta8 - p.beta4 - p.beta9 - p.mu, 0.0],
        [-p.beta7 * d, p.beta6, p.beta5, 0.0, -p.beta7 * e],
    ])


def dfe_jacobian_transcribed(p):
    """The published disease-free Jacobian display: the general display at
    (B/mu, 0, 0, 0, 0) with row 5 zeroed except (5,5)."""
    j = jacobian_transcribed(p, (p.e_dfe, 0.0, 0.0, 0.0, 0.0))
    j[4, :4] = 0.0
    return j


def reduced_ngm_matrices(p):
    """The reduced 2x2 new-infection and transition blocks at the disease-free point."""
    e = p.e_dfe
    f_m = np.array([[0.0, p.beta10 * e], [0.0, p.beta1 * e]])
    v_m = np.array([[p.mu, p.beta1 * e], [0.0, p.alpha + p.beta10 * e]])
    return f_m, v_m


def alpha_hat_transcribed(p):
    """Published I*/H* ratio: numerator beta3*beta4 + (beta4+beta3+mu)(beta5+beta3+mu)."""
    bc = p.beta5 + p.beta3 + p.mu
    return (p.beta3 * p.beta4 + (p.beta4 + p.beta3 + p.mu) * bc) / (
        p.beta2 * p.beta3 + p.beta8 * bc)


def ngm_printed(p, x, det_v):
    """The published NGM reduction at state x: (det V, m11, m12, m21, m22, R0).

    det V is the published closed form, which is correct.  Of the published
    minors of V, m11 matches the true minor; m12 and m21 are printed as one
    shared expression (m21's value divided by beta7*E), and m22 is printed
    without the I factor on beta1.  a_c..d_c divide the printed minors by the
    numeric ``det_v``, and R0 is (a_c + d_c + sqrt(delta))/2 with delta =
    (a_c + d_c)^2 - 4 (a_c d_c - b_c c_c).
    """
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
    return detv_closed, m11, m12, m21, m22, ((a_c + d_c + np.sqrt(complex(delta))) / 2.0).real


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
        [0.0, 0.0, covid._beta_printed(p), 0.0, 0.0],
        [0.0, 0.0, 0.0, p.gamma_c, 0.0],
        [0.0, 0.0, 0.0, 0.0, p.beta7 * e_star],
    ])
    return m, e


def chi_cubic(p):
    """Published cubic factor coefficients (a1, a2, a3) of det(M E^-1 - lambda I).

    With u = -1/(alpha - a), v = 1/(alpha - a) and a = (beta1 - beta10) B/mu:
    a1, a2, a3 exactly as printed.  The numeric characteristic polynomial of
    M E^-1 (two zero eigenvalues plus a cubic) is the oracle the checks
    compare against.
    """
    aa = p.a * p.e_dfe
    gap = p.alpha - aa
    if abs(gap) <= 1e-12 * (1.0 + abs(p.alpha) + abs(aa)):
        raise DegenerateSplittingError("splitting degenerate: alpha equals (beta1-beta10)*B/mu")
    u = -1.0 / gap
    v = 1.0 / gap
    av = aa * v
    gamma = p.gamma_c
    loop = p.beta3 * p.beta4 / (covid._beta_printed(p) * gamma)
    a1 = (p.beta9 * p.beta8 / gamma) * u * (av + 1.0) - av - p.beta8 / gamma
    a2 = (p.beta8 / gamma) * av - loop
    a3 = loop * av
    return a1, a2, a3


def splitting_char_poly(p):
    """Monic characteristic polynomial coefficients of M E^-1 (numeric oracle)."""
    m, e = splitting_matrices(p)
    me = m @ inverse(e)
    return np.real(np.poly(eigenvalues(me)))


def j2_dfe_transcribed(p):
    """The published second additive compound of the three-compartment
    Jacobian at the disease-free point.

    Its (3,3) entry omits the beta1*Lambda/mu term; the checks quantify the
    gap against ``add_compound(seir.jacobian3(.), 2)``.
    """
    q = p.s_dfe
    return np.array([
        [p.beta1 * q - 2.0 * p.mu - p.gamma, p.beta2 * q, p.beta2 * q],
        [p.gamma, -2.0 * p.mu - p.d, -p.beta1 * q],
        [0.0, 0.0, -2.0 * p.mu - p.gamma - p.d],
    ])


def second_compound5_display(a):
    """The published 10x10 second-compound display for the sparsity pattern
    a13=a23=a24=a25=a31=a35=a41=a45=a54=0 (entries as printed)."""
    z = 0.0
    return np.array([
        [a[0, 0] + a[1, 1], z, z, z, z, -a[0, 3], -a[0, 4], z, z, z],
        [a[2, 1], a[0, 0] + a[2, 2], a[2, 3], a[2, 4], a[0, 1], z, z, -a[0, 3], -a[0, 4], z],
        [a[3, 1], a[3, 2], a[0, 0] + a[3, 3], a[3, 4], z, a[0, 1], z, z, z, -a[0, 4]],
        [a[4, 1], a[4, 2], z, a[0, 0] + a[4, 4], z, z, a[0, 1], z, z, a[0, 3]],
        [z, a[1, 0], z, z, a[1, 1] + a[2, 2], a[2, 3], a[2, 4], z, -a[1, 4], z],
        [z, z, a[1, 0], z, a[3, 2], a[1, 1] + a[3, 3], z, z, z, z],
        [-a[4, 0], z, z, a[1, 0], a[4, 2], z, a[1, 1] + a[4, 4], z, z, z],
        [z, -a[3, 0], z, z, -a[3, 1], a[2, 1], z, a[2, 2] + a[3, 3], z, z],
        [z, -a[4, 0], z, z, -a[4, 1], z, a[2, 1], a[4, 3], a[2, 2] + a[4, 4], a[2, 3]],
        [z, z, -a[4, 0], z, z, -a[4, 1], a[3, 1], -a[4, 2], -a[3, 2], a[3, 3] + a[4, 4]],
    ])


# --- individual claims ---

def claim_sum_identity(p, states):
    return _claim("covid_sum_identity_all_compartments",
                  [(p.B - p.mu * float(np.sum(x)), covid.sum_rate(p, x)) for x in states], 1e-9,
                  note="the D equation carries no -mu*D term; sum is B - mu*(E+I+C+H)")


def claim_jacobian_entries(p, probes):
    pairs = [(jacobian_transcribed(p, x), covid.jacobian_closed(p, x)) for x in probes]
    claims = [
        _claim(claim_id, [(t[i, j], c[i, j]) for t, c in pairs], 1e-9, note=note)
        for claim_id, i, j, note in (
            ("covid_jacobian_entry_2_1", 1, 0,
             "df2/dE is (beta1-beta10)*I; the display adds beta7*D - mu"),
            ("covid_jacobian_entry_3_3", 2, 2,
             "df3/dC is -(beta3+beta5+mu); the display has beta2 for beta3"),
            ("covid_jacobian_entry_4_4", 3, 3,
             "df4/dH is -(beta4+beta9+mu); the display adds beta8"))]
    mask = np.ones((5, 5), dtype=bool)
    for i, j in ((1, 0), (2, 2), (3, 3)):
        mask[i, j] = False
    return claims + [_claim("covid_jacobian_other_entries",
                            [(t * mask, c * mask) for t, c in pairs], 1e-9)]


def claim_dfe_jacobian_display(p, x_dfe):
    oracle = covid.jacobian_closed(p, x_dfe)
    return _claim("covid_dfe_jacobian_display", [(dfe_jacobian_transcribed(p), oracle)], 1e-9,
                  note="display also zeroes entries (5,2) and (5,3), which are beta6 and beta5")


def claim_endemic_ratios(p):
    alpha_hat, beta_hat, gamma_hat = covid.endemic_ratios(p)
    bh_paper = (p.beta8 * p.beta4 + p.beta2 * (p.beta4 + p.beta9 + p.mu)) / (
        p.beta2 * p.beta3 + p.beta8 * (p.beta5 + p.beta3 + p.mu))
    e_star = p.alpha / p.a
    gh_paper = (p.beta6 / (p.beta7 * e_star)) * alpha_hat + (p.beta5 / (p.beta7 * e_star)) * beta_hat
    end = covid.endemic(p)
    return [
        _claim("covid_endemic_ratio_alpha_hat", [(alpha_hat_transcribed(p), alpha_hat)], 1e-9,
               note="numerator should be (beta3+beta5+mu)(beta4+beta9+mu) - beta3*beta4"),
        _claim("covid_endemic_ratio_beta_hat", [(bh_paper, beta_hat)], 1e-9),
        _claim("covid_endemic_ratio_gamma_hat", [(gh_paper, gamma_hat)], 1e-9),
        _claim("covid_endemic_h_star_convention", [(end.residual, 0.0)], 1e-10,
               note="the printed H* denominator sign satisfies rhs(P*) = 0"),
    ]


def claim_ngm(p, probes):
    fs, vs = (np.array(a) for a in zip(*(covid.ngm_matrices(p, x) for x in probes)))
    det_v = np.linalg.det(vs).tolist()  # LAPACK factors each matrix of a stack as it would alone
    minors = np.linalg.det(vs.reshape(len(vs), 25)[:, _MINORS]).tolist()
    r0 = covid.ngm_radius(fs, vs, det_v)
    oracles = [(d, *m, r) for d, m, r in zip(det_v, minors, r0)]
    printed = [ngm_printed(p, x, d) for x, d in zip(probes, det_v)]
    return [_claim(claim_id, [(q[k], o[k]) for q, o in zip(printed, oracles)], 1e-8, note=note)
            for k, (claim_id, note) in enumerate((
                ("covid_ngm_det_v", ""),
                ("covid_ngm_minor_m11", ""),
                ("covid_ngm_minor_m12", "printed expression is the (2,1) minor over beta7*E"),
                ("covid_ngm_minor_m21", "printed expression omits the beta7*E factor"),
                ("covid_ngm_minor_m22", "printed factor beta1 + mu should be beta1*I + mu"),
                ("covid_ngm_r0_quadratic_formula",
                 "(a+d+sqrt(delta))/2 from the printed minors vs rho(F V^-1)")))]


def claim_dfe_determinant(p):
    dj = covid.det_jp0(p)
    return _claim("covid_dfe_jacobian_determinant", [(dj.closed, dj.numeric)], 1e-8,
                  note="closed form descends from the transcribed Jacobian")


def claim_splitting_cubic(p):
    paper = np.array([chi_cubic(p)])
    coeffs = splitting_char_poly(p)
    oracle = np.array([coeffs[1:4]])
    tail = float(max(abs(coeffs[4]), abs(coeffs[5])))
    return _claim("covid_splitting_cubic_coefficients", [(paper, oracle)], 1e-8,
                  note=f"char poly of M E^-1 has lambda^2 factor (tail {tail:.2e}); "
                       "printed a1,a2,a3 drop/misplace the beta9 cross terms")


def claim_cubic_conjugate_pair(rng):
    from .stability import cardano
    worst_paper, worst_fixed = 0.0, 0.0
    for _ in range(20):
        a, b, c, d = rng.uniform(-5.0, 5.0, size=4)
        if abs(a) < 0.2:
            a = 1.0
        roots = cardano(a, b, c, d)
        x1, x2, x3 = roots.roots
        s_plus_t = x1 + b / (3.0 * a)
        im = x2 - (-s_plus_t / 2.0 - b / (3.0 * a))  # (i sqrt3 / 2)(S - T)
        x2_paper = -s_plus_t / 2.0 - b / (3.0 * a) + 2.0 * im
        poly = lambda x: a * x ** 3 + b * x ** 2 + c * x + d
        worst_paper = max(worst_paper, abs(poly(x2_paper)))
        worst_fixed = max(worst_fixed, abs(poly(x2)))
    return _claim("cubic_conjugate_pair_half_factor", [(worst_paper, worst_fixed)], 1e-8,
                  note="printed conjugate roots omit the 1/2 on i*sqrt(3)*(S-T); "
                       "values are worst cubic residuals")


def claim_second_compound5_display(rng):
    a = rng.normal(size=(5, 5))
    for i, j in ((1, 3), (2, 3), (2, 4), (2, 5), (3, 1), (3, 5), (4, 1), (4, 5), (5, 4)):
        a[i - 1, j - 1] = 0.0
    return _claim("second_compound_10x10_display",
                  [(second_compound5_display(a), add_compound2_closed(a))], 1e-12,
                  note="display entry (10,9) prints -a43 where the template has +a43")


def claim_seir_jacobian(sp, states):
    oracles = model.jacobian_fd(seir.rhs3, sp, np.array(states))
    return _claim("seir_jacobian", [(seir.jacobian3(sp, x), o) for x, o in zip(states, oracles)],
                  1e-6, note="the printed three-compartment Jacobian is correct")


def claim_seir_compound_display(sp):
    oracle = add_compound(seir.jacobian3(sp, seir.dfe3(sp).state), 2)
    return _claim("seir_dfe_compound_display", [(j2_dfe_transcribed(sp), oracle)], 1e-9,
                  note="printed (3,3) omits the beta1*Lambda/mu term")


def claim_seir_endemic_i1(sp):
    end = seir.endemic3(sp)
    s_star = end.state[0]
    i1_paper = (sp.Lambda - sp.mu * s_star) / (sp.mu + sp.d)
    bad = end.state.copy()
    bad[1] = i1_paper
    bad[2] = sp.delta * i1_paper
    res_paper = float(abs(seir.rhs3(sp, bad)).max())
    return _claim("seir_endemic_i1_divisor", [(i1_paper, end.state[1])], 1e-9,
                  note=f"printed divisor mu+d leaves residual {res_paper:.3e}; "
                       "mu+gamma satisfies the equilibrium equations")


@functools.cache
def _seeded():
    """(covid probe states, cubic claim, compound claim, SEIR probe states),
    drawn from ``SEED`` in report order, once per process; arrays read-only."""
    rng = np.random.default_rng(SEED)
    canonical, probes = np.array([1.0, 0.8, 0.6, 0.4, 0.2]), rng.uniform(0.05, 3.0, size=(3, 5))
    cubic, compound = claim_cubic_conjugate_pair(rng), claim_second_compound5_display(rng)
    seir_states = rng.uniform(0.05, 3.0, size=(5, 3))
    for a in (canonical, probes, seir_states, compound.paper_value, compound.oracle_value):
        a.flags.writeable = False
    return (canonical, *probes), cubic, compound, seir_states


def seeded_claims():
    """The claims that depend on ``SEED`` alone: the same two objects in every report."""
    return _seeded()[1:3]


def build_report(p, sp=None):
    """All transcription claims for one parameter set (and a SEIR set)."""
    if sp is None:
        sp = seir.figure_params()
    states, cubic, compound, seir_states = _seeded()
    x_dfe = covid.dfe(p).state
    claims = [claim_sum_identity(p, states), *claim_jacobian_entries(p, [x_dfe, *states]),
              claim_dfe_jacobian_display(p, x_dfe), *claim_endemic_ratios(p),
              *claim_ngm(p, [x_dfe, *states]), claim_dfe_determinant(p),
              claim_splitting_cubic(p), cubic, compound, claim_seir_jacobian(sp, seir_states),
              claim_seir_compound_display(sp), claim_seir_endemic_i1(sp)]
    ids = [c.claim_id for c in claims]
    if len(ids) != len(set(ids)):
        raise RuntimeError("duplicate claim ids in transcription report")
    return claims


def report_to_dicts(claims):
    return [c.to_dict() for c in claims]
