import re

import numpy as np
import pytest

import epistab.covid as covid
import epistab.seir as seir
from epistab import model, paper_check
from epistab.linalg import determinant, inverse, spectral_radius
from epistab.stability import INCONCLUSIVE, MARGIN, STABLE, UNSTABLE, li_wang_exact


def test_params_validation():
    with pytest.raises(ValueError):
        covid.table_params(-0.1)
    with pytest.raises(ValueError):
        covid.CovidParams.from_dict({k: 0.1 for k in covid.CovidParams.keys() if k != "beta10"})
    with pytest.raises(ValueError):
        covid.CovidParams.from_dict(dict({k: 0.1 for k in covid.CovidParams.keys()}, bogus=1.0))
    p = covid.table_params(0.1)
    assert covid.CovidParams.from_dict(p.to_dict()) == p


def test_state_constructor_enforces_nonnegativity():
    np.testing.assert_array_equal(model.population([1.0, 2.0, 3.0, 4.0, 5.0]),
                                  [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        model.population([1.0, -0.1, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        model.population([np.inf, 0.0, 0.0, 0.0, 0.0])


def test_rhs_vanishes_at_dfe(covid_table):
    x = np.array([covid_table.B / covid_table.mu, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(covid.rhs(covid_table, x), np.zeros(5))


def test_rhs_hand_expanded_probe(covid_table):
    # each component expanded by hand from the printed polynomials at x = 1
    got = covid.rhs(covid_table, np.ones(5))
    np.testing.assert_allclose(got, [1.04, -0.56, 0.25, -0.26, 0.29], atol=1e-12)


def test_rhs_decoupled_when_rates_vanish():
    p = covid.CovidParams(B=0.8, mu=0.01, **{f"beta{i}": 0.0 for i in range(1, 11)})
    x = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    np.testing.assert_allclose(
        covid.rhs(p, x),
        [0.8 - 0.01 * 2.0, -0.03, -0.04, -0.05, 0.0], atol=1e-15)


def test_rhs_broadcasts_over_batches(covid_table):
    rng = np.random.default_rng(501)
    batch = rng.uniform(0.0, 2.0, size=(7, 5))
    out = covid.rhs(covid_table, batch)
    assert out.shape == (7, 5)
    for k in range(7):
        np.testing.assert_array_equal(out[k], covid.rhs(covid_table, batch[k]))


def test_sum_rate_examples(covid_table):
    assert covid.sum_rate(covid_table, np.zeros(5)) == pytest.approx(covid_table.B, abs=1e-15)
    # independent of D when the other compartments vanish
    x = np.array([0.0, 0.0, 0.0, 0.0, 7.0])
    assert covid.sum_rate(covid_table, x) == pytest.approx(covid_table.B, abs=1e-12)
    assert covid.sum_rate(covid_table, np.ones(5)) == pytest.approx(0.76, abs=1e-12)


def test_sum_rate_batches(covid_table):
    rng = np.random.default_rng(504)
    batch = rng.uniform(-5.0, 5.0, size=(40, 5))
    np.testing.assert_array_equal(covid.sum_rate(covid_table, batch),
                                  [covid.sum_rate(covid_table, x) for x in batch])
    assert covid.sum_rate(covid_table, batch.reshape(8, 5, 5)).shape == (8, 5)
    assert type(covid.sum_rate(covid_table, batch[0])) is float


def test_sum_identity_everywhere(covid_table):
    rng = np.random.default_rng(502)
    for _ in range(50):
        x = rng.uniform(-5.0, 5.0, size=5)
        ref = covid_table.B - covid_table.mu * (x[0] + x[1] + x[2] + x[3])
        assert covid.sum_rate(covid_table, x) == pytest.approx(ref, abs=1e-12)


def test_jacobian_fd_examples(covid_table):
    p0 = covid.CovidParams(B=0.8, mu=0.01, **{f"beta{i}": 0.0 for i in range(1, 11)})
    j = model.jacobian_fd(covid.rhs, p0, np.array([1.0, 1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(j, np.diag([-0.01, -0.01, -0.01, -0.01, 0.0]), atol=1e-8)
    j = model.jacobian_fd(covid.rhs, covid_table, covid.dfe(covid_table).state)
    assert j[0, 1] == pytest.approx((covid_table.beta10 - covid_table.beta1) * 80.0, abs=1e-6)
    assert j[0, 1] == pytest.approx(-36.0, abs=1e-6)


def test_jacobian_closed_matches_fd(covid_table):
    rng = np.random.default_rng(503)
    for _ in range(100):
        x = rng.uniform(0.0, 3.0, size=5)
        gap = abs(covid.jacobian_closed(covid_table, x)
                  - model.jacobian_fd(covid.rhs, covid_table, x)).max()
        assert gap < 1e-6


def test_dfe(covid_table):
    eq = covid.dfe(covid_table)
    assert eq.state[0] == 80.0
    np.testing.assert_array_equal(eq.state[1:], np.zeros(4))
    assert eq.residual < 1e-12
    assert eq.kind == "dfe"
    assert not eq.feasible  # zero components are not strictly positive
    origin = covid.dfe(covid_table.replace(B=0.0))
    np.testing.assert_array_equal(origin.state, np.zeros(5))
    with pytest.raises(ValueError):
        covid.dfe(covid_table.replace(mu=0.0))


@pytest.mark.parametrize("fn, params", [pytest.param(fn, params, id=fn.__name__) for fn, params in (
    (covid.dfe, covid.table_params(0.1)),
    (paper_check.reduced_ngm_matrices, covid.table_params(0.1)),
    (seir.dfe3, seir.figure_params()),
    (seir.seir_ngm_matrices, seir.figure_params()),
    (paper_check.j2_dfe_transcribed, seir.figure_params()))])
def test_disease_free_forms_called_first_at_mu_0(fn, params):
    # each is the first call on fresh parameters: no guard elsewhere runs before it
    with pytest.raises(ValueError, match="needs mu > 0"):
        fn(params.replace(mu=0.0))


@pytest.mark.parametrize("call, message", [
    (lambda p, sp: p.e_dfe, "disease-free equilibrium needs mu > 0"),
    (lambda p, sp: covid.endemic(p), "endemic equilibrium needs mu > 0"),
    (lambda p, sp: covid.r0_reduced(p), "R0 needs mu > 0"),
    (lambda p, sp: sp.s_dfe, "disease-free equilibrium needs mu > 0"),
    (lambda p, sp: seir.r0_seir(sp), "R0 needs mu > 0"),
], ids=["e_dfe", "endemic", "r0_reduced", "s_dfe", "r0_seir"])
def test_each_mu_guard_keeps_its_message_at_mu_0(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(covid.table_params(0.1).replace(mu=0.0), seir.figure_params(mu=0.0))


def test_nan_residual_fails_the_gate(covid_table):
    # at E = inf the rhs is NaN (inf*0, inf - inf) and the gate inf
    p = covid_table.replace(B=1e300, mu=1e-300)
    with pytest.raises(ArithmeticError, match="residual nan"):
        model.equilibrium(covid.rhs, p, np.array([np.inf, 0.0, 0.0, 0.0, 0.0]), "dfe")


def test_overflowing_disease_free_quotient_raises_naming_it(covid_table):
    for p in (covid_table.replace(B=1e300, mu=1e-300), covid_table.replace(mu=5e-324)):
        with pytest.raises(ArithmeticError, match=r"^disease-free E\* = B/mu overflows to inf$"):
            p.e_dfe
        with pytest.raises(ArithmeticError, match=r"^disease-free E\* = B/mu overflows to inf$"):
            covid.dfe(p)
    # the largest finite quotient still passes
    largest = 1.7976931348623157e308
    assert covid_table.replace(B=largest, mu=1.0).e_dfe == largest


def test_derived_groups(covid_table):
    p = covid_table
    alpha_hat, beta_hat, gamma_hat = covid.endemic_ratios(p)
    assert p.a == pytest.approx(0.45, abs=1e-15)
    assert p.alpha == pytest.approx(1.01, abs=1e-15)
    assert p.beta_c == pytest.approx(0.95, abs=1e-15)
    assert p.gamma_c == pytest.approx(1.16, abs=1e-15)
    # ratios from the 2x2 solve of the C/H equilibrium equations
    assert alpha_hat == pytest.approx(0.622 / 0.525, abs=1e-12)
    assert beta_hat == pytest.approx(0.704 / 0.525, abs=1e-12)
    e_star = 1.01 / 0.45
    assert gamma_hat == pytest.approx((0.30 * alpha_hat + 0.34 * beta_hat) / (0.35 * e_star),
                                      abs=1e-12)


def test_endemic_anchor_values(covid_table):
    eq = covid.endemic(covid_table)
    assert abs(eq.state[0] - 1.01 / 0.45) < 1e-12
    assert eq.state[3] == pytest.approx(22.053844768593716, abs=1e-9)
    assert eq.residual < 1e-10
    assert eq.feasible
    # scaling B leaves E* and the ratios fixed; H*,I*,C*,D* scale together
    p2 = covid_table.replace(B=2.0 * covid_table.B)
    eq2 = covid.endemic(p2)
    assert eq2.state[0] == pytest.approx(eq.state[0], abs=1e-12)
    factor = (p2.B - p2.mu * eq.state[0]) / (covid_table.B - covid_table.mu * eq.state[0])
    np.testing.assert_allclose(eq2.state[1:], factor * eq.state[1:], rtol=1e-10)


def test_endemic_infeasible_when_beta1_below_beta10():
    p = covid.table_params(0.1).replace(beta1=0.05)
    eq = covid.endemic(p)
    assert not eq.feasible
    assert eq.residual < 1e-10


def test_r0_reduced_anchor(covid_table):
    r0 = covid.r0_reduced(covid_table)
    assert abs(r0 - 0.44 / 0.0901) < 1e-12
    fm, vm = paper_check.reduced_ngm_matrices(covid_table)
    oracle = spectral_radius(fm @ inverse(vm))
    assert abs(r0 - oracle) < 1e-10
    assert covid.r0_reduced(covid_table.replace(beta1=0.0)) == 0.0


def test_r0_monotone_decreasing_in_mu(covid_table):
    values = [covid.r0_reduced(covid_table.replace(mu=0.005 + 0.015 * k))
              for k in range(50)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_batch_record_validates_its_points_once(covid_table):
    b = covid_table.batch("beta1", [0.1, 0.0, 0.2])
    assert type(b) is covid.CovidParams
    assert b.beta1.dtype == float and b.beta1.tolist() == [0.1, 0.0, 0.2]
    assert dict(vars(b), beta1=None) == dict(vars(covid_table), beta1=None)
    for bad, shown in ((-0.1, "-0.1"), (np.inf, "inf"), (np.nan, "nan")):
        with pytest.raises(ValueError, match=f"^parameter beta1 must be finite and >= 0, got {shown}$"):
            covid_table.batch("beta1", [0.1, bad, -1.0])
    with pytest.raises(ValueError, match="^unknown parameter bogus$"):
        covid_table.batch("bogus", [0.1])


@pytest.mark.parametrize("name", covid.CovidParams.keys())
def test_r0_reduced_batch_has_each_points_bits(covid_table, name):
    rng = np.random.default_rng([2802, covid.CovidParams.keys().index(name)])
    extra = [5e-324] if name == "mu" else [5e-324, 0.0, 1e300]
    values = np.concatenate([getattr(covid_table, name) * rng.uniform(0.1, 10.0, 61), extra])
    got = covid.r0_reduced(covid_table.batch(name, values))
    want = [covid.r0_reduced(covid_table.replace(**{name: v})) for v in values.tolist()]
    # an R0 that does not read the swept parameter stays one float
    assert type(got) is (np.ndarray if name in ("B", "mu", "beta1", "beta2", "beta6", "beta8",
                                                "beta10") else float)
    assert np.broadcast_to(got, values.shape).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("k", range(3))
def test_batch_guards_fail_when_any_point_fails(covid_table, k):
    # with beta2 = beta6 = beta8 = beta10 = 0, alpha*mu + beta10*B is mu*mu,
    # which underflows to 0 at a subnormal mu
    vanishing = covid_table.replace(beta2=0.0, beta6=0.0, beta8=0.0, beta10=0.0)
    for p, bad, call in ((covid_table, 0.0, lambda q: q.need_mu("R0")),
                         (covid_table, 0.0, covid.r0_reduced),
                         (vanishing, 5e-324, covid.r0_reduced)):
        mu = [0.01, 0.02, 0.03]
        call(p.batch("mu", mu))
        mu[k] = bad
        with pytest.raises(ValueError) as scalar:
            call(p.replace(mu=bad))
        with pytest.raises(type(scalar.value), match=f"^{re.escape(str(scalar.value))}$"):
            call(p.batch("mu", mu))


def test_float_records_give_float_results(covid_table):
    assert covid_table.need_mu("R0") is None
    assert type(covid.r0_reduced(covid_table)) is float


def test_r0_full_at_dfe_matches_reduced(covid_table):
    x = covid.dfe(covid_table).state
    r0 = covid.r0_full(covid_table, x)
    assert abs(r0 - covid.r0_reduced(covid_table)) < 1e-10
    assert r0 >= 0.0
    # defining property, recomputed independently of r0_full
    f, v = covid.ngm_matrices(covid_table, x)
    assert r0 == pytest.approx(spectral_radius(f @ inverse(v)), abs=1e-8)


@pytest.mark.parametrize("beta10", [0.1, 0.2, 0.6])
def test_r0_full_is_the_spectral_radius_bit_for_bit(beta10):
    p = covid.table_params(beta10)
    probes = [covid.dfe(p).state, *paper_check._seeded()[0]]
    r0 = [covid.r0_full(p, x) for x in probes]
    for x, value in zip(probes, r0):
        f, v = covid.ngm_matrices(p, x)
        assert value == spectral_radius(f @ inverse(v))
    # the paper-check oracle of the quadratic-formula claim is the same value
    claim = {c.claim_id: c for c in paper_check.build_report(p)}["covid_ngm_r0_quadratic_formula"]
    printed = [paper_check.ngm_printed(p, x, determinant(covid.ngm_matrices(p, x)[1]))[5]
               for x in probes]
    assert claim.oracle_value == r0[0]
    assert claim.max_abs_diff == max(abs(q - value) for q, value in zip(printed, r0))


def test_a_transition_matrix_that_is_not_finite_is_a_numeric_failure(covid_table):
    # beta2 = beta8 = 1.7e308 make alpha = inf, so V(DFE) holds inf
    p = covid_table.replace(beta2=1.7e308, beta8=1.7e308)
    with pytest.raises(ArithmeticError, match=r"^transition matrix V is not finite$"):
        covid.r0_full(p, covid.dfe(p).state)
    with pytest.raises(ArithmeticError, match=r"^transition matrix V is not finite$"):
        covid.stability_report(p)


def _ngm_outcome(fs, vs, det_v):
    try:
        return covid.ngm_radius(fs, vs, det_v)
    except ArithmeticError as exc:
        return str(exc)


@pytest.mark.parametrize("nonfinite_at", [None, 0, 2, 4])
@pytest.mark.parametrize("det_at", [None, 0, 2, 4])
@pytest.mark.parametrize("ngm_at", [None, 0, 2, 4])
def test_stacked_ngm_radius_raises_for_the_first_failing_probe(covid_table, nonfinite_at, det_at,
                                                                ngm_at):
    p = covid_table
    probes = [covid.dfe(p).state, *paper_check._seeded()[0]]
    fs, vs = (np.array(a) for a in zip(*(covid.ngm_matrices(p, x) for x in probes)))
    failures = {}
    if ngm_at is not None:  # F V^-1 = 2e308 I overflows; V = I / 2 passes every guard
        fs[ngm_at], vs[ngm_at] = 1e308 * np.eye(5), 0.5 * np.eye(5)
        failures[ngm_at] = "next-generation matrix F V^-1 is not finite"
    if det_at is not None:  # a zero column: det V = 0 fails the det guard
        vs[det_at][:, 4] = 0.0
        failures[det_at] = "transition matrix V is singular (pivot magnitude 0.000e+00)"
    if nonfinite_at is not None:  # checked before the det guard of its probe
        vs[nonfinite_at][1, 1] = np.inf
        failures[nonfinite_at] = "transition matrix V is not finite"
    det_v = np.linalg.det(np.where(np.isfinite(vs), vs, 0.0)).tolist()
    with np.errstate(over="ignore"):  # as the CLI runs
        got = _ngm_outcome(fs, vs, det_v)
    if failures:
        assert got == failures[min(failures)]
    else:
        assert got == [covid.r0_full(p, x) for x in probes]


def test_ngm_block_triangular_detv(covid_table):
    p = covid_table
    x = np.array([p.B / p.mu, 0.0, 2.0, 1.5, 0.0])  # I = D = 0
    v = covid.ngm_matrices(p, x)[1]
    det_v_closed = paper_check.ngm_printed(p, x, determinant(v))[0]
    alpha_l = p.beta10 * x[0] + p.beta2 + p.beta6 + p.beta8 + p.mu
    core = (p.beta3 + p.beta5 + p.mu) * (p.beta4 + p.beta9 + p.mu) - p.beta3 * p.beta4
    expected = p.beta7 * x[0] * p.mu * alpha_l * core
    assert determinant(v) == pytest.approx(expected, rel=1e-10)
    assert det_v_closed == pytest.approx(expected, rel=1e-10)


def test_ngm_closed_detv_matches_numeric_generally(covid_table):
    rng = np.random.default_rng(504)
    for _ in range(20):
        x = rng.uniform(0.05, 3.0, size=5)
        det_v = determinant(covid.ngm_matrices(covid_table, x)[1])
        assert paper_check.ngm_printed(covid_table, x, det_v)[0] == pytest.approx(det_v, rel=1e-9)


def test_det_jp0(covid_table):
    rec = covid.det_jp0(covid_table)
    assert rec.closed == pytest.approx(-4.7404560, abs=1e-6)
    # independent oracle: block structure gives mu*beta7*E*(aE - alpha)*core
    core = 0.95 * 1.16 - 0.48
    expected = 0.01 * 0.35 * 80.0 * (36.0 - 1.01) * core
    assert rec.numeric == pytest.approx(expected, rel=1e-10)
    assert rec.condition_ii and rec.beta1_gt_beta10
    # removing beta8 collapses the closed form to -mu*beta7*beta*E*alpha*gamma
    p8 = covid_table.replace(beta8=0.0)
    rec8 = covid.det_jp0(p8)
    alpha8 = p8.beta2 + p8.beta6 + p8.mu
    beta_s = p8.beta2 + p8.beta5 + p8.mu
    gamma8 = p8.beta4 + p8.beta9 + p8.mu
    assert rec8.closed == pytest.approx(
        -p8.mu * p8.beta7 * beta_s * 80.0 * alpha8 * gamma8, rel=1e-12)


def test_det_jp0_takes_the_jacobian_without_evaluating_rhs(covid_table, monkeypatch):
    # both callers gate the disease-free point first; det_jp0 reuses B/mu
    expected = determinant(covid.jacobian_closed(covid_table, covid.dfe(covid_table).state))

    def no_rhs(p, x):
        raise AssertionError("det_jp0 evaluated rhs")
    monkeypatch.setattr(covid, "rhs", no_rhs)
    assert covid.det_jp0(covid_table).numeric == expected


def test_det_jp0_sign_findings():
    # the published sign conclusion (det < 0 under condition (ii) with
    # beta1 > beta10) holds for the closed form by construction but fails
    # for the re-derived determinant whenever R0 > 1; emit, do not hide
    rng = np.random.default_rng(505)
    findings = 0
    cases = 0
    for _ in range(100):
        vals = rng.uniform(0.01, 1.0, size=10)
        p = covid.CovidParams(B=rng.uniform(0.1, 2.0), mu=rng.uniform(0.005, 0.5),
                              **{f"beta{i + 1}": float(vals[i]) for i in range(10)})
        rec = covid.det_jp0(p)
        if rec.condition_ii and rec.beta1_gt_beta10:
            cases += 1
            assert rec.closed < 0.0
            if rec.numeric >= 0.0:
                findings += 1
    assert cases > 20
    print(f"dfe determinant sign findings: {findings}/{cases} draws have numeric det >= 0")


def test_stability_report_verdicts_read_the_reported_dfe_determinant():
    # one det J(DFE) per report: (-1)^5 det J is the exact verdict's det_sign
    rng = np.random.default_rng(2202)
    for _ in range(1000):
        vals = rng.uniform(0.01, 1.0, size=10)
        p = covid.CovidParams(B=rng.uniform(0.1, 2.0), mu=rng.uniform(0.005, 0.5),
                              **{f"beta{i + 1}": float(vals[i]) for i in range(10)})
        rep = covid.stability_report(p)
        assert rep["dfe_determinant"]["numeric"] == -rep["verdicts"]["dfe"]["li_wang_exact"]["det_sign"]


def test_chi_cubic_anchor(covid_table):
    a1, a2, a3 = paper_check.chi_cubic(covid_table)
    gap = 1.01 - 36.0
    v = 1.0 / gap
    assert v == pytest.approx(-0.028579594169762784, abs=1e-12)
    assert 36.0 * v == pytest.approx(-1.0288653901114604, abs=1e-12)
    # coefficients exactly as printed
    assert a1 == pytest.approx(0.7701700272501084, abs=1e-12)
    assert a2 == pytest.approx(-0.8178100146839985, abs=1e-12)
    assert a3 == pytest.approx(-0.5676498704063231, abs=1e-12)


def test_chi_cubic_vs_characteristic_polynomial(covid_table):
    # oracle: monic char poly of M E^-1 from its eigenvalues
    coeffs = paper_check.splitting_char_poly(covid_table)
    assert abs(coeffs[4]) < 1e-12 and abs(coeffs[5]) < 1e-12  # lambda^2 factor
    # the re-derived coefficients of the cubic factor
    p = covid_table
    e_star = p.B / p.mu
    aa = (p.beta1 - p.beta10) * e_star
    alpha = p.beta2 + p.beta6 + p.beta8 + p.mu
    beta_s = p.beta2 + p.beta5 + p.mu
    gamma = p.beta4 + p.beta9 + p.mu
    u = -1.0 / (alpha - aa)
    v = 1.0 / (alpha - aa)
    av = aa * v
    a1_true = -av - p.beta8 / gamma
    a2_true = av * p.beta8 / gamma - p.beta3 * p.beta4 / (beta_s * gamma) - p.beta9 * p.beta8 * u / gamma
    a3_true = (av * p.beta3 * p.beta4 - p.beta9 * u * p.beta2 * p.beta3) / (beta_s * gamma)
    np.testing.assert_allclose(coeffs[1:4], [a1_true, a2_true, a3_true], atol=1e-12)
    # the printed coefficients differ by the misplaced beta9 cross terms
    a1, a2, a3 = paper_check.chi_cubic(covid_table)
    assert abs(a1 - coeffs[1]) == pytest.approx(7.467e-05, abs=1e-7)
    assert abs(a2 - coeffs[2]) == pytest.approx(2.587e-03, abs=1e-5)
    assert abs(a3 - coeffs[3]) == pytest.approx(2.759e-03, abs=1e-5)


def test_chi_cubic_term_deletion(covid_table):
    p = covid_table.replace(beta8=0.0, beta9=0.0)
    a1, a2, a3 = paper_check.chi_cubic(p)
    e_star = p.B / p.mu
    aa = (p.beta1 - p.beta10) * e_star
    alpha = p.beta2 + p.beta6 + p.mu
    av = aa / (alpha - aa)
    beta_s = p.beta2 + p.beta5 + p.mu
    gamma = p.beta4 + p.mu
    assert a1 == pytest.approx(-av, rel=1e-12)
    assert a2 == pytest.approx(-p.beta3 * p.beta4 / (beta_s * gamma), rel=1e-12)
    assert a3 == pytest.approx(p.beta3 * p.beta4 / (beta_s * gamma) * av, rel=1e-12)


def test_splitting_reconstructs_transcribed_dfe_jacobian(covid_table):
    m, e = paper_check.splitting_matrices(covid_table)
    np.testing.assert_allclose(m - e, paper_check.dfe_jacobian_transcribed(covid_table),
                               atol=1e-12)


def test_stability_report_table_params(covid_table):
    rep = covid.stability_report(covid_table)
    assert rep["r0"]["reduced"] == pytest.approx(4.8834628190899, abs=1e-10)
    assert rep["r0"]["threshold_verdict"] == "unstable"
    assert rep["verdicts"]["dfe"]["li_wang_exact"]["outcome"] == UNSTABLE
    assert rep["verdicts"]["dfe"]["hurwitz"]["outcome"] == UNSTABLE
    dom = rep["dfe_compound_dominance"]
    assert dom["cond_d_beta8_beta7E_lt_mu"] is False  # 28.3 >= mu
    assert dom["hypotheses_hold"] is False
    assert not rep["unique_dfe_conditions"]["beta1_lt_beta10"]
    assert rep["equilibria"]["endemic"]["feasible"] is True
    assert set(rep["verdicts"]["endemic"]["li_wang_sufficient"]) == {"one", "two", "inf"}


def test_stability_report_stable_regime():
    p = covid.table_params(0.005).replace(beta1=0.01)
    rep = covid.stability_report(p)
    assert rep["r0"]["reduced"] < 1.0
    assert rep["r0"]["threshold_verdict"] == "stable"
    assert rep["verdicts"]["dfe"]["li_wang_exact"]["outcome"] == STABLE


def test_threshold_verdict_inside_the_dead_band():
    p = covid.table_params(0.1)
    alpha = p.beta2 + p.beta6 + p.beta8 + p.mu
    p = p.replace(beta1=(alpha * p.mu + p.beta10 * p.B) / p.B)
    rep = covid.stability_report(p)
    assert rep["r0"]["reduced"] == pytest.approx(1.0, abs=MARGIN)
    assert rep["r0"]["threshold_verdict"] == "inconclusive"


def test_threshold_coherence_with_findings():
    rng = np.random.default_rng(506)
    findings = []
    checked = 0
    for _ in range(60):
        vals = rng.uniform(0.01, 1.0, size=10)
        p = covid.CovidParams(B=rng.uniform(0.1, 2.0), mu=rng.uniform(0.005, 0.5),
                              **{f"beta{i + 1}": float(vals[i]) for i in range(10)})
        r0 = covid.r0_reduced(p)
        if abs(r0 - 1.0) <= 0.05:
            continue
        checked += 1
        verdict = li_wang_exact(covid.jacobian_closed(p, covid.dfe(p).state)).outcome
        expected = STABLE if r0 < 1.0 else UNSTABLE
        if verdict != expected:
            findings.append({"params": p.to_dict(), "r0": r0, "verdict": verdict})
    assert checked > 30
    if findings:
        print(f"threshold coherence findings: {findings}")
    assert not findings  # silent disagreement would be a failure; none expected


def test_verdict_coherence_at_equilibria(covid_table):
    from epistab.stability import li_wang_sufficient
    for state in (covid.dfe(covid_table).state, covid.endemic(covid_table).state):
        j = covid.jacobian_closed(covid_table, state)
        exact = li_wang_exact(j).outcome
        for kind in ("one", "two", "inf"):
            suff = li_wang_sufficient(j, kind).outcome
            if suff != INCONCLUSIVE:
                assert suff == exact
