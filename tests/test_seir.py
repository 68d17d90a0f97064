import numpy as np
import pytest

import epistab.seir as seir
from epistab.compound import add_compound
from epistab.model import jacobian_fd
from epistab.paper_check import j2_dfe_transcribed
from epistab.linalg import determinant, eigenvalues, inverse, spectral_radius
from epistab.stability import STABLE, li_wang_exact


def test_rhs3_examples(seir_figure):
    p = seir_figure
    np.testing.assert_allclose(seir.rhs3(p, [p.Lambda / p.mu, 0.0, 0.0]),
                               np.zeros(3), atol=1e-15)
    # hand expansion at x = (1,1,1): S' = 0.7 - 1.1 - 0.1, I1' = 1.1 - 0.2,
    # I2' = 0.1 - 0.14
    np.testing.assert_allclose(seir.rhs3(p, np.ones(3)), [-0.5, 0.9, -0.04], atol=1e-12)
    p0 = p.replace(beta1=0.0, beta2=0.0)
    np.testing.assert_allclose(seir.rhs3(p0, [1.0, 1.0, 1.0]),
                               [p.Lambda - p.mu, -(p.mu + p.gamma), p.gamma - p.mu - p.d],
                               atol=1e-15)


def test_r0_anchor(seir_figure):
    r0 = seir.r0_seir(seir_figure)
    assert abs(r0 - 30.5) < 1e-9
    fm, vm = seir.seir_ngm_matrices(seir_figure)
    assert abs(r0 - spectral_radius(-fm @ inverse(vm))) < 1e-10
    assert seir.r0_seir(seir_figure.replace(Lambda=0.0)) == 0.0


def test_r0_decreasing_in_mu():
    values = [seir.r0_seir(seir.figure_params(mu)) for mu in np.arange(0.05, 1.0, 0.05)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_endemic_point(seir_figure):
    eq = seir.endemic3(seir_figure)
    s_star = 0.2 / (0.3 + 0.8 * (0.1 / 0.14))
    assert eq.state[0] == pytest.approx(s_star, abs=1e-12)
    assert eq.residual < 1e-10
    assert eq.feasible
    assert eq.state[2] == pytest.approx(seir_figure.delta * eq.state[1], rel=1e-12)


def test_endemic_boundary_reduces_to_dfe():
    p = seir.figure_params(0.1)
    den = p.beta1 + p.beta2 * p.delta
    lam = p.mu * (p.mu + p.gamma) / den  # makes Lambda = mu * S*
    eq = seir.endemic3(p.replace(Lambda=lam))
    assert eq.state[1] == pytest.approx(0.0, abs=1e-14)
    assert eq.state[2] == pytest.approx(0.0, abs=1e-14)
    assert eq.state[0] == pytest.approx(lam / p.mu, rel=1e-12)
    assert not eq.feasible


def test_endemic_scaling_in_lambda(seir_figure):
    eq1 = seir.endemic3(seir_figure)
    eq2 = seir.endemic3(seir_figure.replace(Lambda=2.0 * seir_figure.Lambda))
    assert eq2.state[0] == pytest.approx(eq1.state[0], abs=1e-14)  # S* unchanged
    # I1* is affine in Lambda with slope 1/(mu+gamma)
    slope = (eq2.state[1] - eq1.state[1]) / seir_figure.Lambda
    assert slope == pytest.approx(1.0 / (seir_figure.mu + seir_figure.gamma), rel=1e-10)


def test_jacobian_matches_finite_differences(seir_figure):
    rng = np.random.default_rng(601)
    for _ in range(100):
        x = rng.uniform(0.0, 3.0, size=3)
        gap = abs(seir.jacobian3(seir_figure, x) - jacobian_fd(seir.rhs3, seir_figure, x)).max()
        assert gap < 1e-6


def test_transcribed_compound_display_gap(seir_figure):
    # printed disease-free compound: all entries except (3,3) match exactly;
    # the (3,3) entry omits beta1*Lambda/mu
    p = seir_figure
    printed = j2_dfe_transcribed(p)
    oracle = add_compound(seir.jacobian3(p, seir.dfe3(p).state), 2)
    diff = printed - oracle
    mask = np.ones((3, 3), dtype=bool)
    mask[2, 2] = False
    assert abs(diff[mask]).max() < 1e-12
    assert diff[2, 2] == pytest.approx(-p.beta1 * p.Lambda / p.mu, rel=1e-12)


def test_similarity_preserves_spectrum(seir_figure):
    # the diagonal similarity P J^[2] P^-1 at the endemic point moves no eigenvalue
    end = seir.endemic3(seir_figure)
    s_star, i1_star, i2_star = end.state
    j2 = add_compound(seir.jacobian3(seir_figure, end.state), 2)
    pmat = np.diag([i2_star, i1_star, s_star])
    ev1 = np.sort_complex(eigenvalues(j2))
    ev2 = np.sort_complex(eigenvalues(pmat @ j2 @ inverse(pmat)))
    assert abs(ev1 - ev2).max() < 1e-8


def test_conditions_at_figure_params(seir_figure):
    cond = seir.endemic_conditions(seir_figure)
    assert cond["c1_beta2_lt_gamma_over_delta_sq"] is False
    assert cond["c2_compound_row_sums_negative"] is True
    assert cond["c3_det_negative"] is False


def test_stability_report_structure(seir_figure):
    rep = seir.seir_stability(seir_figure)
    assert rep["r0"] == pytest.approx(30.5, abs=1e-9)
    eq = seir.endemic3(seir_figure)
    assert rep["det_endemic_jacobian"] == pytest.approx(
        np.linalg.det(seir.jacobian3(seir_figure, eq.state)), abs=1e-12)
    assert rep["det_endemic_jacobian"] == pytest.approx(-0.0826, abs=1e-12)
    assert set(rep["conditions"]) == {"c1_beta2_lt_gamma_over_delta_sq",
                                      "c2_compound_row_sums_negative",
                                      "c3_det_negative"}
    assert "row_dominant" in rep["transformed_compound"]
    assert rep["verdicts"]["endemic"]["li_wang_exact"]["outcome"] in (
        "stable", "unstable", "inconclusive")


def test_endemic_conditions_imply_stability():
    # property: on accepted random draws the three conditions imply a stable
    # endemic point; counterexamples are findings, printed with parameters
    rng = np.random.default_rng(602)
    accepted = 0
    findings = []
    for _ in range(4000):
        lam, b1, b2, g, d, mu = rng.uniform(0.01, 1.5, size=6)
        p = seir.SeirParams(Lambda=lam, beta1=b1, beta2=b2, mu=mu, gamma=g, d=d)
        den = p.beta1 + p.beta2 * p.delta
        if p.Lambda * den - p.mu * (p.mu + p.gamma) <= 0:
            continue
        cond = seir.endemic_conditions(p)
        if not all(cond.values()):
            continue
        accepted += 1
        eq = seir.endemic3(p)
        verdict = li_wang_exact(seir.jacobian3(p, eq.state)).outcome
        if verdict != STABLE:
            findings.append({"params": p.to_dict(), "verdict": verdict})
        if accepted >= 150:
            break
    assert accepted >= 100
    if findings:
        print(f"endemic-condition findings: {findings}")
    assert not findings


def test_beta2_zero_makes_first_condition_trivial():
    p = seir.figure_params(0.1).replace(beta2=0.0)
    assert seir.endemic_conditions(p)["c1_beta2_lt_gamma_over_delta_sq"] is True


def test_det_endemic_sign_matches_condition_probe():
    # the proof sketch ties condition c3 to det J < 0; evaluate independently
    rng = np.random.default_rng(603)
    flagged = 0
    cases = 0
    for _ in range(1000):
        lam, b1, b2, g, d, mu = rng.uniform(0.01, 1.5, size=6)
        p = seir.SeirParams(Lambda=lam, beta1=b1, beta2=b2, mu=mu, gamma=g, d=d)
        den = p.beta1 + p.beta2 * p.delta
        if p.Lambda * den - p.mu * (p.mu + p.gamma) <= 0:
            continue
        if not seir.endemic_conditions(p)["c3_det_negative"]:
            continue
        cases += 1
        det_j = determinant(seir.jacobian3(p, seir.endemic3(p).state))
        if det_j >= 0:
            flagged += 1
    assert cases > 50
    print(f"det-sign-under-c3 findings: {flagged}/{cases}")
