"""Acceptance criteria.

Each criterion is a standalone function that raises AssertionError on
failure and returns a one-line summary; the pytest wrappers print one
PASS/FAIL line per criterion (visible with ``pytest -s``).  The module also
runs directly: ``python tests/test_acceptance.py``.

All tolerances are pinned here, none are calibrated at run time.
"""

import itertools
import sys

import numpy as np

import epistab.covid as covid
import epistab.seir as seir
from epistab.compound import add_compound, add_compound2_closed, mult_compound
from epistab.linalg import determinant, eigenvalues, inverse, spectral_abscissa, spectral_radius
from epistab.lozinskii import MeasureKind, measure
from epistab.model import jacobian_fd
from epistab.paper_check import reduced_ngm_matrices
from epistab.sim import integrate
from epistab.stability import (
    ONE_REAL_TWO_COMPLEX,
    REPEATED_ROOT,
    STABLE,
    THREE_REAL,
    UNSTABLE,
    cardano,
    det_bounds,
    dominance,
    li_wang_exact,
    m_matrix,
    price_bounds,
)

from conftest import match_multisets
from reference import measure_limit_probe


def criterion_01_compound_spectral_laws():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(5, 5))
        ev = eigenvalues(a)
        sums = [x + y for x, y in itertools.combinations(ev, 2)]
        prods = [x * y for x, y in itertools.combinations(ev, 2)]
        worst = max(worst, match_multisets(eigenvalues(add_compound(a, 2)), sums))
        worst = max(worst, match_multisets(eigenvalues(mult_compound(a, 2)), prods))
    assert worst < 1e-7, f"worst matched deviation {worst:.3e}"
    return f"eigenvalue sum/product laws, 200 matrices, worst deviation {worst:.2e}"


def criterion_02_binet_cauchy():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        for k in (2, 3):
            gap = abs(mult_compound(a @ b, k)
                      - mult_compound(a, k) @ mult_compound(b, k)).max()
            worst = max(worst, gap)
    assert worst < 1e-9, f"worst entrywise gap {worst:.3e}"
    return f"C_k(AB) = C_k(A) C_k(B) for k in {{2,3}}, 200 pairs, worst gap {worst:.2e}"


def criterion_03_li_wang_exactness():
    rng = np.random.default_rng(1003)
    checked = 0
    produced = 0
    while checked < 1000:
        produced += 1
        assert produced < 5000, "generator starved"
        n = int(rng.integers(3, 6))
        a = rng.normal(size=(n, n))
        s = spectral_abscissa(a)
        if abs(s) <= 1e-6:
            continue
        checked += 1
        expected = STABLE if s < 0 else UNSTABLE
        got = li_wang_exact(a).outcome
        assert got == expected, f"disagreement at s={s:.3e}: {got} vs {expected}"
    return "criterion equivalence vs spectral abscissa, 1000/1000 matrices agree"


def criterion_04_lozinskii_bounds():
    rng = np.random.default_rng(1004)
    worst_gap = 0.0
    worst_probe_12 = 0.0
    worst_probe_2 = 0.0
    for i in range(500):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        s = spectral_abscissa(a)
        for kind in MeasureKind:
            assert s <= measure(a, kind) + 1e-9
        sym = (a + a.T) / 2.0
        gap = abs(measure(a, "two") - spectral_abscissa(sym))
        worst_gap = max(worst_gap, gap)
        if i < 100:
            for kind in (MeasureKind.ONE, MeasureKind.INF):
                worst_probe_12 = max(worst_probe_12, abs(
                    measure_limit_probe(a, kind, 1e-6) - measure(a, kind)))
            worst_probe_2 = max(worst_probe_2, abs(
                measure_limit_probe(a, "two", 1e-6) - measure(a, "two")))
    assert worst_gap < 1e-9
    assert worst_probe_12 < 1e-9, f"one/inf probe gap {worst_probe_12:.3e}"
    assert worst_probe_2 < 1e-4, f"two probe gap {worst_probe_2:.3e}"
    return (f"s(A) <= mu(A) on 500 matrices; probe gaps "
            f"{worst_probe_12:.1e} (1/inf), {worst_probe_2:.1e} (2)")


def criterion_05_closed_templates():
    rng = np.random.default_rng(1005)
    for n in (3, 4, 5):
        for _ in range(1000):
            a = rng.normal(size=(n, n))
            assert np.array_equal(add_compound2_closed(a), add_compound(a, 2)), \
                f"template mismatch at n={n}"
    return "closed-form templates identical to the general rule, 1000 matrices each n"


def criterion_06_covid_equilibria():
    p = covid.table_params(0.1)
    point = covid.dfe(p)
    assert point.state[0] == 80.0 and (point.state[1:] == 0.0).all()
    end = covid.endemic(p)
    assert abs(end.state[0] - 1.01 / 0.45) < 1e-12
    res = abs(covid.rhs(p, end.state)).max()
    assert res < 1e-10, f"endemic residual {res:.3e}"
    return f"DFE exact, E* within 1e-12, endemic residual {res:.1e}"


def criterion_07_r0_anchor():
    p = covid.table_params(0.1)
    r0 = covid.r0_reduced(p)
    assert abs(r0 - 0.44 / 0.0901) < 1e-12
    fm, vm = reduced_ngm_matrices(p)
    assert abs(r0 - spectral_radius(fm @ inverse(vm))) < 1e-10
    r0_full = covid.r0_full(p, covid.dfe(p).state)
    assert abs(r0_full - r0) < 1e-8
    sweep = [covid.r0_reduced(p.replace(mu=0.005 + 0.015 * k)) for k in range(50)]
    assert all(x > y for x, y in zip(sweep, sweep[1:])), "sweep not strictly decreasing"
    return f"R0 = {r0:.6f} matches 0.44/0.0901, NGM oracles agree, mu-sweep decreasing"


def criterion_08_seir_anchor():
    sp = seir.figure_params(0.1)
    r0 = seir.r0_seir(sp)
    assert abs(r0 - 30.5) < 1e-9
    fm, vm = seir.seir_ngm_matrices(sp)
    assert abs(r0 - spectral_radius(-fm @ inverse(vm))) < 1e-10
    return f"three-compartment R0 = {r0:.3f} matches 30.5 and its NGM oracle"


def criterion_09_cardano():
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(500):
        coeffs = rng.uniform(-10.0, 10.0, size=4)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 1.0
        got = cardano(*coeffs)
        expected = np.roots(coeffs)
        worst = max(worst, match_multisets(got.roots, expected))
        n_real = int(sum(1 for z in expected if abs(z.imag) < 1e-10))
        if got.klass == THREE_REAL:
            assert n_real == 3
        elif got.klass == ONE_REAL_TWO_COMPLEX:
            assert n_real == 1
        else:
            assert got.klass == REPEATED_ROOT
    assert worst < 1e-8, f"worst root deviation {worst:.3e}"
    return f"500 cubics vs companion eigenvalues, worst deviation {worst:.2e}"


def criterion_10_jacobian_oracle():
    from epistab.paper_check import build_report
    p = covid.table_params(0.1)
    sp = seir.figure_params(0.1)
    rng = np.random.default_rng(1010)
    for _ in range(100):
        x5 = rng.uniform(0.0, 3.0, size=5)
        assert abs(covid.jacobian_closed(p, x5) - jacobian_fd(covid.rhs, p, x5)).max() < 1e-6
        x3 = rng.uniform(0.0, 3.0, size=3)
        assert abs(seir.jacobian3(sp, x3) - jacobian_fd(seir.rhs3, sp, x3)).max() < 1e-6
    claims = {c.claim_id: c for c in build_report(p, sp)}
    for cid in ("covid_jacobian_entry_2_1", "covid_jacobian_entry_3_3",
                "covid_jacobian_entry_4_4", "covid_sum_identity_all_compartments"):
        assert claims[cid].verdict == "flagged" and claims[cid].max_abs_diff > 0.0, cid
    assert claims["seir_jacobian"].verdict == "match"
    return "closed vs FD Jacobians < 1e-6 (both models); required transcription flags raised"


def criterion_11_integrator():
    p_lin = covid.CovidParams(B=0.8, mu=0.01, **{f"beta{i}": 0.0 for i in range(1, 11)})
    x0 = np.array([1.0, 0.7, 0.3, 0.2, 0.5])
    traj = integrate(lambda x: covid.rhs(p_lin, x), x0, dt=0.01, t_end=10.0)
    decay = np.exp(-0.01 * 10.0)
    expected = np.array([80.0 + (x0[0] - 80.0) * decay, 0.7 * decay,
                         0.3 * decay, 0.2 * decay, 0.5])
    err = abs(traj.states[-1] - expected).max()
    assert err < 1e-8, f"closed-form error {err:.3e}"

    p_stiff = covid.CovidParams(B=0.8, mu=1.0, **{f"beta{i}": 0.0 for i in range(1, 11)})
    x1 = np.array([1.4, 0.9, 0.6, 0.3, 0.7])
    decay = np.exp(-1.0 * 5.0)
    exact = np.array([0.8 + (x1[0] - 0.8) * decay, 0.9 * decay, 0.6 * decay,
                      0.3 * decay, 0.7])
    f = lambda x: covid.rhs(p_stiff, x)
    e1 = abs(integrate(f, x1, 0.1, 5.0).states[-1] - exact).max()
    e2 = abs(integrate(f, x1, 0.05, 5.0).states[-1] - exact).max()
    ratio = e1 / e2
    assert 12.0 <= ratio <= 20.0, f"order ratio {ratio:.2f}"

    p = covid.table_params(0.1)
    rng = np.random.default_rng(1011)
    starts = rng.uniform(0.0, 5.0, size=(100, 5))
    batch = integrate(lambda x: covid.rhs(p, x), starts, dt=0.005, t_end=50.0)
    min_component = float(batch.states.min())
    assert min_component > -1e-9, f"positivity violated: {min_component:.3e}"
    return (f"RK4 error {err:.1e} at dt=0.01, order ratio {ratio:.1f}, "
            f"min component over 100 starts {min_component:.2e}")


def criterion_12_determinant_bounds():
    rng = np.random.default_rng(1012)
    findings = []
    for trial in range(500):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        for i in range(n):
            a[i, i] = abs(a[i]).sum() - abs(a[i, i]) + rng.uniform(0.0, 2.0)
        d = determinant(a)
        plo, phi = price_bounds(a)
        assert plo - 1e-9 <= d <= phi + 1e-9, f"price bound violated at trial {trial}"
        lo, hi = det_bounds(a)
        if not lo - 1e-9 <= d <= hi + 1e-9:
            findings.append((trial, lo, d, hi))
    for f in findings:
        print(f"  det_bounds finding: trial={f[0]} lower={f[1]:.6g} "
              f"det={f[2]:.6g} upper={f[3]:.6g}")
    return (f"price bounds bracket det on 500 dominant matrices; "
            f"{len(findings)} split-bound findings")


def criterion_13_schur():
    from epistab.stability import schur_sufficient
    rng = np.random.default_rng(1013)
    for _ in range(500):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        target = rng.uniform(0.2, 1.8)
        if abs(target - 1.0) < 1e-6:
            target = 1.2
        a *= target / spectral_radius(a)
        assert schur_sufficient(a) == (spectral_radius(a) < 1.0), \
            f"disagreement at rho={spectral_radius(a):.6f}"
    return "second-compound Schur test agrees with rho(A) < 1 on 500 matrices"


def criterion_14_m_matrix_coherence():
    rng = np.random.default_rng(1014)
    seen = {True: 0, False: 0}
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = -abs(rng.normal(size=(n, n)))
        np.fill_diagonal(a, 0.0)
        diag = abs(a).sum(axis=1) + rng.uniform(0.05, 2.0, size=n)
        signs = rng.choice([-1.0, 1.0], size=n, p=[0.3, 0.7])
        np.fill_diagonal(a, signs * diag)
        assert dominance(a, "rows")
        flags = m_matrix(a)
        assert flags.leading_minors_positive == flags.inverse_nonnegative
        seen[flags.leading_minors_positive] += 1
    assert seen[True] > 0 and seen[False] > 0
    return (f"leading minors <=> nonnegative inverse on 200 dominant Z-matrices "
            f"({seen[True]} M, {seen[False]} non-M)")


def criterion_15_threshold_coherence():
    rng = np.random.default_rng(1015)
    findings = []
    checked = 0
    produced = 0
    while checked < 200:
        produced += 1
        assert produced < 4000, "generator starved"
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
            findings.append({"r0": r0, "verdict": verdict, "params": p.to_dict()})
    for f in findings:
        print(f"  threshold finding: {f}")
    assert not findings, "threshold verdicts disagreed with the exact criterion"
    return "R0 threshold matches the exact criterion on 200/200 parameter draws"


CRITERIA = [
    criterion_01_compound_spectral_laws,
    criterion_02_binet_cauchy,
    criterion_03_li_wang_exactness,
    criterion_04_lozinskii_bounds,
    criterion_05_closed_templates,
    criterion_06_covid_equilibria,
    criterion_07_r0_anchor,
    criterion_08_seir_anchor,
    criterion_09_cardano,
    criterion_10_jacobian_oracle,
    criterion_11_integrator,
    criterion_12_determinant_bounds,
    criterion_13_schur,
    criterion_14_m_matrix_coherence,
    criterion_15_threshold_coherence,
]


def _run(fn):
    label = fn.__name__.replace("criterion_", "").replace("_", " ")
    num = label.split(" ", 1)[0]
    try:
        summary = fn()
    except AssertionError as exc:
        print(f"ACCEPTANCE {num} FAIL: {exc}")
        raise
    print(f"ACCEPTANCE {num} PASS: {summary}")


def test_criterion_01():
    _run(criterion_01_compound_spectral_laws)


def test_criterion_02():
    _run(criterion_02_binet_cauchy)


def test_criterion_03():
    _run(criterion_03_li_wang_exactness)


def test_criterion_04():
    _run(criterion_04_lozinskii_bounds)


def test_criterion_05():
    _run(criterion_05_closed_templates)


def test_criterion_06():
    _run(criterion_06_covid_equilibria)


def test_criterion_07():
    _run(criterion_07_r0_anchor)


def test_criterion_08():
    _run(criterion_08_seir_anchor)


def test_criterion_09():
    _run(criterion_09_cardano)


def test_criterion_10():
    _run(criterion_10_jacobian_oracle)


def test_criterion_11():
    _run(criterion_11_integrator)


def test_criterion_12():
    _run(criterion_12_determinant_bounds)


def test_criterion_13():
    _run(criterion_13_schur)


def test_criterion_14():
    _run(criterion_14_m_matrix_coherence)


def test_criterion_15():
    _run(criterion_15_threshold_coherence)


if __name__ == "__main__":
    failed = 0
    for fn in CRITERIA:
        try:
            _run(fn)
        except AssertionError:
            failed += 1
    sys.exit(1 if failed else 0)
