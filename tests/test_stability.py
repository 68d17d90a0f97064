import numpy as np
import pytest

import epistab.linalg as linalg
import epistab.stability as stability
from epistab.cli import _json
from epistab.compound import add_compound
from epistab.linalg import (
    determinant,
    eigenvalues,
    inverse,
    solve,
    spectral_abscissa,
    spectral_radius,
)
from epistab.stability import (
    INCONCLUSIVE,
    ONE_REAL_TWO_COMPLEX,
    REPEATED_ROOT,
    STABLE,
    THREE_REAL,
    UNSTABLE,
    cardano,
    criterion_verdicts,
    cubic_stability,
    det_bounds,
    dominance,
    hurwitz_exact,
    li_wang_exact,
    li_wang_sufficient,
    m_matrix,
    price_bounds,
    schur_sufficient,
)
from epistab.lozinskii import MeasureKind

from conftest import companion_roots, match_multisets


def test_hurwitz_examples():
    assert hurwitz_exact(np.diag([-1.0, -2.0])).outcome == STABLE
    assert hurwitz_exact(np.diag([1.0, -2.0])).outcome == UNSTABLE
    v = hurwitz_exact(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert v.outcome == INCONCLUSIVE
    assert v.abscissa == pytest.approx(0.0, abs=1e-9)


def test_li_wang_exact_examples():
    v = li_wang_exact(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]))
    assert v.outcome == STABLE
    assert v.det_sign == pytest.approx(120.0)
    assert v.abscissa == pytest.approx(-3.0, abs=1e-9)
    assert li_wang_exact(np.diag([1.0, -2.0, -3.0])).outcome == UNSTABLE
    with pytest.raises(ValueError):
        li_wang_exact(np.eye(7))


def test_li_wang_exact_agrees_with_hurwitz():
    rng = np.random.default_rng(401)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(3, 6))
        a = rng.normal(size=(n, n))
        s = spectral_abscissa(a)
        if abs(s) <= 1e-6:
            continue
        checked += 1
        expected = STABLE if s < 0 else UNSTABLE
        assert li_wang_exact(a).outcome == expected
    assert checked > 350


def test_li_wang_sufficient_examples():
    v = li_wang_sufficient(np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]), "one")
    assert v.outcome == STABLE
    assert v.measure_value < 0
    for kind in ("one", "two", "inf"):
        assert li_wang_sufficient(np.diag([1.0, -2.0, -3.0]), kind).outcome == UNSTABLE


def test_li_wang_sufficient_can_be_inconclusive_on_stable_input():
    # rejection-sample a Hurwitz-stable matrix whose one-measure on the
    # compound is positive: the fixed measure is only sufficient
    rng = np.random.default_rng(77)
    for _ in range(2000):
        a = rng.normal(size=(5, 5)) - 1.2 * np.eye(5)
        if spectral_abscissa(a) < -1e-6:
            v = li_wang_sufficient(a, "one")
            if v.outcome == INCONCLUSIVE:
                assert li_wang_exact(a).outcome == STABLE
                return
    pytest.fail("no stable matrix with positive one-measure compound found")


def test_li_wang_sufficient_soundness():
    rng = np.random.default_rng(402)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        exact = hurwitz_exact(a).outcome
        if exact == INCONCLUSIVE:
            continue
        for kind in ("one", "two", "inf"):
            suff = li_wang_sufficient(a, kind).outcome
            if suff != INCONCLUSIVE:
                assert suff == exact


def test_criterion_verdicts_equal_the_verdicts_one_at_a_time():
    # criterion_verdicts shares one det A and one A^[2] across its four
    # Li-Wang verdicts; its report must be byte for byte the one built by
    # calling each public verdict on its own
    rng = np.random.default_rng(18)
    for i in range(250):
        n = 2 + i % 5
        kind = (i // 5) % 4
        if kind == 0:
            a = rng.normal(size=(n, n))
        elif kind == 1:  # exactly singular integer matrix
            a = rng.integers(-4, 5, size=(n, n)).astype(float)
            a[-1] = 2.0 * a[0] - (a[1] if n > 2 else 0.0)
        elif kind == 2:  # signed zeros in place of some entries
            a = rng.normal(size=(n, n))
            zeros = rng.random((n, n)) < 0.4
            a[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        else:  # stable, with every margin of the same order
            a = -0.01 * np.eye(n) + 0.001 * np.triu(np.ones((n, n)), 1)
        a = a * 2.0 ** int(rng.integers(-10, 11))
        alone = {
            "hurwitz": hurwitz_exact(a).to_dict(),
            "li_wang_exact": li_wang_exact(a).to_dict(),
            "li_wang_sufficient": {k.value: li_wang_sufficient(a, k).to_dict()
                                   for k in MeasureKind},
        }
        assert _json(criterion_verdicts(a, determinant(a), add_compound(a, 2))) == _json(alone)


def test_column_dominance_linkage():
    # negative-dominant diagonal makes the one-measure certificate fire
    rng = np.random.default_rng(403)
    hits = 0
    for _ in range(100):
        n = int(rng.integers(3, 6))
        a = rng.normal(size=(n, n)) - (2.0 * n) * np.eye(n)
        a2 = add_compound(a, 2)
        sgn = (-1.0) ** n * determinant(a)
        if dominance(a2, "cols") and np.diag(a2).max() < 0 and sgn > 0:
            hits += 1
            assert li_wang_sufficient(a, "one").outcome == STABLE
    assert hits > 50


def test_dominance_examples():
    assert dominance(np.eye(2), "rows") and dominance(np.eye(2), "cols")
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert not dominance(a, "rows")
    assert not dominance(a, "cols")
    b = np.array([[-3.0, 1.0], [2.0, -4.0]])
    assert dominance(b, "rows") and dominance(b, "cols")
    with pytest.raises(ValueError):
        dominance(np.eye(2), "diag")


def test_dominant_matrices_nonsingular_with_gershgorin():
    rng = np.random.default_rng(404)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(n, n))
        signs = rng.choice([-1.0, 1.0], size=n)
        for i in range(n):
            a[i, i] = signs[i] * (abs(a[i]).sum() - abs(a[i, i]) + rng.uniform(0.05, 1.0))
        assert dominance(a, "rows")
        assert abs(determinant(a)) > 0
        # every eigenvalue lies in the union of the row Gershgorin discs
        radii = (abs(a) - np.diag(np.diag(abs(a)))).sum(axis=1)
        dist = abs(eigenvalues(a)[:, None] - np.diag(a)[None, :])
        assert (dist <= radii + 1e-8).any(axis=1).all()


def _random_dominant(rng, n):
    a = rng.normal(size=(n, n))
    for i in range(n):
        a[i, i] = abs(a[i]).sum() - abs(a[i, i]) + rng.uniform(0.0, 2.0)
    return a


def test_det_bounds_examples():
    lo, hi = det_bounds(np.eye(3))
    assert (lo, hi) == (1.0, 1.0)
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    lo, hi = det_bounds(a)
    assert lo == pytest.approx(2.0)
    assert hi >= 3.0
    assert lo - 1e-12 <= determinant(a) <= hi + 1e-12
    plo, phi = price_bounds(a)
    assert plo - 1e-12 <= 3.0 <= phi + 1e-12


def test_det_bounds_precondition_and_split_validation():
    with pytest.raises(ValueError):
        det_bounds(np.array([[1.0, 2.0], [0.0, 1.0]]))  # violates row dominance
    with pytest.raises(ValueError):
        det_bounds(np.array([[-2.0, 1.0], [0.0, 2.0]]))  # negative diagonal


def test_det_bounds_bracket_on_random_dominant():
    rng = np.random.default_rng(405)
    findings = []
    for trial in range(200):
        n = int(rng.integers(2, 7))
        a = _random_dominant(rng, n)
        d = determinant(a)
        lo, hi = det_bounds(a)
        plo, phi = price_bounds(a)
        assert plo - 1e-9 <= d <= phi + 1e-9
        if not lo - 1e-9 <= d <= hi + 1e-9:
            findings.append((trial, lo, d, hi))
    if findings:  # emitted, not fatal: the coarser split bounds may be loose
        print(f"det_bounds findings: {findings}")


def test_cardano_examples():
    r = cardano(1.0, 0.0, 0.0, 0.0)
    assert r.klass == REPEATED_ROOT
    assert max(abs(z) for z in r.roots) < 1e-12
    r = cardano(1.0, -6.0, 11.0, -6.0)
    assert r.klass == THREE_REAL
    assert match_multisets(r.roots, [1.0, 2.0, 3.0]) < 1e-9
    r = cardano(1.0, 0.0, 1.0, 0.0)
    assert r.klass == ONE_REAL_TWO_COMPLEX
    assert match_multisets(r.roots, [0.0, 1j, -1j]) < 1e-12
    with pytest.raises(ValueError):
        cardano(0.0, 1.0, 1.0, 1.0)


def test_cardano_against_companion_matrix():
    rng = np.random.default_rng(406)
    for _ in range(300):
        coeffs = rng.uniform(-10.0, 10.0, size=4)
        if abs(coeffs[0]) < 0.1:
            coeffs[0] = 1.0
        got = cardano(*coeffs)
        expected = companion_roots(coeffs)
        assert match_multisets(got.roots, expected) < 1e-8
        n_real = sum(1 for z in expected if abs(z.imag) < 1e-10)
        if got.klass == THREE_REAL:
            assert n_real == 3
        elif got.klass == ONE_REAL_TWO_COMPLEX:
            assert n_real == 1


def test_cubic_stability_examples():
    assert cubic_stability(6.0, 11.0, 6.0).outcome == STABLE  # roots -1,-2,-3
    assert cubic_stability(-6.0, 11.0, -6.0).outcome == UNSTABLE  # roots 1,2,3
    v = cubic_stability(0.0, 1.0, 0.0)  # roots 0, +-i: marginal, fails a1 > 0
    assert v.outcome != STABLE
    assert v.cubic_class == ONE_REAL_TWO_COMPLEX


def test_cubic_class_without_solving_matches_cardano():
    rng = np.random.default_rng(1404)
    triples = [tuple(rng.uniform(-5.0, 5.0, 3)) for _ in range(600)]
    triples += [tuple(rng.uniform(-1e3, 1e3, 3)) for _ in range(200)]
    triples += [tuple(float(k) for k in rng.integers(-6, 7, 3)) for _ in range(300)]
    # exact repeated roots: (x-1)^2 (x-2), the triple roots at 0 and at 10, (x+2)^3
    triples += [(-4.0, 5.0, -2.0), (0.0, 0.0, 0.0), (-30.0, 300.0, -1000.0), (6.0, 12.0, 8.0)]
    # at (-4, 5, -2) the discriminant grows as 4 (a3 + 2), and the band is 1e-10 * 6^4
    near = [(-4.0, 5.0, -2.0 + f * 1e-10 * 6.0 ** 4 / 4.0) for f in (-2.0, -0.5, 0.5, 2.0)]
    for a1, a2, a3 in triples + near:
        v = cubic_stability(a1, a2, a3)
        r = cardano(1.0, a1, a2, a3)
        assert (v.discriminant, v.cubic_class) == (r.discriminant, r.klass)
    assert [cubic_stability(*t).cubic_class for t in near] == [
        ONE_REAL_TWO_COMPLEX, REPEATED_ROOT, REPEATED_ROOT, THREE_REAL]


def test_cubic_stability_agrees_with_roots():
    rng = np.random.default_rng(407)
    for _ in range(300):
        a1, a2, a3 = rng.uniform(-10.0, 10.0, size=3)
        v = cubic_stability(a1, a2, a3)
        worst = max(z.real for z in cardano(1.0, a1, a2, a3).roots)
        if v.outcome == STABLE:
            assert worst < 1e-7
        elif v.outcome == UNSTABLE:
            assert worst > -1e-7


def test_sector_condition_evaluated_and_flagged():
    # hypotheses: discriminant < 0, a1 < 0, a2 < 0; the claimed conclusion
    # |arg(root)| < pi/2 is checked and violations are reported as findings
    rng = np.random.default_rng(408)
    findings = 0
    cases = 0
    for _ in range(500):
        a1, a2, a3 = rng.uniform(-8.0, 8.0, size=3)
        r = cardano(1.0, a1, a2, a3)
        if r.discriminant < -1e-8 and a1 < -1e-8 and a2 < -1e-8:
            cases += 1
            if any(abs(np.angle(z)) >= np.pi / 2 - 1e-12 for z in r.roots):
                findings += 1
    assert cases > 10
    print(f"sector-condition findings: {findings}/{cases} hypothesis cases violated")


def test_schur_examples():
    assert schur_sufficient(0.5 * np.eye(2)) is True
    assert schur_sufficient(2.0 * np.eye(2)) is False


def test_schur_agrees_with_spectral_radius():
    rng = np.random.default_rng(409)
    for _ in range(300):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        target = rng.uniform(0.2, 1.8)
        if abs(target - 1.0) < 1e-3:
            target = 1.2
        a *= target / spectral_radius(a)
        assert schur_sufficient(a) == (spectral_radius(a) < 1.0)


def test_m_matrix_examples():
    flags = m_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert flags.z_pattern and flags.leading_minors_positive
    assert flags.inverse_nonnegative and flags.dominant_after_scaling
    assert flags.is_nonsingular_m

    flags = m_matrix(np.array([[1.0, -3.0], [-3.0, 1.0]]))
    assert flags.z_pattern
    assert not flags.leading_minors_positive
    assert not flags.inverse_nonnegative
    assert not flags.is_nonsingular_m

    assert m_matrix(np.eye(3)).is_nonsingular_m


def test_m_matrix_singular_is_reported_not_raised():
    flags = m_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert not flags.inverse_nonnegative
    assert "singular" in flags.note
    # rank 3 of 4: the Z-pattern and minor flags are still evaluated
    a = np.array([[2.0, -1.0, 0.0, -1.0], [-1.0, 2.0, -1.0, 0.0],
                  [0.0, -1.0, 2.0, -1.0], [-1.0, 0.0, -1.0, 2.0]])
    flags = m_matrix(a)
    assert flags.z_pattern and not flags.inverse_nonnegative and not flags.dominant_after_scaling
    assert flags.note == "singular: inverse-based conditions reported false"


def test_m_matrix_takes_one_elimination(monkeypatch):
    # A^-1 and the scaling solve A x = 1 share one LU of [A | I | 1], and each
    # has the bits that inverse and solve give on their own
    lu, calls = linalg._lu_solve, []

    def spy(*args):
        calls.append(lu(*args))
        return calls[-1]

    monkeypatch.setattr(linalg, "_lu_solve", spy)
    monkeypatch.setattr(stability, "_lu_solve", spy, raising=False)
    rng = np.random.default_rng(411)
    for n in range(1, 11):
        for a in (_random_dominant_z(rng, n), rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3)):
            calls.clear()
            m_matrix(a)
            assert len(calls) == 1
            inv, x = calls[0]
            assert inv.tobytes() == inverse(a).tobytes()
            assert x.ravel().tobytes() == solve(a, np.ones(n)).tobytes()


def _random_dominant_z(rng, n):
    a = -abs(rng.normal(size=(n, n)))
    np.fill_diagonal(a, 0.0)
    diag = abs(a).sum(axis=1) + rng.uniform(0.05, 2.0, size=n)
    signs = rng.choice([-1.0, 1.0], size=n, p=[0.3, 0.7])
    np.fill_diagonal(a, signs * diag)
    return a


def test_z_matrix_minors_iff_inverse_nonnegative():
    rng = np.random.default_rng(410)
    both = {True: 0, False: 0}
    for _ in range(100):
        n = int(rng.integers(2, 6))
        a = _random_dominant_z(rng, n)
        assert dominance(a, "rows")
        flags = m_matrix(a)
        assert flags.z_pattern
        assert flags.leading_minors_positive == flags.inverse_nonnegative
        both[flags.leading_minors_positive] += 1
    assert both[True] > 0 and both[False] > 0
