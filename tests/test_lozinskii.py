import numpy as np
import pytest

from epistab.linalg import eigenvalues, spectral_abscissa
from epistab.lozinskii import MeasureKind, measure

from reference import induced_norm, measure_limit_probe

KINDS = (MeasureKind.ONE, MeasureKind.TWO, MeasureKind.INF)


def test_measure_examples():
    z = np.zeros((3, 3))
    for kind in KINDS:
        assert measure(z, kind) == pytest.approx(0.0, abs=1e-12)
        assert measure(np.eye(3), kind) == pytest.approx(1.0, abs=1e-12)
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    assert measure(a, "inf") == pytest.approx(-1.0, abs=1e-12)
    assert measure(a, "one") == pytest.approx(-2.0, abs=1e-12)
    assert measure(a, "two") == pytest.approx(-2.5 + np.sqrt(2.0) / 2.0, abs=1e-12)


def test_measure_kind_coercion():
    assert MeasureKind.coerce("ONE") is MeasureKind.ONE
    with pytest.raises(ValueError):
        MeasureKind.coerce("three")


def test_probe_examples():
    z = np.zeros((3, 3))
    for kind in KINDS:
        assert measure_limit_probe(z, kind, 1e-6) == pytest.approx(0.0, abs=1e-12)
    a = np.array([[-2.0, 1.0], [0.0, -3.0]])
    assert measure_limit_probe(a, "inf", 1e-6) == pytest.approx(-1.0, abs=1e-9)
    with pytest.raises(ValueError):
        measure_limit_probe(a, "inf", 0.1)


def test_probe_matches_closed_formulas():
    rng = np.random.default_rng(301)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        for kind in (MeasureKind.ONE, MeasureKind.INF):
            assert measure_limit_probe(a, kind, 1e-6) == pytest.approx(
                measure(a, kind), abs=1e-9)
        assert measure_limit_probe(a, "two", 1e-6) == pytest.approx(
            measure(a, "two"), abs=1e-4)


def test_eigenvalue_bounds():
    rng = np.random.default_rng(302)
    for _ in range(30):
        n = rng.integers(2, 7)
        a = rng.normal(size=(n, n))
        ev = eigenvalues(a)
        for kind in KINDS:
            hi = measure(a, kind)
            lo = -measure(-a, kind)
            assert (ev.real <= hi + 1e-9).all()
            assert (ev.real >= lo - 1e-9).all()


def test_subadditivity_and_shift_law():
    rng = np.random.default_rng(303)
    for _ in range(25):
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        alpha = rng.uniform(0.0, 3.0)
        xi = rng.normal()
        for kind in KINDS:
            assert measure(a + b, kind) <= measure(a, kind) + measure(b, kind) + 1e-9
            assert measure(alpha * a + xi * np.eye(4), kind) == pytest.approx(
                alpha * measure(a, kind) + xi, abs=1e-9)


def test_norm_sandwich_and_nonnegativity():
    rng = np.random.default_rng(304)
    for _ in range(25):
        a = rng.normal(size=(5, 5))
        for kind in KINDS:
            nrm = induced_norm(a, kind)
            m_pos = measure(a, kind)
            m_neg = measure(-a, kind)
            assert -nrm - 1e-9 <= -m_neg <= m_pos <= nrm + 1e-9
            assert m_pos + m_neg >= -1e-9


def test_symmetric_two_measure_is_abscissa():
    rng = np.random.default_rng(305)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        s = (a + a.T) / 2.0
        assert measure(s, "two") == pytest.approx(spectral_abscissa(s), abs=1e-9)
