import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from epistab import figure_params, table_params


@pytest.fixture
def covid_table():
    return table_params(beta10=0.1)


@pytest.fixture
def seir_figure():
    return figure_params(mu=0.1)


def match_multisets(xs, ys):
    """Worst matched distance between two complex multisets (optimal pairing)."""
    xs = np.asarray(xs, dtype=complex)
    ys = np.asarray(ys, dtype=complex)
    assert xs.shape == ys.shape
    cost = abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def companion_roots(coeffs):
    """Polynomial roots via the companion-matrix eigenvalues (independent oracle)."""
    return np.roots(coeffs)


def byte_cases(rng, n):
    """Seeded n x n inputs for byte-for-byte oracle tests, each as
    (name, array): plain, signed zeros, subnormals and small integers (so
    that sums tie), each C-ordered, Fortran-ordered and a non-contiguous view."""
    plain = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 3, size=(n, n))
    zeros = rng.normal(size=(n, n))
    zeros[rng.random((n, n)) < 0.5] = -0.0
    zeros[rng.random((n, n)) < 0.25] = 0.0
    subnormal = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-320, -305, size=(n, n))
    ties = rng.integers(-3, 4, size=(n, n)).astype(float)
    for name, a in (("plain", plain), ("zeros", zeros), ("subnormal", subnormal), ("ties", ties)):
        wide = np.zeros((2 * n, 2 * n))
        wide[::2, ::2] = a
        yield from ((name, a), (name + " F", np.asfortranarray(a)), (name + " strided", wide[::2, ::2]))
