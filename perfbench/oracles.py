"""Independent reference computations the benchmark checks outputs against.

Nothing here calls epistab: the models are re-typed from their printed ODEs
in plain Python floats, compounds come from itertools minors and NumPy's
LAPACK determinant, and spectra from ``np.linalg.eigvals``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def covid_rhs(p, x):
    e, i, c, h, d = x
    return (
        p["B"] - p["beta1"] * e * i + p["beta7"] * e * d + p["beta9"] * h
        + p["beta10"] * e * i - p["mu"] * e,
        (p["beta1"] - p["beta10"]) * e * i - (p["beta2"] + p["beta6"] + p["beta8"] + p["mu"]) * i,
        p["beta2"] * i - (p["beta3"] + p["beta5"] + p["mu"]) * c + p["beta4"] * h,
        p["beta3"] * c + p["beta8"] * i - (p["beta4"] + p["beta9"] + p["mu"]) * h,
        p["beta5"] * c + p["beta6"] * i - p["beta7"] * d * e,
    )


def seir_rhs(p, x):
    s, i1, i2 = x
    force = (p["beta1"] * i1 + p["beta2"] * i2) * s
    return (
        p["Lambda"] - force - p["mu"] * s,
        force - (p["mu"] + p["gamma"]) * i1,
        p["gamma"] * i1 - (p["mu"] + p["d"]) * i2,
    )


def rk4_final(rhs, p, x0, dt, steps):
    """Final state of classical RK4 with fixed step dt, in Python floats."""
    x = [float(v) for v in x0]
    for _ in range(steps):
        k1 = rhs(p, x)
        k2 = rhs(p, [a + 0.5 * dt * b for a, b in zip(x, k1)])
        k3 = rhs(p, [a + 0.5 * dt * b for a, b in zip(x, k2)])
        k4 = rhs(p, [a + dt * b for a, b in zip(x, k3)])
        x = [a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    return x


def r0_covid(p):
    alpha = p["beta2"] + p["beta6"] + p["beta8"] + p["mu"]
    return p["beta1"] * p["B"] / (alpha * p["mu"] + p["beta10"] * p["B"])


def r0_seir(p):
    mu, d, gamma = p["mu"], p["d"], p["gamma"]
    return p["Lambda"] * (p["beta1"] * (mu + d) + p["beta2"] * gamma) / (
        mu * (mu + d) * (mu + gamma))


def mult_compound(a, k):
    """C_k(A) from every k x k minor, rows and columns in lexicographic order."""
    idx = np.array(list(itertools.combinations(range(a.shape[0]), k)))
    blocks = a[idx[:, None, :, None], idx[None, :, None, :]]
    return np.linalg.det(blocks)


def add_compound(a, k):
    """A^[k] = d/dh C_k(I + hA) at h = 0.

    C_k(I + hA) is a polynomial of degree k <= 3 in h, so the five-point
    stencil is exact up to rounding; h is scaled to the matrix norm.
    """
    eye = np.eye(a.shape[0])
    h = 1.0 / max(abs(a).max(), 1e-300)
    c = {t: mult_compound(eye + t * h * a, k) for t in (-2, -1, 1, 2)}
    return (8.0 * (c[1] - c[-1]) - (c[2] - c[-2])) / (12.0 * h)


def abscissa(a):
    return float(np.linalg.eigvals(a).real.max())


def compound2_abscissa(a):
    """s(A^[2]): the eigenvalues of A^[2] are the sums lambda_i + lambda_j, i < j."""
    re = np.sort(np.linalg.eigvals(a).real)
    return float(re[-1] + re[-2])


def hadamard(a):
    """Hadamard's bound on |det A|: the product of the row 2-norms."""
    return float(np.prod(np.linalg.norm(a, axis=1)))


def close(got, want, rtol, atol=0.0):
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)
