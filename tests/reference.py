"""Reference implementations that only the tests use.

``measure_limit_probe`` evaluates the defining one-sided limit of a Lozinskii
measure, (||I + hA|| - 1)/h, at a finite h, to check the closed formulas in
``epistab.lozinskii`` against the definition.
"""

import numpy as np

from epistab.lozinskii import MeasureKind

_ORD = {MeasureKind.ONE: 1, MeasureKind.TWO: 2, MeasureKind.INF: np.inf}


def induced_norm(a, kind):
    """Operator norm induced by the matching vector norm (1, 2 or inf)."""
    return float(np.linalg.norm(a, _ORD[MeasureKind.coerce(kind)]))


def measure_limit_probe(a, kind, h):
    """Finite-h probe (||I + hA|| - 1)/h of the defining limit.

    For the 1- and inf-norms this equals the measure once h < 1/(1+max|a_ii|)
    up to float rounding; for the 2-norm the gap is O(h * ||A||^2).
    """
    if not 0.0 < h <= 1e-3:
        raise ValueError(f"probe step h must lie in (0, 1e-3], got {h}")
    m = np.asarray(a, dtype=float)
    return (induced_norm(np.eye(m.shape[0]) + h * m, kind) - 1.0) / h
