"""Lozinskii (logarithmic-norm) measures for the three common operator norms.

mu_1 uses column sums, mu_inf row sums, and mu_2 is the spectral abscissa of
the symmetric part (A + A^T)/2.  Each upper-bounds the spectral abscissa:
s(A) <= mu(A), with -mu(-A) the matching lower bound.
"""

from __future__ import annotations

import enum

import numpy as np

from .linalg import as_square


class MeasureKind(enum.Enum):
    ONE = "one"
    TWO = "two"
    INF = "inf"

    @classmethod
    def coerce(cls, kind):
        if isinstance(kind, cls):
            return kind
        return cls(str(kind).lower())


def measure(a, kind):
    """The Lozinskii measure mu_kind(A)."""
    m = as_square(a)
    kind = MeasureKind.coerce(kind)
    off = abs(m) - np.diag(np.diag(abs(m)))
    if kind is MeasureKind.ONE:
        return float((np.diag(m) + off.sum(axis=0)).max())
    if kind is MeasureKind.INF:
        return float((np.diag(m) + off.sum(axis=1)).max())
    w = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(w[-1])
