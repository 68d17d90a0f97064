"""Lozinskii (logarithmic-norm) measures for the three common operator norms.

mu_1 uses column sums, mu_inf row sums, and mu_2 is the spectral abscissa of
the symmetric part (A + A^T)/2.  Each upper-bounds the spectral abscissa:
s(A) <= mu(A), with -mu(-A) the matching lower bound.

``measure`` validates A once and calls the unchecked kernel ``_measure``,
which callers holding a validated matrix call directly.  The kernel builds
only what its kind reads: mu_2 the symmetric part, mu_1 and mu_inf |A| once,
with its diagonal zeroed in place.
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
    return _measure(as_square(a), MeasureKind.coerce(kind))


def _measure(m, kind):
    """mu_kind(M) of an already validated square M and a ``MeasureKind``."""
    if kind is MeasureKind.TWO:
        return float(np.linalg.eigvalsh((m + m.T) / 2.0)[-1])
    off = np.abs(m, order="C")  # C order: the sums below add in the same order for any layout
    off.ravel()[::len(m) + 1] = 0.0  # the bits of |m| - diag(diag(|m|)): |a_ii| - |a_ii| is +0.0
    return float((m.diagonal() + off.sum(axis=0 if kind is MeasureKind.ONE else 1)).max())
