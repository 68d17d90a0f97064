"""Scaffolding shared by the two epidemic models.

Both models hand their right-hand side ``rhs(p, x)`` to the helpers here:
validated rate parameters, residual-gated equilibria, population states and
the central-difference Jacobian that serves as the ground-truth oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

RESIDUAL_RTOL = 1e-10


class InfeasibleError(ValueError):
    """A requested equilibrium or ratio does not exist for these parameters."""


class Params:
    """Base for a model's frozen rate dataclass (per day): every field
    finite and >= 0.  ``MISSING_NOTE`` ends the missing-parameters message.
    """

    MISSING_NOTE = ""

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"parameter {f.name} must be finite and >= 0, got {v}")

    @classmethod
    def keys(cls):
        """Parameter names in field order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_dict(cls, d):
        keys = cls.keys()
        missing = [k for k in keys if k not in d]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}{cls.MISSING_NOTE}")
        extra = [k for k in d if k not in keys]
        if extra:
            raise ValueError(f"unknown parameters: {', '.join(sorted(extra))}")
        return cls(**{k: float(d[k]) for k in keys})

    def to_dict(self):
        return {k: getattr(self, k) for k in self.keys()}

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class Equilibrium:
    state: np.ndarray
    kind: str  # "dfe" | "endemic"
    feasible: bool
    residual: float

    def to_dict(self):
        return {"state": [float(v) for v in self.state], "kind": self.kind,
                "feasible": self.feasible, "residual": self.residual}


def equilibrium(rhs, p, state, kind):
    """``state`` as an Equilibrium, provided max|rhs| stays below its gate.

    The gate is RESIDUAL_RTOL * (1 + max|state|); a closed form that misses
    it raises ArithmeticError rather than being reported as an equilibrium.
    """
    state = np.asarray(state, dtype=float)
    residual = float(abs(rhs(p, state)).max())
    gate = RESIDUAL_RTOL * (1.0 + float(abs(state).max()))
    if residual >= gate:
        raise ArithmeticError(
            f"{kind} equilibrium residual {residual:.3e} exceeds gate {gate:.3e}")
    return Equilibrium(state, kind, feasible=bool((state > 0).all()), residual=residual)


def population(values):
    """Validated compartment state: populations are finite and nonnegative.

    Internal evaluation points (linearisation probes, perturbations) are
    plain arrays and may go negative; this is for actual population states
    such as initial conditions.
    """
    x = np.array(values, dtype=float)
    if not np.isfinite(x).all() or (x < 0).any():
        raise ValueError("compartment populations must be finite and >= 0")
    return x


def jacobian_fd(rhs, p, x, h):
    """Central-difference Jacobian of ``rhs(p, .)`` at x, one column per coordinate."""
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"step h must lie in [1e-8, 1e-4], got {h}")
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    cols = []
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        cols.append((rhs(p, x + dx) - rhs(p, x - dx)) / (2.0 * h))
    return np.stack(cols, axis=-1)
