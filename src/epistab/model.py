"""Scaffolding shared by the two epidemic models.

Both models hand their right-hand side ``rhs(p, x)`` to the helpers here:
validated rate parameters, their state reader, residual-gated equilibria,
population states and the central-difference Jacobian that serves as the
ground-truth oracle, taken with the fixed step ``FD_STEP``.  ``Record`` is
the base of every result record and holds its one JSON rule, ``to_dict``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields

import numpy as np

RESIDUAL_RTOL = 1e-10
FD_STEP = 1e-6


class InfeasibleError(ValueError):
    """A requested equilibrium or ratio does not exist for these parameters."""


class Record:
    """Base of every result record that leaves the program as JSON."""

    def to_dict(self):
        """Fields in order, leaving out None and ""; an array or tuple as a
        list, a complex number as [re, im]."""
        return {k: _plain(v) for k, v in vars(self).items()  # never asks an array for its truth
                if v is not None and (type(v) is not str or v)}


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


class Params(Record):
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
        if not isinstance(d, dict):
            raise ValueError(f"parameters must be a JSON object, got {type(d).__name__}")
        keys = cls.keys()
        missing = [k for k in keys if k not in d]
        if missing:
            raise ValueError(f"missing parameters: {', '.join(missing)}{cls.MISSING_NOTE}")
        extra = [k for k in d if k not in keys]
        if extra:
            raise ValueError(f"unknown parameters: {', '.join(sorted(extra))}")
        for k in keys:  # a bool is an int to Python, not a number to JSON
            if isinstance(d[k], bool) or not isinstance(d[k], (int, float)):
                raise ValueError(f"parameter {k} must be a number, got {d[k]!r}")
        return cls(**{k: float(d[k]) for k in keys})

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)


def _pack_one(f):
    return np.array(f, dtype=float)


def _pack_batch(f):
    return np.stack(f, axis=-1)


def components(x, d):
    """The d components of state(s) ``x``, and the packer of d right-hand
    sides into the float64 (d,) or (..., d) result.  A flat list of d numbers
    (the single-trajectory RK4 state) is read as it stands; anything else
    goes through ``np.asarray``, a 1-D array into Python floats, a (..., d)
    batch into its last-axis slices."""
    if type(x) is list and len(x) == d and isinstance(x[0], (int, float)):
        return x, _pack_one
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x.tolist(), _pack_one
    return [x[..., k] for k in range(d)], _pack_batch


@dataclass(frozen=True)
class Equilibrium(Record):
    state: np.ndarray
    kind: str  # "dfe" | "endemic"
    feasible: bool
    residual: float


def equilibrium(rhs, p, state, kind):
    """``state`` as an Equilibrium, provided max|rhs| stays below its gate.

    The gate is RESIDUAL_RTOL * (1 + max|state|); a closed form that misses
    it, or whose residual is NaN, raises ArithmeticError rather than being
    reported as an equilibrium.
    """
    state = np.asarray(state, dtype=float)
    residual = float(abs(rhs(p, state)).max())
    gate = RESIDUAL_RTOL * (1.0 + float(abs(state).max()))
    if not residual < gate:  # also fails a NaN residual
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


def jacobian_fd(rhs, p, x):
    """Central-difference Jacobian of ``rhs(p, .)`` at x with step ``FD_STEP``,
    all columns in one batched call."""
    x = np.asarray(x, dtype=float)[..., None, :]
    step = FD_STEP * np.eye(x.shape[-1])  # row j perturbs coordinate j
    return ((rhs(p, x + step) - rhs(p, x - step)) / (2.0 * FD_STEP)).swapaxes(-1, -2)
