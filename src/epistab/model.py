"""Scaffolding shared by the two epidemic models.

Each model writes its derivatives once, as a flow function that returns a
list (``covid.flows``, ``seir.flows3``); ``simulate`` integrates that list
on Python floats.  Its right-hand side ``rhs(p, x)`` packs the same flows
into a float64 array, through ``packed``, for equilibria, Jacobians
and batches, and hands it to the helpers here: validated rate parameters
with the one mu > 0 check, ``Params.need_mu``, and the one disease-free
quotient over mu, ``Params.over_mu``; residual-gated equilibria,
population states and the central-difference Jacobian that serves as the
ground-truth oracle, taken with the fixed step ``FD_STEP``.  ``finite``
makes a derived matrix that is not finite a numeric failure naming it.
``Record`` is the base of every result record and holds its one JSON
rule, ``to_dict``.

The reports of ``stability``, ``seir stability`` and ``paper-check`` are
lists of named sections run in order by one evaluator, ``report``: each
section computes one entry from the parameters and the entries before it.  ``report`` is the one place where a section's failure is caught, and each
section names the exception classes it survives.  Two sections survive one,
both in ``covid.stability_report``; every other failure ends its report.
``csv_table`` is the one writer of the ``%.12g`` tables the commands print
(trajectories, sweeps and compounds), ``CSV_BLOCK`` rows per ``%`` format.

``Params.batch`` gives a record whose one swept field holds a float64
array: the formulas and guards that a swept R0 reads (``need_mu``,
``covid.r0_reduced``, ``seir.r0_seir``) run on it elementwise, so each
point gets the bits it gets alone, and a guard fails when any point fails
it.  Only ``r0 --sweep`` builds one; every other command takes float records.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

RESIDUAL_RTOL = 1e-10
FD_STEP = 1e-6
# table rows per % format: bounds the Python floats alive at once in a long table
CSV_BLOCK = 1 << 16


class InfeasibleError(ValueError):
    """A requested equilibrium or ratio does not exist for these parameters."""


class Record:
    """Base of every result record that leaves the program as JSON."""

    def to_dict(self):
        """Fields in order, leaving out None and ""; an array or tuple as a
        list, a complex number as [re, im]."""
        return {k: _plain(v) for k, v in vars(self).items()  # never asks an array for its truth
                if v is not None and (type(v) is not str or v)}


def report(sections):
    """The report that ``sections`` compute, run in order as a plain dict.

    A section is ``(key, fn, *caught)``: ``fn(done)`` computes the entry
    ``key`` from ``done``, the entries of the earlier sections by key.  This
    is the one place where a section's failure is caught: an exception of a
    class in ``caught`` makes its entry ``{"error": message}``, and any other
    ends the report.  In the report, a key ``a.b`` is entry ``b`` of entry
    ``a``, a Record is written as its ``to_dict()``, and an entry that is
    None or whose key starts with ``_`` is left out: the latter is for
    later sections only.
    """
    done, out = {}, {}
    for section in sections:
        key = section[0]
        try:
            value = done[key] = section[1](done)
        except section[2:] as exc:  # the classes the section names, if any
            value = done[key] = {"error": str(exc)}
        if key[0] != "_" and value is not None:
            outer, dot, inner = key.partition(".")
            node = out.setdefault(outer, {}) if dot else out
            node[inner or outer] = value.to_dict() if isinstance(value, Record) else value
    return out


def csv_table(header, *columns):
    """CSV text of ``np.column_stack(columns)``: the line ``header`` unless
    it is None, then one line per row, each entry formatted ``%.12g``.

    The rows are formatted ``CSV_BLOCK`` at a time, one ``%`` per block, so
    however long the table, one block's Python floats are alive at once.
    """
    parts = [] if header is None else [header + "\n"]
    for k in range(0, len(columns[0]), CSV_BLOCK):
        block = np.column_stack([c[k:k + CSV_BLOCK] for c in columns])
        row = ",".join(["%.12g"] * block.shape[1]) + "\n"
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


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
        for k in self.keys():
            v = getattr(self, k)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"parameter {k} must be finite and >= 0, got {v}")

    @classmethod
    @functools.cache
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
        return cls(**{k: _float(d[k]) for k in keys})

    def over_mu(self, num, name):
        """``num``/mu, the disease-free value ``name``: it exists only for
        mu > 0, and a quotient that overflows (a subnormal mu) raises
        ArithmeticError."""
        self.need_mu("disease-free equilibrium")
        q = num / self.mu
        if q == math.inf:
            raise ArithmeticError(f"disease-free {name} overflows to inf")
        return q

    def need_mu(self, what):
        """The one mu > 0 rule: ``what`` (a quantity that divides by mu)
        raises ValueError unless mu > 0, on a batch at every point.  A float
        mu that passes costs one comparison and one identity test."""
        if (bad := self.mu <= 0) is not False and (bad is True or bad.any()):
            raise ValueError(f"{what} needs mu > 0")

    def replace(self, **kw):
        return dataclasses.replace(self, **kw)

    def batch(self, name, values):
        """This record with field ``name`` holding ``values`` as a float64
        array, validated once by ``__post_init__``'s rule (finite and >= 0);
        the other fields keep their validated floats."""
        if name not in self.keys():
            raise ValueError(f"unknown parameter {name}")
        values = np.asarray(values, dtype=float)
        ok = (values >= 0) & (values < math.inf)  # also fails NaN
        if not ok.all():
            raise ValueError(f"parameter {name} must be finite and >= 0, got {values[~ok][0]}")
        out = object.__new__(type(self))  # no __init__: the float fields are already checked
        vars(out).update(vars(self), **{name: values})
        return out


def _float(v):
    try:
        return float(v)
    except OverflowError:  # an integer beyond the float range reads as 1e400 does
        return math.inf if v > 0 else -math.inf


def packed(flows, p, x):
    """``flows(p, x)`` as a float64 (d,) or (..., d) array, for the state(s)
    ``x`` given through ``np.asarray``: a 1-D state as Python floats, a
    (..., d) batch as the d component arrays of ``x.T``, whose flows one
    ``np.array`` packs component-major and ``.T`` turns back to (..., d),
    the same values in a layout that need not be C order."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(flows(p, x.tolist()), dtype=float)
    return np.array(flows(p, x.T)).T


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


def finite(m, name):
    """``m``, a matrix the program derived; an entry that is not finite is
    a numeric failure, an ArithmeticError that names ``name``."""
    if not np.isfinite(m).all():
        raise ArithmeticError(f"{name} is not finite")
    return m


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
