"""Reference implementations that only the tests use.

``measure_limit_probe`` evaluates the defining one-sided limit of a Lozinskii
measure, (||I + hA|| - 1)/h, at a finite h, to check the closed formulas in
``epistab.lozinskii`` against the definition.  ``covid_rhs_printed`` and
``seir_rhs3_printed`` are the model right-hand sides written term by term as
printed, and ``csv_per_row`` formats a trajectory one row at a time: the
bit-for-bit oracles of the model and CSV code.  ``trajectory_from_csv``
reads a trajectory CSV back.
"""

import numpy as np

from epistab.lozinskii import MeasureKind
from epistab.sim import Trajectory

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


def covid_rhs_printed(p, x):
    """The five printed ODEs, each product written where the paper writes it.

    ``epistab.covid.rhs`` computes the products that two equations share
    once; this is the oracle that pins its bits.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    e, i, c, h, d = x.tolist() if single else (x[..., k] for k in range(5))
    f1 = p.B - p.beta1 * e * i + p.beta7 * e * d + p.beta9 * h + p.beta10 * e * i - p.mu * e
    f2 = p.beta1 * e * i - p.beta2 * i - p.beta6 * i - p.beta8 * i - p.beta10 * e * i - p.mu * i
    f3 = p.beta2 * i - p.beta5 * c - p.beta3 * c + p.beta4 * h - p.mu * c
    f4 = p.beta3 * c - p.beta4 * h + p.beta8 * i - p.beta9 * h - p.mu * h
    f5 = p.beta5 * c + p.beta6 * i - p.beta7 * d * e
    return np.array([f1, f2, f3, f4, f5]) if single else np.stack([f1, f2, f3, f4, f5], axis=-1)


def seir_rhs3_printed(p, x):
    """The three printed ODEs of the two-stage model; the oracle for
    ``epistab.seir.rhs3``."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    s, i1, i2 = x.tolist() if single else (x[..., k] for k in range(3))
    force = (p.beta1 * i1 + p.beta2 * i2) * s
    f = [p.Lambda - force - p.mu * s,
         force - (p.mu + p.gamma) * i1,
         p.gamma * i1 - (p.mu + p.d) * i2]
    return np.array(f) if single else np.stack(f, axis=-1)


def csv_per_row(traj, header):
    """Trajectory CSV formatted one row at a time, 12 significant digits."""
    lines = [header]
    for t, state in zip(traj.times.tolist(), traj.states.tolist()):
        lines.append(",".join("%.12g" % v for v in [t] + state))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text):
    """Parse ``epistab.sim.trajectory_to_csv`` output back into a Trajectory."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("malformed trajectory CSV")
    return Trajectory(times=arr[:, 0], states=arr[:, 1:])
