"""Reference implementations that only the tests use.

``measure_limit_probe`` evaluates the defining one-sided limit of a Lozinskii
measure, (||I + hA|| - 1)/h, at a finite h, to check the closed formulas in
``epistab.lozinskii`` against the definition.  ``covid_rhs_printed`` and
``seir_rhs3_printed`` are the model right-hand sides written term by term as
printed, and ``csv_per_row`` formats a trajectory one row at a time: the
bit-for-bit oracles of the model and CSV code.  ``trajectory_from_csv``
reads a trajectory CSV back.  ``json_text`` (the standard library's
``indent=2`` encoder after a 12-digit rounding walk) and ``lu_solve`` (the
row-pivoted LU written with ``np.outer`` and an index-array permutation) are
the byte-for-byte oracles of the CLI's JSON writer and of ``linalg``'s LU.
``det4_block`` is a 4x4 determinant by Laplace expansion in 2x2 blocks.
``mult_compound_closed`` builds C_k(A) for k <= 3 from the gathered k x k
blocks and the closed-form minors that ``epistab.compound`` evaluated before
it expanded along the first row: its byte oracle.
``packed_stacked`` and ``steps_arrays_state_major`` are the batch packer
and the batch RK4 loop as they were written state-major, with ``np.stack``
of last-axis slices: the byte oracles of ``epistab.model.packed`` and
``epistab.sim._steps_arrays``.  ``steps_floats_listwise`` is the
single-state RK4 loop written with one list comprehension per stage and a
row write per step: the byte oracle of the generated kernels of
``epistab.sim._float_kernel``.  ``sweep_csv_per_point`` is the ``r0 --sweep``
CSV built one point at a time, each R0 from its own record and each row by
its own format: the byte oracle of ``epistab.cli._sweep_csv``.
"""

import io
import json
from math import isfinite

import numpy as np

from epistab.compound import lex_tuples
from epistab.linalg import DimensionError, SingularMatrixError, _pivot_floor, as_square
from epistab.lozinskii import MeasureKind
from epistab.sim import DivergenceError, Trajectory

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


def packed_stacked(flows, p, x):
    """``flows(p, x)`` as a float64 (d,) or (..., d) array, a batch packed
    by ``np.stack`` of the flows of its last-axis slices."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.array(flows(p, x.tolist()), dtype=float)
    return np.stack(flows(p, [x[..., k] for k in range(x.shape[-1])]), axis=-1)


def steps_arrays_state_major(f, x, dt, times, states):
    """The batch RK4 loop on (..., d) states, with ``epistab.sim._steps_arrays``'
    signature."""
    for k in range(len(times) - 1):
        k1 = f(x)
        k2 = f(x + (dt / 2.0) * k1)
        k3 = f(x + (dt / 2.0) * k2)
        k4 = f(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise DivergenceError(times[k + 1])
        states[k + 1] = x


def steps_floats_listwise(f, x, dt, times, states):
    """The single-state RK4 loop on Python float lists, with the signature of
    the kernels of ``epistab.sim._float_kernel``."""
    half, sixth = dt / 2.0, dt / 6.0
    x = x.tolist()
    for k in range(len(times) - 1):
        k1 = f(x)
        k2 = f([a + half * b for a, b in zip(x, k1)])
        k3 = f([a + half * b for a, b in zip(x, k2)])
        k4 = f([a + dt * b for a, b in zip(x, k3)])
        x = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if not all(map(isfinite, x)):
            raise DivergenceError(times[k + 1])
        states[k + 1] = x


def csv_per_row(traj, header):
    """Trajectory CSV formatted one row at a time, 12 significant digits."""
    lines = [header]
    for t, state in zip(traj.times.tolist(), traj.states.tolist()):
        lines.append(",".join("%.12g" % v for v in [t] + state))
    return "\n".join(lines) + "\n"


def sweep_csv_per_point(name, values, p, r0):
    """The sweep CSV of ``r0`` over the points ``values`` of parameter
    ``name`` in the record ``p``, with ``epistab.cli._sweep_csv``'s
    signature; the first failing point raises, its message ending in
    `` at name=value``."""
    lines = [f"{name},R0"]
    for v in values.tolist():
        try:
            value = r0(p.replace(**{name: v}))
        except (ValueError, ArithmeticError) as exc:
            exc.args = (f"{exc} at {name}={v:.12g}",)
            raise
        if not isfinite(value):
            raise ArithmeticError(f"non-finite R0 {value} at {name}={v:.12g}")
        lines.append(f"{v:.12g},{value:.12g}")
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text):
    """Parse ``epistab.sim.trajectory_to_csv`` output back into a Trajectory."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("malformed trajectory CSV")
    return Trajectory(times=arr[:, 0], states=arr[:, 1:])


def _fmt(value):
    if isinstance(value, float):
        if not isfinite(value):
            raise ArithmeticError(f"non-finite value {value} in the output")
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def json_text(obj):
    """What ``epistab.cli._emit`` writes for ``obj``: floats rounded to 12
    significant digits, then ``json.dump(indent=2, sort_keys=True)`` and a
    newline."""
    buf = io.StringIO()
    json.dump(_fmt(obj), buf, indent=2, sort_keys=True)
    return buf.getvalue() + "\n"


def lu_solve(m, b):
    """Solve M X = B by row-pivoted elimination, as ``epistab.linalg`` did
    with one ``np.outer`` per step; raises SingularMatrixError the same way."""
    lu = m.copy()
    n = lu.shape[0]
    perm = np.arange(n)
    min_pivot = np.inf
    for k in range(n):
        p = k + int(np.argmax(abs(lu[k:, k])))
        piv = abs(lu[p, k])
        min_pivot = min(min_pivot, piv)
        if piv == 0.0:
            break
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    if min_pivot <= _pivot_floor(m):
        raise SingularMatrixError("matrix is singular to working precision", min_pivot)
    x = b[perm]
    for k in range(n):        # forward: L y = P b
        x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):   # backward: U x = y
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def det4_block(a):
    """Determinant of a 4x4 matrix by the six-term 2x2-block (Laplace) expansion.

    Expands along the first two columns: pairs of rows contribute
    det(rows|cols 1,2) * det(complementary rows|cols 3,4) with alternating
    signs.  Agrees with ``epistab.linalg.determinant`` to 1e-10 relative.
    """
    m = as_square(a)
    if m.shape != (4, 4):
        raise DimensionError(f"det4_block requires a 4x4 matrix, got {m.shape}")

    def d(i, j, k, l):
        return m[i, k] * m[j, l] - m[i, l] * m[j, k]

    return float(
        d(0, 1, 0, 1) * d(2, 3, 2, 3)
        - d(0, 2, 0, 1) * d(1, 3, 2, 3)
        + d(0, 3, 0, 1) * d(1, 2, 2, 3)
        + d(1, 2, 0, 1) * d(0, 3, 2, 3)
        - d(1, 3, 0, 1) * d(0, 2, 2, 3)
        + d(2, 3, 0, 1) * d(0, 1, 2, 3)
    )


def minors_closed(b):
    """Determinants of the k x k blocks (k <= 3) on the last two axes of ``b``,
    each in closed form."""
    k = b.shape[-1]
    if k == 1:
        return b[..., 0, 0]
    if k == 2:
        return b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]
    if k == 3:
        return (
            b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
            - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
            + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0])
        )
    raise ValueError(f"closed-form minors only for k <= 3, got k={k}")


def mult_compound_closed(a, k):
    """C_k(A) for k <= 3: each plan row's k x k blocks gathered and their
    closed-form minors taken, one row at a time so memory stays small."""
    m = as_square(a)
    idx = np.array(lex_tuples(m.shape[0], k)) - 1
    return np.array([minors_closed(m[rows[:, None], idx[:, None, :]]) for rows in idx])
