"""Fixed-step classical RK4 integration with positivity and region audits.

No adaptivity and no clipping: determinism matters more than speed here, and
projecting states onto the positive cone would mask exactly the model defects
the audits exist to surface.

A single state of d components steps in a loop generated for that d
(:func:`_float_kernel`, compiled once per d): its RK4 stages live in local
Python floats, each stage hands ``f`` a list of d floats and unpacks exactly
d values back, and the rows reach ``states`` a ``CHUNK`` at a time.  A batch
of states steps on numpy arrays in the same operand order, so both give the
same bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .covid import rhs as covid_rhs  # noqa: F401  the benchmark harness's tests pin this binding
from .covid import sum_rate


class DivergenceError(ArithmeticError):
    """Integration produced a non-finite state."""

    def __init__(self, time):
        super().__init__(f"non-finite state at t = {time:.6g}")
        self.time = float(time)


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled states: times[k] = k*dt, states[k] the state at times[k]."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self):
        return len(self.times)


def integrate(f, x0, dt, t_end):
    """Classical RK4 with fixed step dt over [0, t_end], a whole number of steps.

    ``f`` maps a state to its derivatives.  ``x0.ndim`` picks one of two
    paths with the same operand order, hence the same bits: a single state
    (1-D ``x0`` of d components) runs the RK4 loop generated for d, which
    keeps the stages in local Python floats, hands ``f`` a list of d floats
    and unpacks exactly d values from what it returns, a list (a model's
    flow function, the fast path) or a (d,) array; any other length is a
    ValueError.  Its rows are written into ``states`` every ``CHUNK`` steps.
    Any other shape, such as a batch of initial states (..., d), runs
    component-major: the sums run on (d, ...) arrays, laid out like a packed
    right-hand side's ``.T``, and ``f`` gets and returns (..., d) arrays.

    Deterministic: identical inputs give bit-identical trajectories.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * t_end:
        raise ValueError(
            f"t_end must be a whole number of steps of dt, got t_end/dt = {t_end / dt:.12g}")
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("initial state must be finite")
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1,) + x.shape)
    states[0] = x
    # blow-ups surface as DivergenceError, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _float_kernel(x.shape[0]) if x.ndim == 1 else _steps_arrays
        steps(f, x, dt, times, states)
    return Trajectory(times=times, states=states)


def _steps_arrays(f, x, dt, times, states):
    half, sixth = dt / 2.0, dt / 6.0
    x = np.array(x.T)
    for k in range(len(times) - 1):
        k1 = f(x.T).T
        k2 = f((x + half * k1).T).T
        k3 = f((x + half * k2).T).T
        k4 = f((x + dt * k3).T).T
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise DivergenceError(times[k + 1])
        states[k + 1] = x.T


# rows go into ``states`` a chunk at a time, so the tuples held at once stay
# bounded whatever the step count
CHUNK = 512

_KERNEL = """\
def steps(f, x, dt, times, states):
    half, sixth = dt / 2.0, dt / 6.0
    [{x}] = x.tolist()
    n = len(times)
    for start in range(1, n, CHUNK):
        stop = min(start + CHUNK, n)
        rows = []
        append = rows.append
        for k in range(start, stop):
            [{k1}] = f([{x}])
            [{k2}] = f([{x_k1}])
            [{k3}] = f([{x_k2}])
            [{k4}] = f([{x_k3}])
            {update}
            if not ({finite}):
                raise DivergenceError(times[k])
            append(({x}))
        states[start:stop] = rows
"""


@functools.cache
def _float_kernel(d):
    """The single-state RK4 loop for states of ``d`` components, compiled once.

    Like ``collections.namedtuple``, it fills a fixed source template, here
    with ``d`` local float names per stage, and ``exec``s it: each stage calls
    ``f`` with a list of d floats and unpacks exactly d values from its list
    or (d,) array (a ValueError otherwise), and every sum keeps the operand
    order ``x + half*k``, ``x + dt*k3``, ``x + sixth*(k1 + 2*k2 + 2*k3 + k4)``.
    The text is built from the integer ``d`` alone.
    """
    def names(fmt):  # "x0, x1, " -- a valid list and tuple body for every d, 0 included
        return "".join(fmt.format(i) + ", " for i in range(d))

    source = _KERNEL.format(
        x=names("x{0}"), k1=names("k1_{0}"), k2=names("k2_{0}"), k3=names("k3_{0}"),
        k4=names("k4_{0}"), x_k1=names("x{0} + half * k1_{0}"),
        x_k2=names("x{0} + half * k2_{0}"), x_k3=names("x{0} + dt * k3_{0}"),
        update="\n            ".join(
            f"x{i} = x{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
            for i in range(d)),
        finite=" and ".join(f"isfinite(x{i})" for i in range(d)) or "True")
    namespace = {"CHUNK": CHUNK, "DivergenceError": DivergenceError,
                 "isfinite": math.isfinite}
    exec(compile(source, f"<RK4 kernel, d = {d}>", "exec"), namespace)
    return namespace["steps"]


def invariance_audit(traj, p):
    """Positivity and region audit of a five-compartment trajectory.

    Reports the minimum component over the run, the first time any component
    drops below -1e-9 (None if never), whether the region
    E+I+C+H+D <= B/mu was occupied/exited/entered, and the worst gap between
    the summed rates and B - mu*(E+I+C+H).  Region exits with positive D are
    expected: the D compartment is undamped, so the printed region bound is
    not actually invariant.  When B/mu is not finite (mu = 0 included) the
    region is the whole space: ``region_bound`` is None and every row is inside.
    """
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 5:
        raise ValueError("audit expects a single trajectory of 5-vectors")
    min_component = float(states.min())
    below = (states < -1e-9).any(axis=1)
    first_violation = float(traj.times[int(np.argmax(below))]) if below.any() else None
    totals = states.sum(axis=1)
    bound = p.B / p.mu if p.mu > 0 else math.inf
    inside = totals <= bound + 1e-12
    exited = bool((inside[:-1] & ~inside[1:]).any())
    entered = bool((~inside[:-1] & inside[1:]).any())
    ref = p.B - p.mu * (states[:, 0] + states[:, 1] + states[:, 2] + states[:, 3])
    worst = float(abs(sum_rate(p, states) - ref).max())
    return {
        "min_component": min_component,
        "first_positivity_violation_t": first_violation,
        "region_bound": bound if math.isfinite(bound) else None,
        "initially_inside_region": bool(inside[0]),
        "finally_inside_region": bool(inside[-1]),
        "region_exited": exited,
        "region_entered": entered,
        "max_sum_identity_residual": worst,
    }


def trajectory_to_csv(traj, header):
    """Render a trajectory as CSV text, 12 significant digits, newline-terminated."""
    table = np.column_stack([traj.times, traj.states])
    row = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return header + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
