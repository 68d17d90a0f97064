"""Fixed-step classical RK4 integration with positivity and region audits.

No adaptivity and no clipping: determinism matters more than speed here, and
projecting states onto the positive cone would mask exactly the model defects
the audits exist to surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covid import rhs as covid_rhs
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
    """Classical RK4 with fixed step dt over [0, t_end].

    ``f`` maps a state array (..., d) to its derivative; batches of initial
    states broadcast through unchanged.  Deterministic: identical inputs give
    bit-identical trajectories.
    """
    if not 0.0 < dt <= 0.1:
        raise ValueError(f"dt must lie in (0, 0.1], got {dt}")
    if t_end <= 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    x = np.array(x0, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("initial state must be finite")
    n_steps = int(round(t_end / dt))
    times = np.arange(n_steps + 1) * dt
    states = np.empty((n_steps + 1,) + x.shape)
    states[0] = x
    # blow-ups surface as DivergenceError, not as overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = f(x)
            k2 = f(x + (dt / 2.0) * k1)
            k3 = f(x + (dt / 2.0) * k2)
            k4 = f(x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise DivergenceError(times[k + 1])
            states[k + 1] = x
    return Trajectory(times=times, states=states)


def invariance_audit(traj, p):
    """Positivity and region audit of a five-compartment trajectory.

    Reports the minimum component over the run, the first time any component
    drops below -1e-9 (None if never), whether the region
    E+I+C+H+D <= B/mu was occupied/exited/entered, and the worst gap between
    the summed rates and B - mu*(E+I+C+H).  Region exits with positive D are
    expected: the D compartment is undamped, so the printed region bound is
    not actually invariant.
    """
    states = np.asarray(traj.states, dtype=float)
    if states.ndim != 2 or states.shape[1] != 5:
        raise ValueError("audit expects a single trajectory of 5-vectors")
    min_component = float(states.min())
    below = (states < -1e-9).any(axis=1)
    first_violation = float(traj.times[int(np.argmax(below))]) if below.any() else None
    totals = states.sum(axis=1)
    bound = p.B / p.mu
    inside = totals <= bound + 1e-12
    exited = bool((inside[:-1] & ~inside[1:]).any())
    entered = bool((~inside[:-1] & inside[1:]).any())
    ref = p.B - p.mu * (states[:, 0] + states[:, 1] + states[:, 2] + states[:, 3])
    worst = float(abs(sum_rate(p, states) - ref).max())
    return {
        "min_component": min_component,
        "first_positivity_violation_t": first_violation,
        "region_bound": bound,
        "initially_inside_region": bool(inside[0]),
        "finally_inside_region": bool(inside[-1]),
        "region_exited": exited,
        "region_entered": entered,
        "max_sum_identity_residual": worst,
    }


def simulate_covid(p, x0, dt, t_end):
    """Trajectory of the five-compartment model from x0."""
    return integrate(lambda x: covid_rhs(p, x), x0, dt, t_end)


def trajectory_to_csv(traj, header):
    """Render a trajectory as CSV text, 12 significant digits, newline-terminated."""
    states = np.asarray(traj.states)
    lines = [header]
    for t, row in zip(traj.times, states):
        lines.append(",".join(f"{v:.12g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"


def trajectory_from_csv(text):
    """Parse :func:`trajectory_to_csv` output back into a Trajectory."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    arr = np.array(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("malformed trajectory CSV")
    return Trajectory(times=arr[:, 0], states=arr[:, 1:])
