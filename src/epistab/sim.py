"""Fixed-step classical RK4 integration with positivity and region audits.

No adaptivity and no clipping: determinism matters more than speed here, and
projecting states onto the positive cone would mask exactly the model defects
the audits exist to surface.

A single state of d components steps in a loop generated from one source
template, ``_KERNEL``: its RK4 stages live in local Python floats and the
rows reach ``states`` a ``CHUNK`` at a time.  In the call path
(:func:`_float_kernel`, compiled once per d) each stage hands ``f`` a list
of d floats and unpacks exactly d values back.  When ``f`` is a model's flow
function (``covid.flows``, ``seir.flows3``) bound to its parameters by
``functools.partial``, each stage instead performs the operations that
one traced call of that function performed, compiled once per process
(:func:`_inlined_kernel`), so no stage makes a call.  A batch of states
steps on numpy arrays in the same operand order, so every path gives the
same bits.
"""

from __future__ import annotations

import functools
import keyword
import math
from dataclasses import dataclass

import numpy as np

from . import covid, model, seir
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
    (1-D ``x0`` of d components) runs an RK4 loop generated for d, which
    keeps the stages in local Python floats and writes its rows into
    ``states`` every ``CHUNK`` steps.  If ``f`` is
    ``functools.partial(flows, p)``, with ``flows`` the very ``covid.flows``
    or ``seir.flows3``, no keywords and d the flow's length, the loop runs
    the flow equations inline, recorded from one call of that function on
    symbolic terms.  Any other ``f`` (a lambda, a wrapper, a patched module
    attribute) takes the call path: each stage hands ``f`` a list of d
    floats and unpacks exactly d values from what it returns, a list or a
    (d,) array; any other length is a ValueError.  Any other shape of
    ``x0``, such as a batch of initial states (..., d), runs
    component-major: the sums run on (d, ...) arrays, laid out like a packed
    right-hand side's ``.T``, and ``f`` gets and returns (..., d) arrays; an
    output of another shape is a ValueError.

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
        steps = _single_state_kernel(f, x.shape[0]) if x.ndim == 1 else _steps_arrays
        steps(f, x, dt, times, states)
    return Trajectory(times=times, states=states)


def _steps_arrays(f, x, dt, times, states):
    half, sixth = dt / 2.0, dt / 6.0

    def stage(y):  # f at the (d, ...) states y, refusing any other shape
        k = f(y.T).T
        if k.shape != y.shape:
            raise ValueError(f"f must return the shape of its states {y.T.shape}, "
                             f"got {k.T.shape}")
        return k

    x = np.array(x.T)
    for k in range(len(times) - 1):
        k1 = stage(x)
        k2 = stage(x + half * k1)
        k3 = stage(x + half * k2)
        k4 = stage(x + dt * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(x).all():
            raise DivergenceError(times[k + 1])
        states[k + 1] = x.T


# rows go into ``states`` a chunk at a time, so the tuples held at once stay
# bounded whatever the step count
CHUNK = 512

# one slot per RK4 stage: stage s evaluates f at _STAGES[s - 1] and leaves
# its derivatives in k{s}_0 .. k{s}_{d-1}
_KERNEL = """\
def steps(f, x, dt, times, states):
    half, sixth = dt / 2.0, dt / 6.0
    {bind}
    [{x}] = x.tolist()
    n = len(times)
    for start in range(1, n, CHUNK):
        stop = min(start + CHUNK, n)
        rows = []
        append = rows.append
        for k in range(start, stop):
            {stage1}
            {stage2}
            {stage3}
            {stage4}
            {update}
            if not ({finite}):
                raise DivergenceError(times[k])
            append(({x}))
        states[start:stop] = rows
"""
_STAGES = ("x{0}", "x{0} + half * k1_{0}", "x{0} + half * k2_{0}", "x{0} + dt * k3_{0}")
_INDENT = "\n            "


def _names(fmt, d):  # "x0, x1, " -- a valid list and tuple body for every d, 0 included
    return "".join(fmt.format(i) + ", " for i in range(d))


def _compile_kernel(d, stages, bind, label):
    """``_KERNEL`` for ``d`` components with ``stages[s]`` the statements of
    stage s + 1 and ``bind`` the statements run once before the loop."""
    source = _KERNEL.format(
        x=_names("x{0}", d), bind=bind,
        **{f"stage{s + 1}": _INDENT.join(stage) for s, stage in enumerate(stages)},
        update=_INDENT.join(
            f"x{i} = x{i} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i})"
            for i in range(d)),
        finite=" and ".join(f"isfinite(x{i})" for i in range(d)) or "True")
    namespace = {"CHUNK": CHUNK, "DivergenceError": DivergenceError,
                 "isfinite": math.isfinite}
    exec(compile(source, f"<RK4 kernel, {label}>", "exec"), namespace)
    return namespace["steps"]


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
    stages = [[f"[{_names(f'k{s}_{{0}}', d)}] = f([{_names(arg, d)}])"]
              for s, arg in enumerate(_STAGES, 1)]
    return _compile_kernel(d, stages, "", f"d = {d}")


# an operator on a term: {0} in ``text`` is the term, {1} the other operand
def _binary(text):
    return lambda term, other: _Term(term.tape, text, term, other)


class _Term:
    """A value in one traced call of a flow function: ``text`` with ``{0}``,
    ``{1}`` for its ``args``, the terms and finite int or float constants it
    operates on.  Each operation appends its term to ``tape`` in the call's
    order and counts a use of each term it reads.  Only ``+``, ``-``,
    ``*``, ``/`` and unary minus record; anything that needs a number (a
    truth test, a comparison, ``**``, ``abs``, ``math.exp``) raises
    TypeError."""

    def __init__(self, tape, text, *args):
        for a in args:
            if type(a) is _Term:
                a.uses += 1
            elif type(a) not in (int, float) or not math.isfinite(a):
                raise TypeError(f"a traced flow may not operate on {a!r}")
        self.tape, self.text, self.args, self.uses, self.name = tape, text, args, 0, None
        tape.append(self)

    __add__, __radd__ = _binary("({0} + {1})"), _binary("({1} + {0})")
    __sub__, __rsub__ = _binary("({0} - {1})"), _binary("({1} - {0})")
    __mul__, __rmul__ = _binary("({0} * {1})"), _binary("({1} * {0})")
    __truediv__, __rtruediv__ = _binary("({0} / {1})"), _binary("({1} / {0})")
    __bool__ = __eq__ = None  # a truth test or an equality test raises TypeError
    __array_ufunc__ = None  # a numpy scalar operand reaches __init__ as itself, and is refused

    def __neg__(self):
        return _Term(self.tape, "(-{0})", self)

    def expression(self):
        """The name of this term's local, or its operation written out."""
        return self.name or self.text.format(
            *(a.expression() if type(a) is _Term else f"({a!r})" for a in self.args))


class _Params:
    """The parameters of a traced call: a read ``p.<name>`` is the term
    ``p_<name>``, and ``name`` joins ``read``."""

    def __init__(self, tape):
        self.tape, self.read = tape, set()

    def __getattr__(self, name):
        if not name.isidentifier() or keyword.iskeyword(name):
            raise TypeError(f"parameter name {name!r} is not an attribute name")
        self.read.add(name)
        return _Term(self.tape, f"p_{name}")


@functools.cache
def _inlined_kernel(flows, d):
    """The single-state RK4 loop for ``functools.partial(flows, p)`` on
    states of ``d`` components, with the flow equations inlined into each
    stage, compiled once; None when one call of ``flows`` cannot be traced.

    ``flows`` is called once, on the state terms ``y0 .. y{d-1}`` and on
    parameters whose reads ``p.<name>`` are the locals ``p_<name>``, bound
    once per run from the partial's ``p`` in sorted name order.  Each stage
    performs the operations of that call in the order it performed them: a
    term read more than once, or never, is assigned to one local in that
    order, and any other term is written out in full in its one reader.
    So the kernel repeats every operation of the call, one whose result
    nothing reads included, on the same operands, and gives the call path's
    bits, or its exception.  The trace raises, and None is returned,
    when the call does anything but ``+``, ``-``, ``*``, ``/`` and unary
    minus on its terms and on finite int or float constants, reads a
    parameter name that is not an identifier or is a keyword, or returns
    other than a list or tuple of d values (an array would carry numpy
    scalars into the next stage).
    """
    tape = []
    params = _Params(tape)
    try:
        out = flows(params, [_Term(tape, f"y{i}") for i in range(d)])
        if not isinstance(out, (list, tuple)) or len(out) != d:
            raise ValueError(f"{type(out).__name__} of flows for {d} components")
        ks = [_Term(tape, "{0}", v) for v in out]  # a value returned is a use too
    except Exception:  # whatever the trace raises, f takes the call path
        return None
    statements = []
    for n, term in enumerate(tape[:len(tape) - d]):  # the call's own operations, not ks
        if term.args and term.uses != 1:
            statements.append(f"t{n} = {term.expression()}")
            term.name = f"t{n}"
    stages = [[f"y{i} = {arg.format(i)}" for i in range(d)] + statements
              + [f"k{s}_{i} = {k.expression()}" for i, k in enumerate(ks)]
              for s, arg in enumerate(_STAGES, 1)]
    bind = "\n    ".join(["params = f.args[0]"]
                         + [f"p_{a} = params.{a}" for a in sorted(params.read)])
    return _compile_kernel(d, stages, bind, f"{flows.__module__}.{flows.__name__}")


# the flow functions whose operations a single-state run inlines, compared
# by identity: a wrapper or a patched module attribute takes the call path
_MODEL_FLOWS = (covid.flows, seir.flows3)


def _single_state_kernel(f, d):
    """The inlined kernel when ``f`` is ``functools.partial(flows, p)`` of a
    model's flow function of ``d`` values, else the call path's."""
    if (type(f) is functools.partial and len(f.args) == 1 and not f.keywords
            and any(f.func is flows for flows in _MODEL_FLOWS)):
        return _inlined_kernel(f.func, d) or _float_kernel(d)
    return _float_kernel(d)


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
    """Render a trajectory as CSV text, 12 significant digits, newline-terminated,
    through the one table writer ``model.csv_table``."""
    return model.csv_table(header, traj.times, traj.states)
