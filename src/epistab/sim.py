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
``functools.partial``, each stage instead runs that function's own
statements, read from its source and compiled once per process
(:func:`_inlined_kernel`), so no stage makes a call.  A batch of states
steps on numpy arrays in the same operand order, so every path gives the
same bits.
"""

from __future__ import annotations

import ast
import functools
import linecache
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
    the flow equations inline, built from that function's source.  Any other
    ``f`` (a lambda, a wrapper, a patched module attribute) takes the call
    path: each stage hands ``f`` a list of d floats and unpacks exactly d
    values from what it returns, a list or a (d,) array; any other length
    is a ValueError.  Any other shape of ``x0``, such as a batch of initial
    states (..., d), runs component-major: the sums run on (d, ...) arrays,
    laid out like a packed right-hand side's ``.T``, and ``f`` gets and
    returns (..., d) arrays; an output of another shape is a ValueError.

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


class _NotInlinable(Exception):
    """A flow function whose source is not of the shape the inliner takes."""


def _require(condition):
    if not condition:
        raise _NotInlinable


# what a flow function's statements may hold: assignments and a return of
# arithmetic on its locals, constants and parameter reads p.<name>
_FLOW_NODES = (ast.Assign, ast.Return, ast.Name, ast.Attribute, ast.Constant, ast.BinOp,
               ast.UnaryOp, ast.Tuple, ast.List, ast.operator, ast.unaryop, ast.expr_context)


class _Inliner(ast.NodeTransformer):
    """Renames a flow function's locals ``v_<name>`` and its parameter reads
    ``p.<name>`` ``p_<name>``; a read of any other name is not inlinable."""

    def __init__(self, p, local_names):
        self.p, self.local_names, self.params = p, local_names, set()

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == self.p:
            self.params.add(node.attr)
            return ast.Name(f"p_{node.attr}", node.ctx)
        return self.generic_visit(node)

    def visit_Name(self, node):
        _require(node.id in self.local_names)
        return ast.Name(f"v_{node.id}", node.ctx)


def _assignments(stmt):
    """``a, b = u, v`` as ``a = u`` and ``b = v`` when no value reads a
    target, which saves building and unpacking a tuple; else the statement."""
    target, value = stmt.targets[0], stmt.value
    if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
            and len(target.elts) == len(value.elts)
            and not {t.id for t in target.elts} & {n.id for n in ast.walk(value)
                                                   if isinstance(n, ast.Name)}):
        return [f"{ast.unparse(t)} = {ast.unparse(v)}" for t, v in zip(target.elts, value.elts)]
    return [ast.unparse(stmt)]


def _source(flows):
    """The text of the module-level function ``flows``: its ``def`` line and
    the lines after it up to the next one that starts in column 0.

    ``inspect.getsource`` finds the same block with ``tokenize``, whose
    first use costs more than building both kernels.  A block cut short,
    inside a bracket or a string, fails to parse."""
    code = flows.__code__
    lines = linecache.getlines(code.co_filename)[code.co_firstlineno - 1:]
    _require(lines)  # no source file to read
    end = next((i for i, line in enumerate(lines) if i and line[:1] not in " \t\n#"),
               len(lines))
    return "".join(lines[:end])


def _inlined_stages(flows):
    """d, the four stages' statements and the parameter names they read, from
    the source of ``flows(p, x)``: ``a, b, ... = x``, assignments, then
    ``return [...]`` of as many values."""
    fn = ast.parse(_source(flows)).body[0]
    _require(isinstance(fn, ast.FunctionDef) and not fn.decorator_list
             and len(fn.args.args) == 2)
    p, x = (a.arg for a in fn.args.args)
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    _require(len(body) >= 2 and all(isinstance(n, _FLOW_NODES)
                                    for stmt in body for n in ast.walk(stmt)))
    unpack, *middle, ret = body
    _require(all(isinstance(s, ast.Assign) and len(s.targets) == 1 for s in [unpack] + middle))
    state = unpack.targets[0]
    _require(isinstance(state, ast.Tuple) and isinstance(unpack.value, ast.Name)
             and unpack.value.id == x and isinstance(ret, ast.Return)
             and isinstance(ret.value, ast.List) and len(ret.value.elts) == len(state.elts))
    targets = [n for s in [unpack] + middle
               for n in (s.targets[0].elts if isinstance(s.targets[0], ast.Tuple)
                         else s.targets)]
    _require(all(isinstance(n, ast.Name) for n in targets))
    local_names = {n.id for n in targets}
    _require(not {p, x} & local_names)
    inliner = _Inliner(p, local_names)
    names = [inliner.visit(n).id for n in state.elts]
    statements = [line for stmt in middle for line in _assignments(inliner.visit(stmt))]
    values = [ast.unparse(inliner.visit(v)) for v in ret.value.elts]
    stages = [[f"{name} = {arg.format(i)}" for i, name in enumerate(names)] + statements
              + [f"k{s}_{i} = {value}" for i, value in enumerate(values)]
              for s, arg in enumerate(_STAGES, 1)]
    return len(names), stages, sorted(inliner.params)


@functools.cache
def _inlined_kernel(flows):
    """(d, kernel): the single-state RK4 loop with the statements of the
    model flow function ``flows(p, x)`` inlined into each stage, compiled
    once; None when its source cannot be read or is not of that shape.

    The statements come from the function's source text through ``ast``:
    its locals become ``v_<name>``, each ``p.<name>`` a local ``p_<name>``
    read once per run from the partial's bound ``p``, the unpacking line
    takes the stage's state and ``return [...]`` assigns the stage's k
    names.  The expressions and their operand order are the flow
    function's, so the bits are those of the call path.
    """
    try:
        d, stages, params = _inlined_stages(flows)
    except (SyntaxError, _NotInlinable):
        return None
    bind = "\n    ".join(["params = f.args[0]"] + [f"p_{a} = params.{a}" for a in params])
    return d, _compile_kernel(d, stages, bind, f"{flows.__module__}.{flows.__name__}")


# the flow functions whose statements a single-state run inlines, compared
# by identity: a wrapper or a patched module attribute takes the call path
_MODEL_FLOWS = (covid.flows, seir.flows3)


def _single_state_kernel(f, d):
    """The inlined kernel when ``f`` is ``functools.partial(flows, p)`` of a
    model's flow function of ``d`` values, else the call path's."""
    if (type(f) is functools.partial and len(f.args) == 1 and not f.keywords
            and any(f.func is flows for flows in _MODEL_FLOWS)):
        inlined = _inlined_kernel(f.func)
        if inlined is not None and inlined[0] == d:
            return inlined[1]
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
