"""Command-line front end.

Subcommands: simulate, equilibria, r0, stability, seir, compound, cubic,
paper-check.  The four model subcommands run the five-compartment model at
the top level and the three-compartment model under ``seir``, through one
handler each.  This module keeps the command line; each model module builds
the JSON record of its commands (``covid.r0_report``,
``covid.equilibria_report``, ``covid.stability_report``;
``seir.seir_r0_report``, ``seir.seir_equilibria``, ``seir.seir_stability``),
``paper_check.build_report`` the ``paper-check`` claims, and ``cubic`` joins
``stability.cardano`` and ``stability.cubic_stability`` (on the monic
coefficients of ``stability.monic_cubic``) here.

Deterministic by construction: no environment configuration, no network,
numeric output capped at 12 significant digits.  A JSON report is built
whole, then written: two-space indent, sorted keys, ASCII escapes, each
float the shortest repr of its 12-significant-digit value.  A NaN or
infinite value in a JSON object, a sweep's R0 column or a compound matrix
is a numeric failure, and nothing is printed.  The two seeded
``paper-check`` claims, the same objects in every report, are rendered once
per process (with the finiteness check) and their text reused.

``r0 --sweep`` takes R0 at all its points in one call, on a record whose
swept field holds the points as an array (``model.Params.batch``), and
writes its rows with one ``%`` format per ``SWEEP_BLOCK`` rows; elementwise
float64 arithmetic gives each point the bits it gets alone.  Where any
point fails, the points are taken one by one, and the first failing point
raises what it raises alone, its message ending in `` at name=value``.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 infeasible request.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from math import comb, isfinite
from typing import Callable

import numpy as np

from . import covid, paper_check, seir, sim
from .compound import add_compound, mult_compound
from .linalg import as_matrix
from .model import InfeasibleError, population
from .stability import cardano, cubic_stability, monic_cubic

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INFEASIBLE = 3

# cap on sweep points, trajectory rows and compound entries, checked before allocating
MAX_SIZE = 10**6
# sweep rows per % format: bounds the Python floats alive at once on a long sweep
SWEEP_BLOCK = 1 << 16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through UsageError for exit code 1
    def error(self, message):
        raise UsageError(message)


def _json(value, indent="\n"):
    """``value`` as report JSON; ``indent`` is the newline and indentation of its line."""
    if isinstance(value, float):
        if not isfinite(value):
            raise ArithmeticError(f"non-finite value {value} in the output")
        s = f"{value:.12g}"
        if "e" not in s:
            return s if "." in s else s + ".0"
        exp = int(s[s.index("e") + 1:])  # where repr prints fixed digits, or fewer digits
        return repr(float(s)) if 12 <= exp <= 15 or exp <= -308 else s
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_quote(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if type(value) is _Rendered:  # rendered, and so checked for finiteness, at its first use
        if value.indent != indent:
            value.text, value.indent = _json(value.value, indent), indent
        return value.text
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Rendered:
    """A JSON node that ``_json`` renders once and then writes as text; only
    a use at another depth renders it again."""

    __slots__ = ("value", "indent", "text")

    def __init__(self, value):
        self.value, self.indent, self.text = value, None, ""


@functools.cache
def _seeded_claims():
    """The seeded claims, the same objects in every ``paper-check`` report,
    as rendered-once nodes keyed by object id."""
    return {id(c): _Rendered(c.to_dict()) for c in paper_check.seeded_claims()}


def _check_size(what, count):
    if not count <= MAX_SIZE:  # also rejects NaN
        raise UsageError(f"{what} {count:.12g} exceeds the limit of {MAX_SIZE}")


def _emit(obj, stream=None):
    (stream or sys.stdout).write(_json(obj) + "\n")  # one write, after the whole text


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_matrix(path):
    """Matrix text format: one row per line, comma-separated entries, no header."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise UsageError(f"malformed matrix file {path}: ragged or empty rows")
    return as_matrix(rows)


def format_matrix(m):
    return "\n".join(",".join(f"{v:.12g}" for v in row) for row in np.atleast_2d(m)) + "\n"


def _parse_sweep(text):
    try:
        name, spec = text.split("=", 1)
        lo, hi, step = (float(t) for t in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad sweep spec {text!r}, expected name=lo:hi:step") from exc
    if step <= 0 or lo > hi:
        raise UsageError("sweep needs positive step and lo <= hi")
    count = np.floor((hi - lo) / step + 1e-9) + 1
    _check_size("sweep points", count)
    return name.strip(), lo + np.arange(int(count)) * step


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_state(text, length):
    vals = [float(t) for t in text.split(",")]
    if len(vals) != length:
        raise UsageError(f"state must have {length} comma-separated values")
    return np.array(vals)


def _load_params(args):
    return args.model.params.from_dict(_load_json(args.config))


def _cmd_simulate(args):
    m = args.model
    p = _load_params(args)
    x0 = population(_parse_state(args.x0, len(m.compartments)))
    if args.dt > 0:
        _check_size("trajectory rows", np.rint(args.t_end / args.dt) + 1)
    traj = sim.integrate(m.flows(p), x0, args.dt, args.t_end)
    _write_text(args.out, sim.trajectory_to_csv(traj, ",".join(("t",) + m.compartments)))
    if m.audited:
        audit = sim.invariance_audit(traj, p)
        _emit(audit, sys.stdout if args.out not in (None, "-") else sys.stderr)


def _cmd_equilibria(args):
    _emit(args.model.equilibria(_load_params(args)))


def _sweep_csv(name, values, p, r0):
    """The sweep CSV of ``r0`` over the points ``values`` of parameter
    ``name`` in the record ``p``: one call on ``p.batch(name, values)``,
    or point by point where any point fails."""
    try:
        r0s = r0(p.batch(name, values))
        ok = np.isfinite(r0s).all()
    except (ValueError, ArithmeticError):
        ok = False
    if not ok:
        r0s = _sweep_points(name, values, p, r0)
    # an R0 that does not read the swept parameter is one float
    table = np.column_stack((values, np.broadcast_to(r0s, values.shape)))
    parts = [f"{name},R0\n"]
    for k in range(0, len(table), SWEEP_BLOCK):
        block = table[k:k + SWEEP_BLOCK]
        parts.append(("%.12g,%.12g\n" * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _sweep_points(name, values, p, r0):
    """R0 at each point from its own record; the first failing point raises."""
    r0s = []
    for v in values.tolist():
        try:
            value = r0(p.replace(**{name: v}))
        except (ValueError, ArithmeticError) as exc:
            exc.args = (f"{exc} at {name}={v:.12g}",)
            raise
        if not isfinite(value):  # as in the JSON commands: exit 2, nothing written
            raise ArithmeticError(f"non-finite R0 {value} at {name}={v:.12g}")
        r0s.append(value)
    return r0s


def _cmd_r0(args):
    if args.out is not None and not args.sweep:
        raise UsageError("--out names the sweep CSV and needs --sweep")
    m = args.model
    p = _load_params(args)
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if name not in m.params.keys():
            raise UsageError(f"unknown sweep parameter {name!r}")
        _write_text(args.out, _sweep_csv(name, values, p, m.r0))
    else:
        _emit(m.r0_report(p))


def _cmd_stability(args):
    report = args.model.stability(_load_params(args))
    if args.measure:
        for spot in report["verdicts"].values():
            spot["li_wang_sufficient"] = {args.measure: spot["li_wang_sufficient"][args.measure]}
    _emit(report)


def _cmd_compound(args):
    m = read_matrix(args.matrix)
    if 1 <= args.k <= m.shape[0]:
        _check_size("compound entries", comb(m.shape[0], args.k) ** 2)
    out = (add_compound if args.mode == "additive" else mult_compound)(m, args.k)
    if not np.isfinite(out).all():  # as in the JSON commands: exit 2, nothing printed
        raise ArithmeticError(f"non-finite entry {out[~np.isfinite(out)][0]} in the compound")
    sys.stdout.write(format_matrix(out))


def _finite_float(text):
    """``text`` as a finite float; argparse puts the argument's name before the error."""
    value = float(text)
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


_finite_float.__name__ = "float"  # a non-number keeps argparse's "invalid float value"


def _cmd_cubic(args):
    roots = cardano(args.a, args.b, args.c, args.d)
    verdict = cubic_stability(*monic_cubic(args.a, args.b, args.c, args.d))
    _emit({"roots": roots.to_dict(), "routh_hurwitz": verdict.to_dict()})


def _cmd_paper_check(args):
    p = covid.CovidParams.from_dict(_load_json(args.config))
    sp = seir.SeirParams.from_dict(_load_json(args.seir_config)) if args.seir_config else None
    seeded = _seeded_claims()
    _emit([seeded.get(id(c)) or c.to_dict() for c in paper_check.build_report(p, sp)])


@dataclass(frozen=True)
class _Model:
    """What the four model subcommands need to know about one model.

    The callables reach model functions through their module when a command
    runs, so a later rebinding of a module attribute takes effect.  The
    three record callables each return the command's JSON object.
    """

    name: str
    params: type            # a model.Params subclass
    compartments: tuple     # order of --x0 and of the trajectory CSV columns
    r0: Callable            # p -> R0; on a batch record, every ``r0 --sweep`` point at once
    r0_report: Callable     # p -> the ``r0`` record
    equilibria: Callable    # p -> the ``equilibria`` record
    stability: Callable     # p -> the ``stability`` record, with per-equilibrium "verdicts"
    flows: Callable         # p -> the flow function x -> dx/dt as a list, bound to p
    audited: bool           # ``simulate`` also prints the invariance audit


_COVID = _Model(
    name="five-compartment", params=covid.CovidParams, compartments=("E", "I", "C", "H", "D"),
    r0=lambda p: covid.r0_reduced(p), r0_report=lambda p: covid.r0_report(p),
    equilibria=lambda p: covid.equilibria_report(p),
    stability=lambda p: covid.stability_report(p),
    flows=lambda p: functools.partial(covid.flows, p), audited=True)

_SEIR = _Model(
    name="three-compartment", params=seir.SeirParams, compartments=("S", "I1", "I2"),
    r0=lambda sp: seir.r0_seir(sp), r0_report=lambda sp: seir.seir_r0_report(sp),
    equilibria=lambda sp: seir.seir_equilibria(sp),
    stability=lambda sp: seir.seir_stability(sp),
    flows=lambda sp: functools.partial(seir.flows3, sp), audited=False)


_MODEL_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate the {} model (RK4)"),
    "equilibria": (_cmd_equilibria, "disease-free and endemic points"),
    "r0": (_cmd_r0, "reproduction number, optionally swept over a parameter"),
    "stability": (_cmd_stability, "full stability report at both equilibria"),
}


def _add_model_commands(sub, m):
    """Add simulate, equilibria, r0 and stability for model ``m``, in that order."""
    sp = {}
    for name, (handler, text) in _MODEL_COMMANDS.items():
        sp[name] = sub.add_parser(name, help=text.format(m.name))
        sp[name].set_defaults(handler=handler, model=m)
        sp[name].add_argument("--config", required=True, help="JSON parameter file")

    sp["simulate"].add_argument("--x0", required=True,
                                help=f"initial state {','.join(m.compartments)}")
    sp["simulate"].add_argument("--dt", type=float, default=0.01)
    sp["simulate"].add_argument("--t-end", type=float, default=50.0)
    sp["simulate"].add_argument("--out", default=None, help="trajectory CSV path ('-' for stdout)")

    sp["r0"].add_argument("--sweep", default=None, help="e.g. mu=0.005:0.74:0.015")
    sp["r0"].add_argument("--out", default=None, help="sweep CSV path ('-' for stdout)")

    sp["stability"].add_argument("--measure", choices=["one", "two", "inf"], default=None,
                                 help="restrict the sufficient-criterion verdicts to one measure")


@functools.cache
def build_parser():
    """The process's one parser, built on the first call; callers must not change it."""
    parser = _Parser(prog="epistab",
                     description="Compound-matrix stability toolkit for small epidemic models.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_model_commands(sub, _COVID)

    seir_p = sub.add_parser("seir", help="same analyses for the three-compartment system")
    _add_model_commands(seir_p.add_subparsers(dest="seir_command", required=True), _SEIR)

    sp = sub.add_parser("compound", help="k-th compound of a matrix file")
    sp.set_defaults(handler=_cmd_compound)
    sp.add_argument("--matrix", required=True, help="matrix file, one comma-separated row per line")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=["additive", "multiplicative"], default="additive")

    sp = sub.add_parser("cubic", help="Cardano roots and Routh-Hurwitz verdict")
    sp.set_defaults(handler=_cmd_cubic)
    for name in "abcd":  # a negative coefficient in exponent form goes after "--"
        sp.add_argument(name, type=_finite_float)

    sp = sub.add_parser("paper-check", help="transcription-check report")
    sp.set_defaults(handler=_cmd_paper_check)
    sp.add_argument("--config", required=True)
    sp.add_argument("--seir-config", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # results are checked
            args.handler(args)
        return EXIT_OK
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # InfeasibleError and LinAlgError subclass ValueError, so both come first;
    # every numeric error class here (singular, convergence, divergence,
    # splitting) is an ArithmeticError
    except InfeasibleError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
