"""Command-line front end.

Subcommands: simulate, equilibria, r0, stability, seir, compound, cubic,
paper-check.  The four model subcommands run the five-compartment model at
the top level and the three-compartment model under ``seir``, through one
handler each.  Deterministic by construction: no environment configuration,
no network, numeric output capped at 12 significant digits; a NaN or
infinite value in a JSON object, a sweep's R0 column or a compound matrix is
a numeric failure, and nothing is printed.

The parser is built once per process, on the first ``main`` call, and reused.
It stores each subcommand's handler by name, and ``main`` looks the name up
in this module when the command runs, so a rebound ``_cmd_*`` takes effect.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 infeasible request.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from math import comb, isfinite
from typing import Callable

import numpy as np

from . import covid, paper_check, seir, sim
from .compound import add_compound, mult_compound
from .linalg import as_matrix, inverse, spectral_radius
from .model import InfeasibleError, population
from .stability import cardano, cubic_stability

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_INFEASIBLE = 3

# cap on sweep points, trajectory rows and compound entries, checked before allocating
MAX_SIZE = 10**6


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through UsageError for exit code 1
    def error(self, message):
        raise UsageError(message)


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


def _check_size(what, count):
    if not count <= MAX_SIZE:  # also rejects NaN
        raise UsageError(f"{what} {count:.12g} exceeds the limit of {MAX_SIZE}")


def _emit(obj, stream=None):
    json.dump(_fmt(obj), stream or sys.stdout, indent=2, sort_keys=True)
    (stream or sys.stdout).write("\n")


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
    return name.strip(), [lo + k * step for k in range(int(count))]


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
    traj = sim.integrate(lambda x: m.rhs(p, x), x0, args.dt, args.t_end)
    _write_text(args.out, sim.trajectory_to_csv(traj, ",".join(("t",) + m.compartments)))
    if m.audited:
        audit = sim.invariance_audit(traj, p)
        _emit(audit, sys.stdout if args.out not in (None, "-") else sys.stderr)
    return EXIT_OK


def _cmd_equilibria(args):
    dfe, endemic = args.model.equilibria(_load_params(args))
    _emit({"dfe": dfe.to_dict(), "endemic": endemic.to_dict()})
    return EXIT_OK


def _sweep_csv(name, values, fn):
    lines = [f"{name},R0"]
    for v in values:
        r0 = fn(v)
        if not isfinite(r0):  # as in the JSON commands: exit 2, nothing written
            raise ArithmeticError(f"non-finite R0 {r0} at {name}={v:.12g}")
        lines.append(f"{v:.12g},{r0:.12g}")
    return "\n".join(lines) + "\n"


def _cmd_r0(args):
    m = args.model
    p = _load_params(args)
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if name not in m.params.keys():
            raise UsageError(f"unknown sweep parameter {name!r}")
        _write_text(args.out, _sweep_csv(name, values, lambda v: m.r0(p.replace(**{name: v}))))
        return EXIT_OK
    _emit(m.r0_report(p))
    return EXIT_OK


def _cmd_stability(args):
    report = args.model.stability(_load_params(args))
    if args.measure:
        for spot in report["verdicts"].values():
            spot["li_wang_sufficient"] = {args.measure: spot["li_wang_sufficient"][args.measure]}
    _emit(report)
    return EXIT_OK


def _cmd_compound(args):
    m = read_matrix(args.matrix)
    if 1 <= args.k <= m.shape[0]:
        _check_size("compound entries", comb(m.shape[0], args.k) ** 2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        out = (add_compound if args.mode == "additive" else mult_compound)(m, args.k)
    if not np.isfinite(out).all():  # as in the JSON commands: exit 2, nothing printed
        raise ArithmeticError(f"non-finite entry {out[~np.isfinite(out)][0]} in the compound")
    sys.stdout.write(format_matrix(out))
    return EXIT_OK


def _cmd_cubic(args):
    a, b, c, d = args.coefficients
    roots = cardano(a, b, c, d)
    verdict = cubic_stability(b / a, c / a, d / a)
    _emit({"roots": roots.to_dict(), "routh_hurwitz": verdict.to_dict()})
    return EXIT_OK


def _cmd_paper_check(args):
    p = covid.CovidParams.from_dict(_load_json(args.config))
    sp = seir.SeirParams.from_dict(_load_json(args.seir_config)) if args.seir_config else None
    claims = paper_check.build_report(p, sp)
    _emit(paper_check.report_to_dicts(claims))
    return EXIT_OK


@dataclass(frozen=True)
class _Model:
    """What the four model subcommands need to know about one model.

    The callables reach model functions through their module when a command
    runs, so a later rebinding of a module attribute takes effect.
    """

    name: str
    commands: tuple         # the four subcommand names, in usage-listing order
    params: type            # a model.Params subclass
    compartments: tuple     # order of --x0 and of the trajectory CSV columns
    r0: Callable            # p -> R0, evaluated along ``r0 --sweep``
    r0_report: Callable     # p -> the ``r0`` JSON object
    equilibria: Callable    # p -> (disease-free, endemic) equilibria
    stability: Callable     # p -> report with per-equilibrium "verdicts"
    rhs: Callable           # (p, x) -> dx/dt
    audited: bool           # ``simulate`` also prints the invariance audit


def _covid_r0_report(p):
    parts = covid.ngm_full(p, covid.dfe(p).state)
    return {"reduced": covid.r0_reduced(p), "full_dfe": parts.r0}


def _covid_equilibria(p):
    if p.beta1 < p.beta10:
        raise InfeasibleError(
            "beta1 < beta10, so the disease-free point is the unique equilibrium")
    return covid.dfe(p), covid.endemic(p)


def _seir_r0_report(sp):
    r0 = seir.r0_seir(sp)
    fm, vm = seir.seir_ngm_matrices(sp)
    return {"r0": r0, "ngm_spectral_radius": spectral_radius(-fm @ inverse(vm))}


_COVID = _Model(
    name="five-compartment", commands=("simulate", "equilibria", "r0", "stability"),
    params=covid.CovidParams, compartments=("E", "I", "C", "H", "D"),
    r0=lambda p: covid.r0_reduced(p), r0_report=_covid_r0_report,
    equilibria=_covid_equilibria, stability=lambda p: covid.stability_report(p),
    rhs=lambda p, x: covid.rhs(p, x), audited=True)

_SEIR = _Model(
    name="three-compartment", commands=("r0", "equilibria", "stability", "simulate"),
    params=seir.SeirParams, compartments=("S", "I1", "I2"),
    r0=lambda sp: seir.r0_seir(sp), r0_report=_seir_r0_report,
    equilibria=lambda sp: (seir.dfe3(sp), seir.endemic3(sp)),
    stability=lambda sp: seir.seir_stability(sp),
    rhs=lambda sp, x: seir.rhs3(sp, x), audited=False)


_MODEL_HELP = {
    "simulate": "integrate the {} model (RK4)",
    "equilibria": "disease-free and endemic points",
    "r0": "reproduction number, optionally swept over a parameter",
    "stability": "full stability report at both equilibria",
}


def _add_model_commands(sub, m):
    """Add simulate, equilibria, r0 and stability for model ``m``."""
    sp = {}
    for name in m.commands:
        sp[name] = sub.add_parser(name, help=_MODEL_HELP[name].format(m.name))
        sp[name].set_defaults(handler=f"_cmd_{name}", model=m)
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
    sp.set_defaults(handler="_cmd_compound")
    sp.add_argument("--matrix", required=True, help="matrix file, one comma-separated row per line")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--mode", choices=["additive", "multiplicative"], default="additive")

    sp = sub.add_parser("cubic", help="Cardano roots and Routh-Hurwitz verdict")
    sp.set_defaults(handler="_cmd_cubic")
    sp.add_argument("coefficients", nargs=4, type=float, metavar=("a", "b", "c", "d"))

    sp = sub.add_parser("paper-check", help="transcription-check report")
    sp.set_defaults(handler="_cmd_paper_check")
    sp.add_argument("--config", required=True)
    sp.add_argument("--seir-config", default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return globals()[args.handler](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # before ValueError: LinAlgError subclasses it; every numeric error class
    # here (singular, convergence, divergence, splitting) is an ArithmeticError
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        if isinstance(exc, InfeasibleError):
            sys.stderr.write(f"infeasible: {exc}\n")
            return EXIT_INFEASIBLE
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
