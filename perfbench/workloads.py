"""The four benchmark workloads: seeded inputs, the timed call of each op, and
the independent check of its output.

Sizes (sweep lengths, step counts, batch widths, matrix orders) come from
fixed grids, so every seed runs the same mix of work; the seed draws the
parameter values, states, matrices, step sizes and the order of the ops.
Inputs reach the program as files (CLI configs) or arrays (library calls).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from epistab import cli, compound, covid, linalg, seir, sim, stability

# the published rate table (beta10 has no table value; 0.1 as in the README)
COVID_TABLE = {"B": 0.80, "mu": 0.01, "beta1": 0.55, "beta2": 0.40, "beta3": 0.60,
               "beta4": 0.80, "beta5": 0.34, "beta6": 0.30, "beta7": 0.35, "beta8": 0.30,
               "beta9": 0.35, "beta10": 0.1}
# the parameter set of the R0-vs-mu figures
SEIR_FIGURE = {"Lambda": 0.7, "beta1": 0.3, "beta2": 0.8, "mu": 0.1, "gamma": 0.1, "d": 0.04}


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


@dataclass
class Op:
    kind: str
    spec: str                               # the op's inputs, for the determinism test
    call: Callable[[], object]              # the timed work
    digest: Callable[[object], bytes]       # digest of the output, for repeat comparisons
    check: Callable[[object], None]         # raises Mismatch when the output is wrong


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv):
    """In-process ``epistab.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def _hash(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, (bytes, memoryview)) else repr(part).encode())
    return h.digest()


def _cli_op(kind, argv, check, workdir, csv=None):
    def digest(res):
        return _hash(res.code, res.stdout, res.stderr, csv.read_bytes() if csv else b"")

    spec = " ".join(argv).replace(str(workdir), "<work>")
    return Op(kind, spec, lambda: run_cli(argv), digest, check)


def _lib_op(kind, module, name, args, check):
    def call():
        return getattr(module, name)(*args)   # looked up per call, so tracing sees it

    def digest(out):
        if isinstance(out, np.ndarray):
            return _hash(out.shape, out.data)
        return _hash(out)

    spec = kind + "|" + "|".join(
        a.tobytes().hex() if isinstance(a, np.ndarray) else repr(a) for a in args)
    return Op(kind, spec, call, digest, check)


def _write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return str(path)


def _perturb(rng, base, sigma=0.2):
    return {k: float(v * math.exp(rng.normal(0.0, sigma))) for k, v in base.items()}


def _covid_params(rng, infeasible=False):
    p = _perturb(rng, COVID_TABLE)
    p["beta10"] = float(p["beta1"] * rng.uniform(1.05, 1.5) if infeasible
                        else rng.uniform(0.02, 0.3))
    return p


def _json(res):
    expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
    return json.loads(res.stdout)


def _close(got, want, rtol=1e-9, atol=0.0, what="value"):
    expect(oracles.close(float(got), float(want), rtol, atol), f"{what} {got!r} != {want!r}")


def _residual_ok(rhs, p, state, what):
    r = max(abs(v) for v in rhs(p, state))
    scale = 1.0 + max(abs(v) for v in state)
    expect(r <= 1e-8 * scale * scale, f"{what} residual {r:.3e}")


def _li_wang_agrees(verdicts):
    # s(A) < 0 <=> s(A^[2]) < 0 and (-1)^n det A > 0, so conclusive verdicts agree
    pair = {verdicts["hurwitz"]["outcome"], verdicts["li_wang_exact"]["outcome"]}
    expect(pair != {"stable", "unstable"}, f"hurwitz and li-wang disagree: {pair}")


# --- analyse: CLI analyses, no RK4 ---

def _check_stability(p, measure):
    def check(res):
        doc = _json(res)
        r0 = oracles.r0_covid(p)
        _close(doc["r0"]["reduced"], r0, what="reduced R0")
        if abs(r0 - 1.0) > 1e-6:
            want = "stable" if r0 < 1.0 else "unstable"
            expect(doc["r0"]["threshold_verdict"] == want, "R0 threshold verdict")
        for got, want in zip(doc["equilibria"]["dfe"]["state"], (p["B"] / p["mu"], 0, 0, 0, 0)):
            _close(got, want, atol=1e-12, what="DFE state")
        if p["beta1"] < p["beta10"]:
            expect(doc["equilibria"]["endemic"].get("feasible") is not True,
                   "endemic point feasible with beta1 < beta10")
        for spot in doc["verdicts"].values():
            _li_wang_agrees(spot)
            measures = {measure} if measure else {"one", "two", "inf"}
            expect(set(spot["li_wang_sufficient"]) == measures, "sufficient-criterion measures")
    return check


def _check_equilibria(p):
    def check(res):
        if p["beta1"] < p["beta10"]:
            expect(res.code == cli.EXIT_INFEASIBLE and res.stdout == "",
                   f"beta1 < beta10 should exit {cli.EXIT_INFEASIBLE}, got {res.code}")
            return
        doc = _json(res)
        for got, want in zip(doc["dfe"]["state"], (p["B"] / p["mu"], 0, 0, 0, 0)):
            _close(got, want, atol=1e-12, what="DFE state")
        _residual_ok(oracles.covid_rhs, p, doc["endemic"]["state"], "endemic")
    return check


def _check_r0(p):
    def check(res):
        doc = _json(res)
        _close(doc["reduced"], oracles.r0_covid(p), what="reduced R0")
        expect(math.isfinite(doc["full_dfe"]) and doc["full_dfe"] >= 0, "full R0")
    return check


def _check_sweep(p, name, lo, step, count, r0):
    def check(res):
        expect(res.code == 0, f"exit code {res.code}: {res.stderr.strip()}")
        lines = res.stdout.splitlines()
        expect(lines[0] == f"{name},R0" and len(lines) == count + 1,
               f"sweep has {len(lines) - 1} rows, expected {count}")
        for k, line in enumerate(lines[1:]):
            v, got = (float(t) for t in line.split(","))
            _close(v, lo + k * step, rtol=1e-11, atol=1e-15, what="sweep point")
            _close(got, r0({**p, name: v}), what=f"R0 at {name}={v}")
    return check


def _check_paper(p):
    def check(res):
        doc = _json(res)
        ids = [c["claim_id"] for c in doc]
        expect(len(ids) == len(set(ids)) > 0, "claim ids missing or repeated")
        for c in doc:
            expect(c["verdict"] in ("match", "flagged"), f"verdict {c['verdict']}")
            expect(math.isfinite(c["max_abs_diff"]) and c["max_abs_diff"] >= 0,
                   f"{c['claim_id']} diff")
        claim = next(c for c in doc if c["claim_id"] == "covid_sum_identity_all_compartments")
        # first probe state is (1, 0.8, 0.6, 0.4, 0.2); the true sum drops mu*D
        _close(claim["oracle_value"], p["B"] - p["mu"] * 2.8, what="sum identity")
        _close(claim["paper_value"], p["B"] - p["mu"] * 3.0, what="printed sum identity")
    return check


def _check_seir_stability(sp):
    def check(res):
        doc = _json(res)
        _close(doc["r0"], oracles.r0_seir(sp), what="R0")
        for got, want in zip(doc["equilibria"]["dfe"]["state"], (sp["Lambda"] / sp["mu"], 0, 0)):
            _close(got, want, atol=1e-12, what="DFE state")
        _residual_ok(oracles.seir_rhs, sp, doc["equilibria"]["endemic"]["state"], "endemic")
        _li_wang_agrees(doc["verdicts"]["endemic"])
    return check


def _check_seir_r0(sp):
    def check(res):
        doc = _json(res)
        _close(doc["r0"], oracles.r0_seir(sp), what="R0")
        _close(doc["ngm_spectral_radius"], doc["r0"], what="NGM spectral radius")
    return check


def _check_cubic(coeffs):
    def check(res):
        doc = _json(res)
        want = np.roots(coeffs)
        scale = max(1.0, float(abs(want).max()))
        got = [complex(re, im) for re, im in doc["roots"]["roots"]]
        left = list(want)
        for z in got:
            j = int(np.argmin([abs(z - w) for w in left]))
            expect(abs(z - left.pop(j)) <= 1e-6 * scale, f"cubic root {z}")
        top = float(want.real.max())
        if abs(top) > 1e-6 * scale:
            outcome = doc["routh_hurwitz"]["outcome"]
            expect(outcome == ("stable" if top < 0 else "unstable"), f"Routh-Hurwitz {outcome}")
    return check


# ops per pass: 101 in all, so at least 10 ops lie beyond the 90th percentile
ANALYSE_MIX = {"stability": 14, "equilibria": 14, "r0": 10, "r0 sweep": 10, "paper-check": 14,
               "seir stability": 12, "seir r0": 8, "seir r0 sweep": 6, "cubic": 13}
COVID_SWEEPS = ("mu", "beta1", "beta2", "beta6", "beta10")
SEIR_SWEEPS = ("mu", "beta1", "beta2", "gamma", "Lambda")


def _sweep_argv(rng, p, names, count):
    name = names[int(rng.integers(len(names)))]
    lo = float(p[name] * rng.uniform(0.5, 0.9))
    step = float(p[name] * rng.uniform(0.5, 1.5) / count)
    hi = lo + (count - 0.5) * step    # half a step past the last point: no rounding doubt
    return name, lo, step, f"{name}={lo!r}:{hi!r}:{step!r}"


def build_analyse(rng, workdir):
    ops = []
    for kind, count in ANALYSE_MIX.items():
        sweep_lengths = np.linspace(10, 60, count).round().astype(int)
        for j in range(count):
            i = len(ops)
            p = _covid_params(rng, infeasible=j % 4 == 3)
            sp = _perturb(rng, SEIR_FIGURE)
            cfg = _write_json(workdir / f"covid_{i}.json", p)
            scfg = _write_json(workdir / f"seir_{i}.json", sp)
            if kind == "stability":
                measure = (None, "one", "two", "inf")[j % 4]
                argv = ["stability", "--config", cfg] + (["--measure", measure] if measure else [])
                check = _check_stability(p, measure)
            elif kind == "equilibria":
                argv, check = ["equilibria", "--config", cfg], _check_equilibria(p)
            elif kind == "r0":
                argv, check = ["r0", "--config", cfg], _check_r0(p)
            elif kind == "r0 sweep":
                n = int(sweep_lengths[j])
                name, lo, step, spec = _sweep_argv(rng, p, COVID_SWEEPS, n)
                argv = ["r0", "--config", cfg, "--sweep", spec]
                check = _check_sweep(p, name, lo, step, n, oracles.r0_covid)
            elif kind == "paper-check":
                argv = ["paper-check", "--config", cfg, "--seir-config", scfg]
                check = _check_paper(p)
            elif kind == "seir stability":
                argv, check = ["seir", "stability", "--config", scfg], _check_seir_stability(sp)
            elif kind == "seir r0":
                argv, check = ["seir", "r0", "--config", scfg], _check_seir_r0(sp)
            elif kind == "seir r0 sweep":
                n = int(sweep_lengths[j])
                name, lo, step, spec = _sweep_argv(rng, sp, SEIR_SWEEPS, n)
                argv = ["seir", "r0", "--config", scfg, "--sweep", spec]
                check = _check_sweep(sp, name, lo, step, n, oracles.r0_seir)
            else:
                roots = rng.normal(0.0, 1.5, 3)
                if j % 2:   # one real root and a complex pair
                    pair = complex(roots[1], abs(roots[2]) + 0.1)
                    roots = np.array([roots[0], pair, pair.conjugate()])
                lead = rng.uniform(0.5, 3.0) * (1 if j % 3 else -1)
                # fixed-point text: argparse reads "-1e-05" as an option, not a number
                text = [f"{v:.10f}" for v in lead * np.poly(roots).real]
                argv, check = ["cubic", *text], _check_cubic([float(t) for t in text])
            ops.append(_cli_op(kind, argv, check, workdir))
    return ops


# --- simulate: CLI RK4 runs writing CSV ---

# A three-compartment step costs about a third of a five-compartment one, so
# its ops take this many times the steps: the two models then share one range
# of op costs, and the percentiles fall among ops of similar cost, not on a gap.
SEIR_STEPS = 3


def _check_trajectory(csv, header, rhs, p, x0, dt, steps):
    text = csv.read_text(encoding="utf-8")
    lines = text.splitlines()
    expect(lines[0] == header, f"CSV header {lines[0]!r}")
    expect(len(lines) == steps + 2, f"CSV has {len(lines) - 1} rows, expected {steps + 1}")
    last = [float(t) for t in lines[-1].split(",")]
    _close(last[0], steps * dt, rtol=1e-11, what="final time")
    want = oracles.rk4_final(rhs, p, x0, dt, steps)
    scale = max(1.0, max(abs(v) for v in want))
    for got, w in zip(last[1:], want):
        _close(got, w, rtol=1e-8, atol=1e-10 * scale, what="final state")
    return [[float(t) for t in line.split(",")[1:]] for line in lines[1:]]


def _check_covid_sim(csv, p, x0, dt, steps):
    def check(res):
        audit = _json(res)
        rows = _check_trajectory(csv, "t,E,I,C,H,D", oracles.covid_rhs, p, x0, dt, steps)
        expect(audit["max_sum_identity_residual"] <= 1e-9 * (1.0 + p["B"] / p["mu"]),
               f"sum-identity residual {audit['max_sum_identity_residual']:.3e}")
        low = min(min(r) for r in rows)
        _close(audit["min_component"], low, rtol=1e-11, atol=1e-12, what="min component")
    return check


def _check_seir_sim(csv, sp, x0, dt, steps):
    def check(res):
        expect(res.code == 0 and res.stdout == "", f"exit code {res.code}: {res.stderr.strip()}")
        _check_trajectory(csv, "t,S,I1,I2", oracles.seir_rhs, sp, x0, dt, steps)
    return check


# 101 ops per pass, so at least 10 lie beyond the 90th percentile: 80 runs of
# a few hundred steps, 16 flat ones around the 90th percentile (so it averages
# over many runs of one cost instead of resting on one or two), and 5 more
# from 800 up to the README's 5000
SIMULATE_STEPS = np.concatenate([np.linspace(200, 300, 80), np.linspace(500, 600, 16),
                                 np.geomspace(800, 5000, 5)]).round().astype(int).tolist()


def build_simulate(rng, workdir):
    ops = []
    # the models alternate along the step counts
    for i, steps in enumerate(SIMULATE_STEPS):
        dt = float(rng.uniform(0.005, 0.02))
        csv = workdir / f"traj_{i}.csv"
        if i % 2 == 0:
            kind, p = "covid simulate", _covid_params(rng)
            x0 = [float(v) for v in rng.uniform(0.2, 2.0, 5)]
            argv = ["simulate", "--config", _write_json(workdir / f"covid_{i}.json", p)]
            check = _check_covid_sim(csv, p, x0, dt, steps)
        else:
            kind, p, steps = "seir simulate", _perturb(rng, SEIR_FIGURE), SEIR_STEPS * steps
            x0 = [float(v) for v in rng.uniform(0.2, 2.0, 3)]
            argv = ["seir", "simulate", "--config", _write_json(workdir / f"seir_{i}.json", p)]
            check = _check_seir_sim(csv, p, x0, dt, steps)
        argv += ["--x0", ",".join(map(repr, x0)), "--dt", repr(dt),
                 "--t-end", repr(steps * dt), "--out", str(csv)]
        ops.append(_cli_op(kind, argv, check, workdir, csv))
    return ops


# --- ensemble: batched RK4 through sim.integrate ---

def _check_batch(x0, member, rhs, p, dt, steps):
    def check(traj):
        expect(traj.states.shape == (steps + 1,) + x0.shape, f"shape {traj.states.shape}")
        expect(np.isfinite(traj.states).all(), "non-finite state")
        expect(np.array_equal(traj.states[0], x0), "first row is not x0")
        _close(traj.times[-1], steps * dt, rtol=1e-11, what="final time")
        want = oracles.rk4_final(rhs, p, x0[member], dt, steps)
        scale = max(1.0, max(abs(v) for v in want))
        for got, w in zip(traj.states[-1, member], want):
            _close(got, w, rtol=1e-9, atol=1e-11 * scale, what=f"member {member} final state")
    return check


def _batch_op(kind, model, rhs_name, params, x0, dt, steps, check):
    def call():
        rhs = getattr(model, rhs_name)
        return sim.integrate(lambda x: rhs(params, x), x0, dt, steps * dt)

    def digest(traj):
        return _hash(traj.times.data, traj.states.data)

    spec = f"{kind}|{params!r}|{dt!r}|{steps}|{x0.tobytes().hex()}"
    return Op(kind, spec, call, digest, check)


BATCH_STEPS = 120


def build_ensemble(rng, workdir):
    ops = []
    # 101 batch widths from 20 to 1000, evenly spaced in log; the models alternate
    for i, width in enumerate(np.geomspace(20, 1000, 101).round().astype(int).tolist()):
        dt = float(rng.uniform(0.005, 0.02))
        if i % 2 == 0:
            model, rhs_name, p, steps = covid, "rhs", _covid_params(rng), BATCH_STEPS
            params, ref, dim = covid.CovidParams.from_dict(p), oracles.covid_rhs, 5
        else:
            model, rhs_name, p = seir, "rhs3", _perturb(rng, SEIR_FIGURE)
            params, ref, dim = seir.SeirParams.from_dict(p), oracles.seir_rhs, 3
            steps = SEIR_STEPS * BATCH_STEPS
        x0 = rng.uniform(0.2, 2.0, (width, dim))
        check = _check_batch(x0, int(rng.integers(width)), ref, p, dt, steps)
        ops.append(_batch_op(f"{rhs_name} batch", model, rhs_name, params, x0, dt, steps, check))
    return ops


# --- matrices: compounds and criteria as library calls ---

def _hurwitz_matrix(rng, n, stable):
    """c * (G - shift I) with abscissa -+ c*delta, c log-uniform in [1e-3, 1e3]."""
    g = rng.normal(size=(n, n)) / math.sqrt(n)
    delta = rng.uniform(0.1, 1.0)
    shift = oracles.abscissa(g) + (delta if stable else -delta)
    return 10.0 ** rng.uniform(-3, 3) * (g - shift * np.eye(n))


def _m_matrix(rng, n, stable):
    """c * ((rho(N) +- delta) I - N) with N >= 0: a nonsingular M-matrix iff stable."""
    nn = abs(rng.normal(size=(n, n))) / math.sqrt(n)
    rho = float(abs(np.linalg.eigvals(nn)).max())
    delta = rng.uniform(0.1, 1.0)
    return 10.0 ** rng.uniform(-3, 3) * ((rho + (delta if stable else -delta)) * np.eye(n) - nn)


def _truth(a):
    return "stable" if oracles.abscissa(a) < 0 else "unstable"


def _check_array(oracle, a, k, atol):
    def check(out):
        want = oracle(a, k)
        expect(out.shape == want.shape, f"shape {out.shape}, expected {want.shape}")
        err = float(abs(out - want).max())
        expect(err <= atol, f"max deviation {err:.3e} > {atol:.3e}")
    return check


def _check_add(a, k):
    return _check_array(oracles.add_compound, a, k, 1e-9 * abs(a).max())


def _check_mult(a, k):
    return _check_array(oracles.mult_compound, a, k, 1e-11 * (k * abs(a).max()) ** k)


def _check_det_sign(v, a):
    _close(v.det_sign, (-1.0) ** a.shape[0] * np.linalg.det(a), rtol=1e-9,
           atol=1e-12 * a.shape[0] * oracles.hadamard(a), what="(-1)^n det A")


def _check_hurwitz(a):
    def check(v):
        truth, s = _truth(a), oracles.abscissa(a)
        expect(v.outcome in (truth, "inconclusive"), f"{v.outcome}, truth {truth}")
        _close(v.abscissa, s, atol=1e-9 * abs(a).max(), what="abscissa")
    return check


def _check_li_wang(a):
    def check(v):
        truth, s2 = _truth(a), oracles.compound2_abscissa(a)
        expect(v.outcome in (truth, "inconclusive"), f"{v.outcome}, truth {truth}")
        _check_det_sign(v, a)
        _close(v.abscissa, s2, atol=1e-7 * a.shape[0] * abs(a).max(), what="s(A^[2])")
    return check


def _check_sufficient(a, kind):
    def check(v):
        truth, s2 = _truth(a), oracles.compound2_abscissa(a)
        expect(v.outcome in (truth, "inconclusive"), f"{v.outcome}, truth {truth}")
        expect(v.measure_kind == kind, f"measure {v.measure_kind}")
        _check_det_sign(v, a)
        # every Lozinskii measure bounds the spectral abscissa from above
        expect(v.measure_value >= s2 - 1e-7 * a.shape[0] * abs(a).max(),
               f"mu(A^[2]) {v.measure_value} < s(A^[2]) {s2}")
    return check


def _check_schur(a):
    def check(out):
        rho = float(abs(np.linalg.eigvals(a)).max())
        if abs(rho - 1.0) > 1e-6:
            expect(out == (rho < 1.0), f"schur {out} with rho(A) = {rho}")
    return check


def _check_m_matrix(a):
    def check(f):
        n = a.shape[0]
        z = bool((a - np.diag(np.diag(a)) <= 0).all())
        minors = [np.linalg.det(a[:k, :k]) for k in range(1, n + 1)]
        bounds = [1e-9 * oracles.hadamard(a[:k, :k]) for k in range(1, n + 1)]
        inv = np.linalg.inv(a)
        band = 1e-8 * abs(inv).max()
        expect(f.z_pattern == z, "z_pattern")
        if all(abs(m) > b for m, b in zip(minors, bounds)):
            pos = all(m > 0 for m in minors)
            expect(f.leading_minors_positive == pos, "leading_minors_positive")
            expect(f.is_nonsingular_m == (z and pos), "is_nonsingular_m")
            if z and pos:   # A x = 1 gives x > 0 and A diag(x) row-dominant
                expect(f.dominant_after_scaling, "M-matrix not dominant after scaling")
        if not (abs(inv + 1e-10) <= band).any():
            expect(f.inverse_nonnegative == bool((inv >= -1e-10).all()), "inverse_nonnegative")
    return check


def _check_determinant(a):
    def check(d):
        _close(d, np.linalg.det(a), rtol=1e-9, atol=1e-12 * a.shape[0] * oracles.hadamard(a),
               what="determinant")
    return check


def _check_inverse(a):
    def check(x):
        n = a.shape[0]
        res = float(abs(a @ x - np.eye(n)).max())
        bound = 1e-10 * n * abs(a).sum(1).max() * abs(x).sum(1).max()
        expect(res <= bound, f"|A X - I| = {res:.3e} > {bound:.3e}")
    return check


# kind -> (module, function, extra args, orders); the check is CHECKS[function](a, *extra)
MATRIX_CALLS = {
    "add_compound k=2": (compound, "add_compound", (2,), range(2, 11)),
    "add_compound k=3": (compound, "add_compound", (3,), range(3, 11)),
    "mult_compound k=2": (compound, "mult_compound", (2,), range(2, 11)),
    "mult_compound k=3": (compound, "mult_compound", (3,), range(3, 11)),
    "hurwitz_exact": (stability, "hurwitz_exact", (), range(2, 11)),
    "li_wang_exact": (stability, "li_wang_exact", (), range(2, 7)),
    "li_wang_sufficient one": (stability, "li_wang_sufficient", ("one",), range(2, 11)),
    "li_wang_sufficient two": (stability, "li_wang_sufficient", ("two",), range(2, 11)),
    "li_wang_sufficient inf": (stability, "li_wang_sufficient", ("inf",), range(2, 11)),
    # C_2(A) must fit the n <= 16 eigensolver
    "schur_sufficient": (stability, "schur_sufficient", (), range(2, 7)),
    "m_matrix": (stability, "m_matrix", (), range(2, 11)),
    "determinant": (linalg, "determinant", (), range(2, 11)),
    "inverse": (linalg, "inverse", (), range(2, 11)),
}
CHECKS = {"add_compound": _check_add, "mult_compound": _check_mult,
          "hurwitz_exact": _check_hurwitz, "li_wang_exact": _check_li_wang,
          "li_wang_sufficient": _check_sufficient, "schur_sufficient": _check_schur,
          "m_matrix": _check_m_matrix, "determinant": _check_determinant,
          "inverse": _check_inverse}


def build_matrices(rng, workdir):
    ops = []
    for kind, (module, name, extra, orders) in MATRIX_CALLS.items():
        make = _m_matrix if name == "m_matrix" else _hurwitz_matrix
        for n in orders:
            for stable in (True, False):
                a = make(rng, n, stable)
                ops.append(_lib_op(kind, module, name, (a, *extra), CHECKS[name](a, *extra)))
    return ops


WORKLOADS = {"analyse": build_analyse, "simulate": build_simulate, "matrices": build_matrices,
             "ensemble": build_ensemble}


def build(workload, seed, workdir):
    """(ops in seeded order, warm-up ops) for ``seed``; input files go to ``workdir``.

    The warm-up holds the first op of each kind in grid order, which is the
    smallest, so warming up costs the same for every seed.
    """
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[workload](rng, Path(workdir))
    warmup = list({op.kind: op for op in reversed(ops)}.values())
    return [ops[i] for i in rng.permutation(len(ops))], warmup
