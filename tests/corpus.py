"""A seeded differential corpus for the command-line contract.

``cases()`` draws 1,150 command lines from ``SEED``: ``r0``,
``equilibria`` and ``stability`` of both models and ``paper-check`` on
drawn rates, short ``simulate`` runs (at most 200 steps), ``r0 --sweep``
(at most 50 points), ``compound`` on matrices with signed zeros and
subnormals, and ``cubic``.  Half the parameter sets are wild: each rate is
0 with probability 8%, 5e-324 with 4%, 10^U(250, 308) with 4% and otherwise
10^U(-12, 6); the other half scale each rate of the table or figure set by
10^U(-1, 1).  The last cases set one or two rates of the table or figure
set to 0 or 5e-324.

``outcome`` runs one case through ``epistab.cli.main`` in-process, in the
current directory, and gives its exit code and the SHA-256 of its stdout,
its stderr and the file it wrote (None when it wrote none).
``tests/corpus.json`` holds the outcome of every case; ``test_corpus.py``
names each case whose outcome differs.  Like the other SHA-256 goldens, the
table assumes this numpy and LAPACK.

    PYTHONPATH=src python tests/corpus.py           # rewrite tests/corpus.json
    PYTHONPATH=src python tests/corpus.py --check   # print each case that differs
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from epistab.cli import main
from epistab.covid import CovidParams, table_params
from epistab.seir import SeirParams, figure_params

SEED = 8191
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
OUT = "out.csv"  # the one file a case may write
# argparse wraps the usage line to the terminal width
COLUMNS = "80"

_MODELS = {"covid": ((), CovidParams, table_params(0.1)),
           "seir": (("seir",), SeirParams, figure_params())}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _wild_rate(rng):
    u = rng.random()
    if u < 0.08:
        return 0.0
    if u < 0.12:
        return 5e-324
    if u < 0.16:
        return float(10.0 ** rng.uniform(250, 308))
    return float(10.0 ** rng.uniform(-12, 6))


def _params(rng, model):
    """A parameter file's text: wild rates, or the model's set rescaled."""
    _, cls, base = _MODELS[model]
    wild = rng.random() < 0.5
    values = {k: _wild_rate(rng) if wild else getattr(base, k) * float(10.0 ** rng.uniform(-1, 1))
              for k in cls.keys()}
    return json.dumps(values)


def _edge_case(rng):
    """A model command on the table or figure set with one or two rates set
    to 0 or 5e-324: the guards that a rescaled set never reaches."""
    command = str(rng.choice(["r0", "equilibria", "stability", "paper-check"]))
    model = "covid" if command == "paper-check" or rng.random() < 0.5 else "seir"
    prefix, cls, base = _MODELS[model]
    values = base.to_dict()
    for k in rng.choice(cls.keys(), size=int(rng.integers(1, 3)), replace=False):
        values[str(k)] = float(rng.choice([0.0, 5e-324]))
    return [*prefix, command, "--config", "c.json"], {"c.json": json.dumps(values)}


def _number(rng):
    """A matrix entry or cubic coefficient: signed zeros, subnormals, huge
    values and small integers among ordinary floats."""
    u = rng.random()
    if u < 0.1:
        return float(rng.choice([0.0, -0.0]))
    if u < 0.15:
        return float(rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320]))
    if u < 0.2:
        return float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(150, 308))
    if u < 0.35:
        return float(rng.integers(-3, 4))
    return float(rng.normal() * 10.0 ** rng.uniform(-3, 3))


def _model_case(rng, command):
    model = "covid" if rng.random() < 0.5 else "seir"
    argv = [*_MODELS[model][0], command, "--config", "c.json"]
    if command == "stability" and rng.random() < 0.3:
        argv += ["--measure", str(rng.choice(["one", "two", "inf"]))]
    return argv, {"c.json": _params(rng, model)}


def _paper_check_case(rng):
    argv, files = ["paper-check", "--config", "c.json"], {"c.json": _params(rng, "covid")}
    if rng.random() < 0.5:
        argv += ["--seir-config", "s.json"]
        files["s.json"] = _params(rng, "seir")
    return argv, files


def _simulate_case(rng):
    model = "covid" if rng.random() < 0.5 else "seir"
    d = 5 if model == "covid" else 3
    x0 = [float(rng.choice([0.0, -0.0, 5e-324, -1e-3])) if rng.random() < 0.2
          else float(rng.uniform(0, 3)) for _ in range(d)]
    dt = float(rng.choice([0.01, 0.05, 0.1]))
    steps = int(rng.integers(1, 201))
    argv = [*_MODELS[model][0], "simulate", "--config", "c.json", "--x0", ",".join(map(repr, x0)),
            "--dt", repr(dt), "--t-end", repr(steps * dt)]
    if rng.random() < 0.5:
        argv += ["--out", OUT]
    return argv, {"c.json": _params(rng, model)}


def _sweep_case(rng):
    model = "covid" if rng.random() < 0.5 else "seir"
    cls = _MODELS[model][1]
    name = str(rng.choice(cls.keys())) if rng.random() < 0.95 else "nope"
    points = int(rng.integers(1, 51))
    lo = 0.0 if rng.random() < 0.1 else float(10.0 ** rng.uniform(-6, 1))
    step = float(10.0 ** rng.uniform(-4, 0))
    hi = lo + (points - 1) * step
    argv = [*_MODELS[model][0], "r0", "--config", "c.json",
            "--sweep", f"{name}={lo!r}:{hi!r}:{step!r}"]
    if rng.random() < 0.5:
        argv += ["--out", OUT]
    return argv, {"c.json": _params(rng, model)}


def _compound_case(rng):
    n = int(rng.integers(1, 7))
    rows = [[_number(rng) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.03:
        rows[-1].append(1.0)  # a ragged file
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    argv = ["compound", "--matrix", "m.txt", "--k", str(int(rng.integers(0, n + 2))),
            "--mode", str(rng.choice(["additive", "multiplicative"]))]
    return argv, {"m.txt": text}


def _cubic_case(rng):
    coeffs = [repr(_number(rng)) for _ in range(4)]
    return (["cubic", "--", *coeffs] if rng.random() < 0.7 else ["cubic", *coeffs]), {}


# (kind, count, draw): the draws run in this order from one generator
_KINDS = (("r0", 100, lambda rng: _model_case(rng, "r0")),
          ("equilibria", 100, lambda rng: _model_case(rng, "equilibria")),
          ("stability", 240, lambda rng: _model_case(rng, "stability")),
          ("paper-check", 90, _paper_check_case),
          ("simulate", 90, _simulate_case),
          ("sweep", 100, _sweep_case),
          ("compound", 170, _compound_case),
          ("cubic", 110, _cubic_case),
          ("edge", 150, _edge_case))


def cases():
    """{name: (argv, {file name: text})} for every case, in draw order."""
    rng = np.random.default_rng(SEED)
    return {f"{kind}-{i:03d}": draw(rng) for kind, count, draw in _KINDS for i in range(count)}


def run(argv, files):
    """(exit code, stdout, stderr, bytes of ``OUT`` or None) of one run of
    ``main(argv)`` with ``files`` written to the current directory."""
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = None
    if os.path.exists(OUT):
        with open(OUT, "rb") as fh:
            written = fh.read()
        os.remove(OUT)
    return code, out.getvalue(), err.getvalue(), written


def outcome(argv, files):
    """[exit code, SHA-256 of stdout, of stderr, of ``OUT`` or None] of :func:`run`."""
    code, out, err, written = run(argv, files)
    return [code, _sha256(out.encode()), _sha256(err.encode()),
            None if written is None else _sha256(written)]


@contextlib.contextmanager
def _scratch_directory():
    os.environ["COLUMNS"] = COLUMNS
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def outcomes():
    """{name: outcome} of every case, run in a fresh temporary directory."""
    with _scratch_directory():
        return {name: outcome(*case) for name, case in cases().items()}


def _check():
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    all_cases, got = cases(), outcomes()
    differ = [name for name in all_cases if table.get(name) != got[name]]
    with _scratch_directory():
        for name in differ:
            argv, files = all_cases[name]
            code, _, err, _ = run(argv, files)
            print(f"{name}: epistab {' '.join(argv)}\n  files {files}\n"
                  f"  was {table.get(name)}\n  now {got[name]}\n  exit {code}, stderr {err!r}")
    print(f"{len(differ)} of {len(all_cases)} cases differ")
    return 1 if differ else 0


def _write():
    table = outcomes()
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in table.items()) + "\n}\n")
    print(f"{len(table)} cases written to {TABLE}")
    return 0


if __name__ == "__main__":
    sys.exit(_check() if sys.argv[1:] == ["--check"] else _write())
