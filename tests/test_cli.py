import hashlib
import json
import warnings

import numpy as np
import pytest
from reference import trajectory_from_csv

import epistab.cli as cli
from epistab import figure_params, r0_reduced, table_params
from epistab.cli import main
from epistab.covid import DegenerateSplittingError
from epistab.linalg import ConvergenceError, SingularMatrixError
from epistab.model import InfeasibleError
from epistab.sim import DivergenceError


@pytest.fixture
def covid_config(tmp_path):
    path = tmp_path / "covid.json"
    path.write_text(json.dumps(table_params(0.1).to_dict()))
    return str(path)


@pytest.fixture
def seir_config(tmp_path):
    path = tmp_path / "seir.json"
    path.write_text(json.dumps({"Lambda": 0.7, "beta1": 0.3, "beta2": 0.8,
                                "mu": 0.1, "gamma": 0.1, "d": 0.04}))
    return str(path)


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["r0"]) == 1  # missing --config
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_r0_command(covid_config, capsys):
    assert main(["r0", "--config", covid_config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["reduced"] == pytest.approx(4.8834628190899, abs=1e-9)
    assert out["full_dfe"] == pytest.approx(out["reduced"], abs=1e-8)


def test_r0_sweep_matches_formula_and_decreases(covid_config, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    assert main(["r0", "--config", covid_config,
                 "--sweep", "mu=0.005:0.74:0.015", "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "mu,R0"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 50
    p = table_params(0.1)
    for mu, r0 in rows:
        assert r0 == pytest.approx(r0_reduced(p.replace(mu=mu)), rel=1e-10)
    values = [r0 for _, r0 in rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert rows[0][0] == pytest.approx(0.005) and rows[-1][0] == pytest.approx(0.74)


def test_r0_sweep_bad_spec(covid_config, capsys):
    assert main(["r0", "--config", covid_config, "--sweep", "mu=1:0:0.1"]) == 1
    assert main(["r0", "--config", covid_config, "--sweep", "nope=0:1:0.1"]) == 1


def test_equilibria_command(covid_config, capsys):
    assert main(["equilibria", "--config", covid_config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dfe"]["state"][0] == pytest.approx(80.0)
    assert out["endemic"]["feasible"] is True
    assert out["endemic"]["residual"] < 1e-10


def test_equilibria_infeasible_exit_3(tmp_path, capsys):
    cfg = table_params(0.1).replace(beta1=0.05)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert main(["equilibria", "--config", str(path)]) == 3
    assert "unique" in capsys.readouterr().err


def test_config_requires_beta10(tmp_path, capsys):
    d = table_params(0.1).to_dict()
    del d["beta10"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert main(["r0", "--config", str(path)]) == 1
    assert "beta10" in capsys.readouterr().err


def test_stability_command(covid_config, capsys):
    assert main(["stability", "--config", covid_config, "--measure", "one"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["r0"]["threshold_verdict"] == "unstable"
    assert list(rep["verdicts"]["dfe"]["li_wang_sufficient"]) == ["one"]


def test_stability_at_beta1_equal_to_beta10_reports_the_disease_free_point(tmp_path, capsys):
    # the endemic ratios need E* = alpha / (beta1 - beta10); the
    # disease-free sections do not
    assert main(["stability", "--config", _config(tmp_path, beta10=0.6)]) == 0
    infeasible = json.loads(capsys.readouterr().out)
    assert main(["stability", "--config", _config(tmp_path, beta10=0.55)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads(out)
    assert sorted(rep) == sorted(infeasible)
    assert rep["equilibria"]["endemic"] == {"error": "endemic ratios undefined: beta1 == beta10"}
    assert list(rep["verdicts"]) == ["dfe"]
    assert main(["r0", "--config", _config(tmp_path, beta10=0.55)]) == 0
    assert rep["r0"]["reduced"] == json.loads(capsys.readouterr().out)["reduced"] == 0.977560542102


def test_simulate_writes_csv_and_audit(covid_config, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    assert main(["simulate", "--config", covid_config, "--x0", "1,1,1,1,1",
                 "--dt", "0.01", "--t-end", "2.0", "--out", str(out_csv)]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert audit["min_component"] > -1e-9
    traj = trajectory_from_csv(out_csv.read_text())
    assert traj.states.shape == (201, 5)
    assert out_csv.read_text().splitlines()[0] == "t,E,I,C,H,D"


def test_simulate_rejects_negative_x0(covid_config, seir_config, capsys):
    for argv in (["simulate", "--config", covid_config, "--x0", "1,-1,1,1,1"],
                 ["seir", "simulate", "--config", seir_config, "--x0", "1,-0.5,0.2"]):
        assert main(argv + ["--t-end", "1.0", "--out", "-"]) == 1
        assert capsys.readouterr() == (
            "", "usage error: compartment populations must be finite and >= 0\n")


def test_simulate_divergence_exit_2(covid_config, capsys):
    code = main(["simulate", "--config", covid_config, "--x0",
                 "1e160,1e160,0,0,0", "--dt", "0.01", "--t-end", "1.0",
                 "--out", "-"])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_simulate_rejects_a_partial_last_step(covid_config, seir_config, capsys):
    for argv in (["simulate", "--config", covid_config, "--x0", "1,1,1,1,1"],
                 ["seir", "simulate", "--config", seir_config, "--x0", "1,0.5,0.2"]):
        assert main(argv + ["--dt", "0.05", "--t-end", "0.02", "--out", "-"]) == 1
        assert capsys.readouterr() == (
            "", "usage error: t_end must be a whole number of steps of dt, got t_end/dt = 0.4\n")


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# SHA-256 of the trajectory CSV, stdout and stderr of the README's two
# ``simulate`` examples (dt = 0.01, T = 50); the model arithmetic is only
# +, - and *, so these bytes do not depend on the platform's libm
README_SIMULATE = {
    "covid": ("7d843efd1f36418baad2cf5cb353605374355e06719cdd9306b7f4af0ce03b7f",
              "d758f61a5f692d9c66fbeda71676ef8413efa56cc18b736f78920bd11afd9931",
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "seir": ("6fb697259abb874e5a52133c99e81d6d7a7f72372cc12a2702a02c7e09e1a598",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("model", sorted(README_SIMULATE))
def test_readme_simulate_golden_bytes(model, covid_config, seir_config, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    argv = (["simulate", "--config", covid_config, "--x0", "1,1,1,1,1"] if model == "covid"
            else ["seir", "simulate", "--config", seir_config, "--x0", "1,0.5,0.2"])
    assert main(argv + ["--dt", "0.01", "--t-end", "50", "--out", str(out_csv)]) == 0
    out, err = capsys.readouterr()
    assert (_sha256(out_csv.read_bytes()), _sha256(out.encode()),
            _sha256(err.encode())) == README_SIMULATE[model]


# the README's other examples: argv with {covid}, {seir}, {matrix} and {out}
# filled in, and the SHA-256 of stdout and of the --out file (None without
# one); stderr stays empty.  The compound matrix holds a -0.0 entry.
README_COMMANDS = {
    "r0": ("r0 --config {covid}",
           "f30d58c7c2484b8909ad1dd34d4362cbc1f862203f2dcdb6983800388746b310", None),
    "r0-sweep": ("r0 --config {covid} --sweep mu=0.005:0.74:0.015 --out {out}",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                 "b443be980817aca9128bcf9643cec7b785759df191174a02dc001ec44a77078e"),
    "equilibria": ("equilibria --config {covid}",
                   "2c3cd90573d3443d54dbb36536dfa9e013583e9fb717fc060e246cd732c1f0e4", None),
    "stability": ("stability --config {covid} --measure one",
                  "734fe1903deafc0512d2d390ee99f58155ad828dfd3f83b3b7da38c8f4f0aa09", None),
    "compound-additive": (
        "compound --matrix {matrix} --k 2 --mode additive",
        "9311c8228634e97963dd789c19a1b6f361628d76f1caa90224cf7a47213ff552", None),
    "compound-multiplicative": (
        "compound --matrix {matrix} --k 2 --mode multiplicative",
        "9ca44f4bc2d1d6bd5e1c6695c9973d74e04bce178ebfca3afdb821d6d343435a", None),
    "cubic": ("cubic 1 -6 11 -6",
              "d4ab51ee617c5e8c2ad8d44ac02ba1dd1a3176548e2069e002343bf87c0d3ce7", None),
    "paper-check": ("paper-check --config {covid}",
                    "e499e053521c3382545721bd6b1eedf852a26c83e2c60ee361cf6628b3d038c4", None),
    "seir-r0": ("seir r0 --config {seir}",
                "319dc5c855c5d456b1a85764de31ca5f99a41c251bb57912e41ec2cbc7196d29", None),
    "seir-r0-sweep": ("seir r0 --config {seir} --sweep mu=0.05:1.0:0.05 --out {out}",
                      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                      "0a609c6f3898f4c03153b31a01c13ca2c14d05fe21c21688108ed30b70dfe925"),
    "seir-equilibria": ("seir equilibria --config {seir}",
                        "9e4f25c83014de1919d4ceee12c4fc69830522068c638e08d145180218a4f285", None),
    "seir-stability": ("seir stability --config {seir} --measure inf",
                       "9d3053c4d0b23bb7ffe911f3a214afd606ed868cfdaf8082f9f75e9052948b8d", None),
}


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_golden_bytes(name, covid_config, seir_config, tmp_path, capsys):
    command, stdout_sha, out_sha = README_COMMANDS[name]
    matrix = tmp_path / "m.txt"
    matrix.write_text("1.5,-0.0,2,0.25\n-1,3,0.5,-2\n0,4,-3,1\n2.5,-0.5,1,-1\n")
    out_path = tmp_path / "out.csv"
    argv = command.format(covid=covid_config, seir=seir_config, matrix=matrix,
                          out=out_path).split()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out.encode()) == stdout_sha
    assert (_sha256(out_path.read_bytes()) if out_path.exists() else None) == out_sha


def test_parser_is_built_once_and_reused(covid_config, monkeypatch, capsys):
    progs = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kw):
        progs.append(kw.get("prog"))
        init(self, *args, **kw)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["cubic", "1", "-6", "11", "-6"]) == 0
    assert main(["r0", "--config", covid_config, "--sweep", "mu=1:0:0.1"]) == 1
    assert main(["seir", "no-such-command"]) == 1
    assert main(["equilibria", "--config", covid_config]) == 0
    assert progs.count("epistab") == 1
    built = len(progs)
    fresh = cli.build_parser.__wrapped__()
    assert len(progs) == 2 * built  # one build constructs every subparser once
    assert cli.build_parser() is cli.build_parser()
    assert cli.build_parser().format_help() == fresh.format_help()


def _config(tmp_path, **changes):
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(table_params(0.1).replace(**changes).to_dict()))
    return str(path)


# SHA-256 of the ``paper-check`` report for three more configs: beta10 = 0.2,
# beta10 = 0.6 (beta1 < beta10, so no feasible endemic point) and a
# three-compartment set other than the figure set, passed with --seir-config
PAPER_CHECK_GOLDENS = {
    "beta10-0.2": ({"beta10": 0.2}, None,
                   "cbea0dc80974ef4de01793ce65b36c629e2938de004013abb6424e05441d545b"),
    "beta10-0.6": ({"beta10": 0.6}, None,
                   "115b0aeadba5f20588a7a513e73f56e6181609f707b12b594a505893a5231161"),
    "seir-config": ({}, {"Lambda": 1.2, "beta1": 0.4, "beta2": 0.5, "mu": 0.2,
                         "gamma": 0.15, "d": 0.05},
                    "de5f2fc2058213c3c2958a8d18320a68a5d6fd39978555de37be43d345d83926"),
}


@pytest.mark.parametrize("name", sorted(PAPER_CHECK_GOLDENS))
def test_paper_check_golden_bytes(name, tmp_path, capsys):
    changes, seir_params, stdout_sha = PAPER_CHECK_GOLDENS[name]
    argv = ["paper-check", "--config", _config(tmp_path, **changes)]
    if seir_params is not None:
        seir_path = tmp_path / "seir.json"
        seir_path.write_text(json.dumps(seir_params))
        argv += ["--seir-config", str(seir_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out.encode()) == stdout_sha


# SHA-256 of stdout of the model commands off the README parameters: the
# five-compartment ``r0`` and ``stability`` (all three measures) at
# beta10 = 0.2 and 0.6 (a = beta1 - beta10 < 0), and the three-compartment
# commands at the second parameter set of PAPER_CHECK_GOLDENS
MODEL_GOLDENS = {
    "r0-beta10-0.2": ("r0", {"beta10": 0.2},
                      "7ce03db53eadadb1982147312ee43587c1523312b0343a0093edcb28dbb94b11"),
    "r0-beta10-0.6": ("r0", {"beta10": 0.6},
                      "357bd026069ecd23e46dab447c3520fa291e687c34278af393204a9a0e82cdda"),
    "stability-beta10-0.2": ("stability", {"beta10": 0.2},
                             "588d0aa4bc7314a3a1d26301b5e01606b997e38f1fc8d01ec524d5674b2feda3"),
    "stability-beta10-0.6": ("stability", {"beta10": 0.6},
                             "9a621489d874e65aa4422b39e3d95193054433cef84d130e020f0d8e836778c9"),
    "seir-r0": ("seir r0", None,
                "b6b59634976bf4b8b0f715a9377937b2f82735dd3b686a7309ae6466cdc05df8"),
    "seir-equilibria": ("seir equilibria", None,
                        "bed9304b26286cc87b0b8090bef8836559f7b3c71702a64fd0953524bc6a49bc"),
    "seir-stability": ("seir stability", None,
                       "b3c612c7c303fdcb00ba9a244e1dcfb83836fa0769ff7a3627b2cb70660a23a9"),
}


@pytest.mark.parametrize("name", sorted(MODEL_GOLDENS))
def test_model_command_golden_bytes(name, tmp_path, capsys):
    command, changes, stdout_sha = MODEL_GOLDENS[name]
    if changes is None:
        config = tmp_path / "seir.json"
        config.write_text(json.dumps(PAPER_CHECK_GOLDENS["seir-config"][1]))
    else:
        config = _config(tmp_path, **changes)
    assert main(command.split() + ["--config", str(config)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out.encode()) == stdout_sha


@pytest.mark.parametrize("doc, message", [
    ({"B": None}, "parameter B must be a number, got None"),
    ({"mu": [0.01]}, "parameter mu must be a number, got [0.01]"),
    ({"beta10": True}, "parameter beta10 must be a number, got True"),
    ({"beta3": "0.6"}, "parameter beta3 must be a number, got '0.6'"),
    (5, "parameters must be a JSON object, got int"),
    ([0.8, 0.01], "parameters must be a JSON object, got list"),
])
def test_parameter_values_that_are_not_numbers_are_usage_errors(doc, message, tmp_path, capsys):
    if isinstance(doc, dict):
        doc = dict(table_params(0.1).to_dict(), **doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for command in ("r0", "paper-check"):
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_nan_equilibrium_residual_exit_2(tmp_path, capsys):
    assert main(["equilibria", "--config", _config(tmp_path, B=1e300, mu=1e-300)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: dfe equilibrium residual nan exceeds gate")


@pytest.mark.parametrize("command", ["r0", "equilibria", "stability",
                                     "seir r0", "seir equilibria", "seir stability"])
def test_single_point_commands_at_mu_0_are_usage_errors(command, tmp_path, capsys):
    params = figure_params() if command.startswith("seir") else table_params(0.1)
    config = tmp_path / "mu0.json"
    config.write_text(json.dumps(params.replace(mu=0.0).to_dict()))
    assert main(command.split() + ["--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and "needs mu > 0" in err


@pytest.mark.parametrize("mu", [0.0, 1e-320])
def test_simulate_audit_without_a_finite_region_bound(mu, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    assert main(["simulate", "--config", _config(tmp_path, mu=mu), "--x0", "1,1,1,1,1",
                 "--dt", "0.01", "--t-end", "1.0", "--out", str(out_csv)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    audit = json.loads(out)
    assert audit["region_bound"] is None
    assert audit["initially_inside_region"] and audit["finally_inside_region"]
    assert not audit["region_exited"] and not audit["region_entered"]
    assert len(out_csv.read_text().splitlines()) == 102


def test_non_finite_output_exit_2(covid_config, tmp_path, capsys):
    assert main(["cubic", "1e-310", "1", "1", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: ")
    out_csv = tmp_path / "sweep.csv"
    for dest in ("-", str(out_csv)):  # R0 overflows to inf at beta1 = 1e308
        assert main(["r0", "--config", covid_config,
                     "--sweep", "beta1=1e308:1e308:1", "--out", dest]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numeric failure: non-finite R0 inf")
    assert not out_csv.exists()
    mat = tmp_path / "m.txt"
    for text, mode, value in (("1e200,1e200\n1e200,-1e200\n", "multiplicative", "-inf"),
                              ("1e308,1\n1,1e308\n", "additive", "inf")):
        mat.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would reach stderr
            assert main(["compound", "--matrix", str(mat), "--k", "2", "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numeric failure: non-finite entry {value} in the compound\n"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ArithmeticError):
            cli._fmt({"x": [1.0, bad]})


def _exit_case(exc, code, message, **kw):
    return pytest.param(exc, code, message, id=type(exc).__name__, **kw)


# each exception class that ``main`` handles, with its exit code and message
EXIT_CODES = [
    _exit_case(cli.UsageError("u"), 1, "usage error: u\n"),
    _exit_case(ValueError("v"), 1, "usage error: v\n"),
    _exit_case(OSError("o"), 1, "usage error: o\n"),
    _exit_case(InfeasibleError("i"), 3, "infeasible: i\n"),
    _exit_case(DegenerateSplittingError("g"), 2, "numeric failure: g\n"),
    _exit_case(SingularMatrixError("s", 0.0), 2, "numeric failure: s (pivot magnitude 0.000e+00)\n"),
    _exit_case(ConvergenceError("c"), 2, "numeric failure: c\n"),
    _exit_case(DivergenceError(1.5), 2, "numeric failure: non-finite state at t = 1.5\n"),
    _exit_case(ArithmeticError("a"), 2, "numeric failure: a\n"),
    _exit_case(np.linalg.LinAlgError("l"), 2, "numeric failure: l\n"),
]


@pytest.mark.parametrize("exc, code, message", EXIT_CODES)
def test_exit_code_of_each_handled_exception(exc, code, message, monkeypatch, capsys):
    def handler(args):
        raise exc
    monkeypatch.setattr(cli, "_cmd_cubic", handler)
    assert main(["cubic", "1", "-6", "11", "-6"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(message)  # a usage error also prints the usage line


def test_compound_command(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text("1.5,2\n3,-0.5\n")
    assert main(["compound", "--matrix", str(mat), "--k", "2", "--mode", "additive"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.0)  # the trace
    assert main(["compound", "--matrix", str(mat), "--k", "2",
                 "--mode", "multiplicative"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(1.5 * -0.5 - 2 * 3)
    assert main(["compound", "--matrix", str(mat), "--k", "3"]) == 1  # k > n
    mat.write_text("0,0,0\n0,0,0\n0,0,0\n")  # -a13 and -a31 print as -0
    assert main(["compound", "--matrix", str(mat), "--k", "2"]) == 0
    assert capsys.readouterr().out == "0,0,-0\n0,0,0\n-0,0,0\n"


def test_sizes_over_the_cap_are_usage_errors(covid_config, tmp_path, capsys):
    mat = tmp_path / "eye46.txt"  # C(46,2)^2 = 1,071,225 entries
    mat.write_text("\n".join(",".join("1" if i == j else "0" for j in range(46))
                             for i in range(46)) + "\n")
    for argv, size in (
            (["r0", "--config", covid_config, "--sweep", "mu=0.01:inf:0.01"], "inf"),
            (["r0", "--config", covid_config, "--sweep", "mu=1:1000001:1"], "1000001"),
            (["simulate", "--config", covid_config, "--x0", "1,1,1,1,1", "--t-end", "1e12"],
             "1e+14"),
            (["simulate", "--config", covid_config, "--x0", "1,1,1,1,1", "--dt", "0.1",
              "--t-end", "100000"], "1000001"),
            (["compound", "--matrix", str(mat), "--k", "2"], "1071225")):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage error: ") and f" {size} exceeds the limit of 1000000\n" in err


def test_degenerate_splitting_exit_2(tmp_path, capsys):
    path = tmp_path / "degenerate.json"  # alpha equals (beta1 - beta10) * B / mu
    path.write_text(json.dumps(table_params(0.537375).to_dict()))
    assert main(["paper-check", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: splitting degenerate")


def test_compound_rejects_ragged_matrix(tmp_path, capsys):
    mat = tmp_path / "bad.txt"
    mat.write_text("1,2\n3\n")
    assert main(["compound", "--matrix", str(mat), "--k", "2"]) == 1


def test_cubic_command(capsys):
    assert main(["cubic", "1", "-6", "11", "-6"]) == 0
    out = json.loads(capsys.readouterr().out)
    roots = sorted(r[0] for r in out["roots"]["roots"])
    np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-9)
    assert out["roots"]["klass"] == "three_real"
    assert out["routh_hurwitz"]["outcome"] == "unstable"


def test_seir_commands(seir_config, tmp_path, capsys):
    assert main(["seir", "r0", "--config", seir_config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["r0"] == pytest.approx(30.5, abs=1e-9)

    assert main(["seir", "equilibria", "--config", seir_config]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["endemic"]["feasible"] is True

    assert main(["seir", "stability", "--config", seir_config]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["conditions"]["c2_compound_row_sums_negative"] is True

    assert main(["seir", "stability", "--config", seir_config, "--measure", "inf"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert list(rep["verdicts"]["endemic"]["li_wang_sufficient"]) == ["inf"]

    out_csv = tmp_path / "seir.csv"
    assert main(["seir", "simulate", "--config", seir_config, "--x0", "1,0.5,0.2",
                 "--dt", "0.01", "--t-end", "1.0", "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines()[0] == "t,S,I1,I2"

    sweep_csv = tmp_path / "seir_sweep.csv"
    assert main(["seir", "r0", "--config", seir_config,
                 "--sweep", "mu=0.05:1.0:0.05", "--out", str(sweep_csv)]) == 0
    rows = [tuple(map(float, ln.split(",")))
            for ln in sweep_csv.read_text().strip().splitlines()[1:]]
    values = [r for _, r in rows]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_paper_check_command(covid_config, capsys):
    assert main(["paper-check", "--config", covid_config]) == 0
    claims = json.loads(capsys.readouterr().out)
    by_id = {c["claim_id"]: c for c in claims}
    assert by_id["covid_jacobian_entry_2_1"]["verdict"] == "flagged"
    assert by_id["covid_jacobian_entry_2_1"]["max_abs_diff"] > 0
    assert by_id["seir_jacobian"]["verdict"] == "match"
    assert len(by_id) == len(claims)


def test_sweep_csv_round_trip(covid_config, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    main(["r0", "--config", covid_config, "--sweep", "beta10=0.1:1.0:0.1",
          "--out", str(out_csv)])
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "beta10,R0"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 10
    assert rows[0][0] == pytest.approx(0.1) and rows[-1][0] == pytest.approx(1.0)
