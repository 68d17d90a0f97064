import functools
import hashlib
import json
import linecache
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from reference import (
    matrix_text_per_entry,
    mult_compound_closed,
    sweep_csv_per_point,
    trajectory_from_csv,
)

import epistab.cli as cli
import epistab.compound as compound
import epistab.covid as covid
import epistab.linalg as linalg
import epistab.paper_check as paper_check
import epistab.seir as seir
import epistab.sim as sim
import epistab.stability as stability
from epistab import cubic_stability, figure_params, r0_reduced, table_params
from epistab.cli import main
from epistab.paper_check import DegenerateSplittingError, chi_cubic
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


def _kept_measure(report, measure):
    """``report`` with each sufficient-verdict map cut down to ``measure``."""
    kept = json.loads(json.dumps(report))
    for spot in kept["verdicts"].values():
        spot["li_wang_sufficient"] = {measure: spot["li_wang_sufficient"][measure]}
    return kept


def test_stability_command(covid_config, capsys):
    assert main(["stability", "--config", covid_config, "--measure", "one"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["r0"]["threshold_verdict"] == "unstable"
    assert list(rep["verdicts"]["dfe"]["li_wang_sufficient"]) == ["one"]
    assert main(["stability", "--config", covid_config]) == 0
    unfiltered = json.loads(capsys.readouterr().out)
    assert list(rep["verdicts"]) == ["dfe", "endemic"]
    assert rep == _kept_measure(unfiltered, "one")


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


def test_stability_without_endemic_ratios_keeps_the_disease_free_sections(tmp_path, capsys):
    # beta2 = beta8 = 0: alpha_hat and beta_hat have a zero denominator, so
    # only the sections that need them carry an error
    message = "endemic ratios undefined: beta2*beta3 + beta8*(beta3+beta5+mu) vanishes"
    assert main(["stability", "--config", _config(tmp_path, beta2=0.0, beta8=0.0)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads(out)
    assert rep["unique_dfe_conditions"] == {"error": message}
    assert rep["equilibria"]["endemic"] == {"error": message}
    assert list(rep["verdicts"]) == ["dfe"]
    assert rep["r0"]["threshold_verdict"] == "unstable"
    assert set(rep) == {"params", "r0", "unique_dfe_conditions", "dfe_determinant",
                        "dfe_compound_dominance", "equilibria", "verdicts"}


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


def test_simulate_runs_compile_one_kernel_per_state_size(covid_config, seir_config, tmp_path):
    # one inlined kernel per model flow function; no run takes the call path
    sim._inlined_kernel.cache_clear()
    sim._float_kernel.cache_clear()
    for _ in range(2):
        for argv in (["simulate", "--config", covid_config, "--x0", "1,1,1,1,1"],
                     ["seir", "simulate", "--config", seir_config, "--x0", "1,0.5,0.2"]):
            out = str(tmp_path / "traj.csv")
            assert main(argv + ["--dt", "0.01", "--t-end", "1", "--out", out]) == 0
    info = sim._inlined_kernel.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert sim._float_kernel.cache_info().currsize == 0


def test_simulate_integrates_the_flow_functions_bound_at_import(covid_config, seir_config,
                                                                tmp_path, capsys, monkeypatch):
    # rebinding the model flow functions does not move simulate onto the call
    # path: no integration step calls the wrappers, and the runs write the
    # README bytes; covid's invariance audit makes its one batch rhs call
    calls = Counter()
    for module, name in ((covid, "flows"), (seir, "flows3")):
        def counting(*args, name=name, original=getattr(module, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counting)
    for model in sorted(README_SIMULATE):
        calls.clear()
        test_readme_simulate_golden_bytes(model, covid_config, seir_config, tmp_path, capsys)
        assert calls == ({"flows": 1} if model == "covid" else {})


def test_simulate_inlines_the_model_flows_without_their_source(covid_config, seir_config,
                                                               tmp_path, capsys, monkeypatch):
    # the flows are traced by one call, not read: with no source lines to
    # read, both are still inlined and the runs write the README bytes
    monkeypatch.setattr(linecache, "getlines", lambda *args: [])
    sim._inlined_kernel.cache_clear()
    for flows, p, d in ((covid.flows, table_params(0.1), 5), (seir.flows3, figure_params(), 3)):
        assert sim._single_state_kernel(functools.partial(flows, p), d) is not sim._float_kernel(d)
    for model in sorted(README_SIMULATE):
        test_readme_simulate_golden_bytes(model, covid_config, seir_config, tmp_path, capsys)


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


def _seeded_paper_check_params():
    """Twenty (covid, three-compartment) parameter dicts: every value of the
    table and figure sets scaled by its own factor drawn from [0.5, 1.5)."""
    rng = np.random.default_rng(20261019)
    covid, sp = table_params(0.1).to_dict(), figure_params().to_dict()
    for _ in range(20):
        cs, ss = rng.uniform(0.5, 1.5, size=len(covid)), rng.uniform(0.5, 1.5, size=len(sp))
        yield ({k: float(v * f) for (k, v), f in zip(covid.items(), cs)},
               {k: float(v * f) for (k, v), f in zip(sp.items(), ss)})


# SHA-256 of the ``paper-check`` report for each set of _seeded_paper_check_params
SEEDED_PAPER_CHECK_GOLDENS = [
    "44094ce33bf2f7cbba68da1ff403e21bf2fde388a54ec7672f61e5afc87098ae",
    "424831f12dfa7dea02772f30c5d6df78224fb2d4abf580a5973eb059292a6994",
    "a793ae3118a0deddd3d482104e8d54dd44915b2f5fe6e45aae28066cbec518e5",
    "888258adfbf8f77dff2b24a4a17ce221bf15b84a6292f7d87ce621dba7304b55",
    "977b3f6993772d9eaaa4fa0c1f037aba2bcfb6f6ab589c52cb8926966eeddc12",
    "1bb527288f1ee54e34d425c7ac05ac9f403b5e5de0e1671bd6a51ca45ff138ec",
    "6cd3a88fbed84ab074c35b2b5c69fb0a0eeaa7fa8e423207bbe8d35ac8eafeba",
    "56693bad6e957de580d6193a34d60dbd690e5f96363a556d2995331d314eb17a",
    "b4948d59dca01f25c618a23873ab03c744d45876cf313bb568a3d689657081fe",
    "35bdcb442b0931b0c1c2a78c04d2c19256371f87fd3df02b02144e81fafa8066",
    "2bc9e31d98c6ecdad4a46e5dc244fa3a1fefb0d33e798627ec406e38fb4b81d5",
    "717940bdedd3cbb663e12830d80b56e8489cf700180294fd337c9da41e7b33a9",
    "059f5ea83f0a3af6822ef5d9d32dd59df76436c16b536316713307df56c8c370",
    "d0912c4b0977d61b0c2e15ac12078f7940af8cf825fda37c567806a772b36db8",
    "94d4335f0ac268a53798871adabcc0dc6ecfe56358f6704f19aca6a83f354f9c",
    "e2b188c3d70acc0bc223664b09e67ae6fdb327a4412a044385ebd7a2e0643ac4",
    "abd4816849b961d3b4c0ecee7646731322901c65567c27ec525e1b0edbad463a",
    "f244acf8983d8436de0f586c24c685ffdf7c98a6c7780933c1fe1d53b9ac1753",
    "27670a8c3fe814842df8416ed845692209c74904701d2bba3672f325af9fe0ec",
    "7643bb22bfc55960d6ebabdefdc21f4f0d1300244625fac36cc8e00e92edc4db",
]


def test_seeded_paper_check_golden_bytes(tmp_path, capsys):
    covid_path, seir_path = tmp_path / "covid.json", tmp_path / "seir.json"
    shas = []
    for covid_params, seir_params in _seeded_paper_check_params():
        covid_path.write_text(json.dumps(covid_params))
        seir_path.write_text(json.dumps(seir_params))
        assert main(["paper-check", "--config", str(covid_path),
                     "--seir-config", str(seir_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        shas.append(_sha256(out.encode()))
    assert shas == SEEDED_PAPER_CHECK_GOLDENS


def test_seeded_paper_check_golden_bytes_twice_in_one_process(tmp_path, capsys):
    # the second pass writes the seeded claims from their text rendered in the first
    covid_path, seir_path = tmp_path / "covid.json", tmp_path / "seir.json"
    for _ in range(2):
        shas = []
        for covid_params, seir_params in _seeded_paper_check_params():
            covid_path.write_text(json.dumps(covid_params))
            seir_path.write_text(json.dumps(seir_params))
            assert main(["paper-check", "--config", str(covid_path),
                         "--seir-config", str(seir_path)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            shas.append(_sha256(out.encode()))
        assert shas == SEEDED_PAPER_CHECK_GOLDENS


def test_seeded_claims_are_rendered_once_per_process(covid_config, monkeypatch, capsys):
    claims, nodes = paper_check.seeded_claims(), cli._seeded_claims()
    assert main(["paper-check", "--config", covid_config]) == 0
    first = capsys.readouterr().out
    texts = [nodes[id(c)] for c in claims]
    assert texts == [cli._json(c.to_dict(), "\n  ") for c in claims]
    assert all(text in first for text in texts)
    rendered = []
    original = cli._json

    def spy(value, indent="\n"):
        rendered.append(value)
        return original(value, indent)

    monkeypatch.setattr(cli, "_json", spy)
    assert main(["paper-check", "--config", covid_config]) == 0
    assert capsys.readouterr().out == first
    assert all(nodes[id(c)] is text for c, text in zip(claims, texts))
    # every other claim is rendered anew, the seeded ones never
    rendered_ids = [v["claim_id"] for v in rendered if isinstance(v, dict) and "claim_id" in v]
    assert len(rendered_ids) == first.count('"claim_id"') - len(claims)
    assert not {c.claim_id for c in claims} & set(rendered_ids)


@pytest.mark.parametrize("command", ["r0", "stability", "paper-check"])
def test_pivot_floor_refuses_v_at_mu_1e_minus_9(command, tmp_path, capsys):
    # V is invertible at the disease-free point (det V > 0), but its (1,1)
    # pivot mu is below 1e-13 of its largest row sum, which holds beta1*B/mu
    assert main([command, "--config", _config(tmp_path, mu=1e-9)]) == 2
    assert capsys.readouterr() == (
        "", "numeric failure: matrix is singular to working precision (pivot magnitude 1.000e-09)\n")


def test_seir_r0_with_mu_plus_gamma_far_below_mu_plus_d(tmp_path, capsys):
    # V = [[-(mu+gamma), 0], [gamma, -(mu+d)]] is invertible; a pivoted LU's
    # floor, 1e-13 of the largest row sum, would refuse its pivot 2e-15
    path = tmp_path / "seir.json"
    path.write_text(json.dumps({"Lambda": 0.7, "beta1": 0.3, "beta2": 0.8, "mu": 1e-15,
                                "gamma": 1e-15, "d": 0.04}))
    assert main(["seir", "r0", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert err == "" and rep["ngm_spectral_radius"] == pytest.approx(rep["r0"], rel=1e-12)


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


# the points where a step of a model command fails or a guard decides: the
# five-compartment commands run off the table parameters (beta10 = 0.1), the
# three-compartment ones off the figure set
FAILURE_POINTS = {
    "covid": {"mu-0": {"mu": 0.0},
              "beta10-0.6": {"beta10": 0.6},
              "beta10-0.55": {"beta10": 0.55},
              "beta7-0": {"beta7": 0.0},
              "B-1e300-mu-1e-300": {"B": 1e300, "mu": 1e-300},
              "beta2-beta8-0": {"beta2": 0.0, "beta8": 0.0}},
    "seir": {"mu-0": {"mu": 0.0},
             "beta1-beta2-0": {"beta1": 0.0, "beta2": 0.0},
             "Lambda-0": {"Lambda": 0.0}},
}

# SHA-256 of [exit code, stdout, stderr] as JSON for each command at each of
# its failure points; an error message names the first step that fails, so
# these also pin the order in which a command evaluates its steps
FAILURE_GOLDENS = {
    ("r0", "mu-0"):
        "79178896f6482639bf7778aba4d460be70463386b1556f91d910222431b065b5",
    ("r0", "beta10-0.6"):
        "c14458da666832af32f4ed61ed21d12ad8c56b83fc05ef86310bce24184d85f3",
    ("r0", "beta10-0.55"):
        "4e9ba27d95c07b112e6850f9d97fca21a048144db7f6870244f62f67ad0defca",
    ("r0", "beta7-0"):
        "40575fc68954069b853e0a97abaddca3b6fb6d03c35bc89f46578273a6b2d49d",
    ("r0", "B-1e300-mu-1e-300"):
        "8c9f63b3193a7e0e45d854f4a95d923d402efa337447dc9e4c1b4c6e9d0108cb",
    ("r0", "beta2-beta8-0"):
        "4786aa95a08ca4868253e937030487a48798eb434761100fe8d0f39f1d6346d4",
    ("equilibria", "mu-0"):
        "79178896f6482639bf7778aba4d460be70463386b1556f91d910222431b065b5",
    ("equilibria", "beta10-0.6"):
        "bc3f73b6c3715cf95301821960f78fc8fc46f06805f9c644828a11e36eb9a1a8",
    ("equilibria", "beta10-0.55"):
        "e82f9d1242ec09bb0868e4519656be5eb833dee29e82ed875d31b9642ee8bbcb",
    ("equilibria", "beta7-0"):
        "55fe73f736b95969125848458af1b8692a6b76dbdbfdd5e530f4d65ce2dd0fc0",
    ("equilibria", "B-1e300-mu-1e-300"):
        "8c9f63b3193a7e0e45d854f4a95d923d402efa337447dc9e4c1b4c6e9d0108cb",
    ("equilibria", "beta2-beta8-0"):
        "3236eecc204516c10dfd10343ed693d0014cb855a26070707e208da12f8e7ff0",
    ("stability", "mu-0"):
        "79178896f6482639bf7778aba4d460be70463386b1556f91d910222431b065b5",
    ("stability", "beta10-0.6"):
        "82f38cbe03149e1e04aa711571b02451d3b807e1d39fedcf17d357a4aa78ce52",
    ("stability", "beta10-0.55"):
        "6c3b3799690a186fe54199b6e1d4124969f476ada89f4c1bba7a3e739d9a5e8c",
    ("stability", "beta7-0"):
        "40575fc68954069b853e0a97abaddca3b6fb6d03c35bc89f46578273a6b2d49d",
    ("stability", "B-1e300-mu-1e-300"):
        "8c9f63b3193a7e0e45d854f4a95d923d402efa337447dc9e4c1b4c6e9d0108cb",
    ("stability", "beta2-beta8-0"):  # exit 0, the endemic-ratio sections hold the error
        "c2fe1827c30c45ac4f36f4841db43fe13c5e7d61cb6fa5e268a3bc04ee55b8d7",
    ("paper-check", "mu-0"):
        "79178896f6482639bf7778aba4d460be70463386b1556f91d910222431b065b5",
    ("paper-check", "beta10-0.6"):
        "2d973fab3e4c751d206ae97a9aea175d47d13dbcd520e301a868a0865e54b63c",
    ("paper-check", "beta10-0.55"):
        "e82f9d1242ec09bb0868e4519656be5eb833dee29e82ed875d31b9642ee8bbcb",
    ("paper-check", "beta7-0"):
        "55fe73f736b95969125848458af1b8692a6b76dbdbfdd5e530f4d65ce2dd0fc0",
    ("paper-check", "B-1e300-mu-1e-300"):
        "8c9f63b3193a7e0e45d854f4a95d923d402efa337447dc9e4c1b4c6e9d0108cb",
    ("paper-check", "beta2-beta8-0"):
        "3236eecc204516c10dfd10343ed693d0014cb855a26070707e208da12f8e7ff0",
    ("seir r0", "mu-0"):
        "c0a88145b2b7a3f1821ae03bf895c7a6faadd99557104b16ca4062dd798b34c8",
    ("seir r0", "beta1-beta2-0"):
        "91c2f05e3abc5f7dd19af3b1876b9591e2b17b3978f7f50acb5db729455bdabf",
    ("seir r0", "Lambda-0"):
        "91c2f05e3abc5f7dd19af3b1876b9591e2b17b3978f7f50acb5db729455bdabf",
    ("seir equilibria", "mu-0"):
        "79178896f6482639bf7778aba4d460be70463386b1556f91d910222431b065b5",
    ("seir equilibria", "beta1-beta2-0"):
        "4fc98b2fd49785ba8ced32be93ed48d8abbb8b669525bd85f034432f791eada4",
    ("seir equilibria", "Lambda-0"):
        "0020de764fc6923964ac7d41d5e4722cc43bfdcc1ca3c54911c1ec3844a9c737",
    ("seir stability", "mu-0"):
        "c0a88145b2b7a3f1821ae03bf895c7a6faadd99557104b16ca4062dd798b34c8",
    ("seir stability", "beta1-beta2-0"):
        "4fc98b2fd49785ba8ced32be93ed48d8abbb8b669525bd85f034432f791eada4",
    ("seir stability", "Lambda-0"):
        "8c2b47c2dac006bdcbd070c261aaf5404c350ad9a7d85391a54859c3f24d922e",
}


@pytest.mark.parametrize("command, point", sorted(FAILURE_GOLDENS),
                         ids=lambda v: v.replace(" ", "-"))
def test_model_command_failure_golden_bytes(command, point, tmp_path, capsys):
    model, params = ("seir", figure_params()) if command.startswith("seir") else (
        "covid", table_params(0.1))
    config = tmp_path / "params.json"
    config.write_text(json.dumps(params.replace(**FAILURE_POINTS[model][point]).to_dict()))
    code = main(command.split() + ["--config", str(config)])
    out, err = capsys.readouterr()
    assert _sha256(json.dumps([code, out, err]).encode()) == FAILURE_GOLDENS[command, point]


@pytest.mark.parametrize("doc, message", [
    ({"B": None}, "parameter B must be a number, got None"),
    ({"mu": [0.01]}, "parameter mu must be a number, got [0.01]"),
    ({"beta10": True}, "parameter beta10 must be a number, got True"),
    ({"beta3": "0.6"}, "parameter beta3 must be a number, got '0.6'"),
    (5, "parameters must be a JSON object, got int"),
    ([0.8, 0.01], "parameters must be a JSON object, got list"),
    ({"B": 10**400}, "parameter B must be finite and >= 0, got inf"),
    ({"mu": -10**400}, "parameter mu must be finite and >= 0, got -inf"),
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
    # E* = B/mu = 1e300 is finite, but beta7*E* overflows and times D* = 0 is NaN
    assert main(["equilibria", "--config", _config(tmp_path, B=1e300, mu=1.0, beta7=1e10)]) == 2
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
            cli._emit({"x": [1.0, bad]})
        assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("mode", ["additive", "multiplicative"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_compound_bytes_match_the_per_entry_reference(mode, k, tmp_path, capsys):
    # signed zeros, integers past 12 digits, 1e12, 1e16 and subnormals
    a = np.array([[-0.0, 0.0, 1e12, -1e16],
                  [5e-324, -2.5e-310, 123456789012345.0, 1.0 / 3.0],
                  [1e16 + 2.0, -7.0, 0.1, 999999999999.5],
                  [2.0 ** 53, -1e-300, 3.0, -0.5]])
    mat = tmp_path / "m.txt"
    mat.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))
    assert main(["compound", "--matrix", str(mat), "--k", str(k), "--mode", mode]) == 0
    out, err = capsys.readouterr()
    want = (compound.add_compound if mode == "additive" else compound.mult_compound)(a, k)
    assert (out, err) == (matrix_text_per_entry(want), "")


@pytest.mark.parametrize("k", [2, 3])
def test_multiplicative_compound_overflow_exit_2(k, tmp_path, capsys):
    # entries near 1e155: the products overflow to inf and meet as inf - inf
    a = np.random.default_rng(214).choice([-1.0, 1.0], size=(4, 4)) * 1e155
    with np.errstate(over="ignore", invalid="ignore"):
        want = mult_compound_closed(a, k)
    value = want[~np.isfinite(want)][0]
    mat = tmp_path / "m.txt"
    mat.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would reach stderr
        assert main(["compound", "--matrix", str(mat), "--k", str(k),
                     "--mode", "multiplicative"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"numeric failure: non-finite entry {value} in the compound\n"


@pytest.mark.parametrize("command", ["stability", "paper-check"])
def test_numpy_overflow_is_one_numeric_failure_line(command, tmp_path, capsys):
    # at B = 1e200 numpy overflows in the NGM before V fails its pivot test;
    # a RuntimeWarning (an error under this suite's warning filter) must not
    # escape main or reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", _config(tmp_path, B=1e200)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeffs, name, value", [
    (["1", "1e200", "1", "1"], "a1", "1e+200"),  # a1 ** 3
    (["1", "1", "1e120", "1"], "a2", "1e+120"),  # q ** 3, q about a2 / 3
])
def test_cubic_overflow_names_the_coefficient(coeffs, name, value, capsys):
    assert main(["cubic", *coeffs]) == 2
    assert capsys.readouterr() == (
        "", f"numeric failure: overflow at normalised cubic coefficient {name} = {value}\n")


@pytest.mark.parametrize("coeffs, message", [
    (["1e-300", "1e300", "1", "1"], "a1 = b/a with b = 1e+300, a = 1e-300"),
    (["1e-300", "1", "1", "1e300"], "a3 = d/a with d = 1e+300, a = 1e-300"),
    (["--", "-1e-300", "1", "1e300", "1"], "a2 = c/a with c = 1e+300, a = -1e-300"),
])
def test_cubic_quotient_overflow_names_the_quotient(coeffs, message, capsys):
    assert main(["cubic", *coeffs]) == 2
    assert capsys.readouterr() == (
        "", f"numeric failure: overflow at normalised cubic coefficient {message}\n")


@pytest.mark.parametrize("command", ["seir r0", "seir r0 --sweep mu=5e-324:5e-324:1",
                                     "seir stability"])
def test_seir_r0_denominator_underflow_is_named(command, tmp_path, capsys):
    # a subnormal mu passes the mu > 0 check; mu*(mu+d)*(mu+gamma) underflows to 0
    point = " at mu=4.94065645841e-324" if "--sweep" in command else ""
    config = tmp_path / "seir.json"
    config.write_text(json.dumps(figure_params().replace(mu=5e-324).to_dict()))
    assert main(command.split() + ["--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", f"numeric failure: R0 denominator mu*(mu+d)*(mu+gamma) underflows to 0{point}\n")


@pytest.mark.parametrize("command", ["seir r0", "seir r0 --sweep mu=1.6e44:1.6e44:1"])
def test_seir_r0_denominator_overflow_is_named(command, tmp_path, capsys):
    # mu*(mu+d) overflows to inf, which would give R0 = 0.0 beside a positive
    # NGM spectral radius
    point = " at mu=1.6e+44" if "--sweep" in command else ""
    config = tmp_path / "seir.json"
    config.write_text(json.dumps(figure_params().replace(mu=1.6e44, d=3.7e285).to_dict()))
    assert main(command.split() + ["--config", str(config)]) == 2
    assert capsys.readouterr() == (
        "", f"numeric failure: R0 denominator mu*(mu+d)*(mu+gamma) overflows to inf{point}\n")


def _sweep_against_reference(argv, capsys, monkeypatch):
    """(exit code, stdout, stderr) of ``argv``, checked equal to those of the
    per-point reference sweep."""
    got = (main(argv), *capsys.readouterr())
    with monkeypatch.context() as m:
        m.setattr(cli, "_sweep_csv", sweep_csv_per_point)
        want = (main(argv), *capsys.readouterr())
    assert got == want
    return got


@pytest.mark.parametrize("model, name", [("covid", k) for k in covid.CovidParams.keys()]
                         + [("seir", k) for k in seir.SeirParams.keys()])
def test_sweep_bytes_match_the_per_point_reference(model, name, tmp_path, capsys, monkeypatch):
    p = table_params(0.1) if model == "covid" else figure_params()
    config = tmp_path / "params.json"
    config.write_text(json.dumps(p.to_dict()))
    rng = np.random.default_rng([2804, len(name), ord(name[-1])])
    monkeypatch.setattr("epistab.model.CSV_BLOCK", 1000)  # 4097 rows take five % formats
    for count in (1, 2, 60, 4097):
        lo = getattr(p, name) * rng.uniform(0.5, 1.5)
        step = getattr(p, name) * rng.uniform(0.5, 1.5) / count
        spec = f"{name}={lo!r}:{lo + (count - 0.5) * step!r}:{step!r}"
        with monkeypatch.context() as m:  # a good sweep never takes the per-point path
            m.setattr(cli, "_sweep_points", None)
            code, out, err = _sweep_against_reference(
                ["seir"] * (model == "seir") + ["r0", "--config", str(config), "--sweep", spec],
                capsys, monkeypatch)
        assert (code, err) == (0, "") and len(out.splitlines()) == count + 1


# (model, config changes, sweep, exit code, the failing point, or "" for none)
SWEEP_EDGES = [
    ("covid", {}, "mu=5e-324:2.5e-323:5e-324", 0, ""),
    ("covid", {}, "beta1=0:2e-323:5e-324", 0, ""),
    ("covid", {}, "beta1=1e300:9e300:1e300", 0, ""),
    ("covid", {"beta10": 0.0}, "B=1e300:1e301:1e300", 0, ""),
    ("seir", {}, "beta2=5e-324:2.5e-323:5e-324", 0, ""),
    ("seir", {}, "Lambda=1e300:9e300:1e300", 0, ""),
    # the first point fails
    ("covid", {}, "mu=-0.02:0.05:0.01", 1, "mu=-0.02"),
    ("covid", {}, "mu=0:0.05:0.01", 1, "mu=0"),
    ("covid", {"beta2": 0.0, "beta6": 0.0, "beta8": 0.0, "beta10": 0.0},
     "mu=5e-324:0.01:0.001", 3, "mu=4.94065645841e-324"),
    ("covid", {}, "beta1=3e307:1.5e308:1e307", 2, "beta1=3e+307"),
    ("seir", {}, "gamma=-1:1:0.5", 1, "gamma=-1"),
    ("seir", {}, "mu=0:1:0.1", 1, "mu=0"),
    ("seir", {}, "mu=5e-324:1:0.1", 2, "mu=4.94065645841e-324"),
    ("seir", {}, "mu=1e103:1e104:1e103", 2, "mu=1e+103"),
    ("seir", {}, "Lambda=5e306:1e308:1e306", 2, "Lambda=5e+306"),
    # point k+1 fails after k good points
    # the sweep's second point rounds past the largest float to inf
    ("covid", {}, "B=7.976931349623157e+307:1.7976931348623157e+308:1e308", 1, "B=inf"),
    ("covid", {}, "beta1=1e307:1.5e308:1e307", 2, "beta1=3e+307"),
    ("seir", {}, "mu=1e102:1e103:1e102", 2, "mu=6e+102"),
    ("seir", {}, "Lambda=1e306:1e308:1e306", 2, "Lambda=5e+306"),
]


@pytest.mark.parametrize("model, changes, sweep, code, point", SWEEP_EDGES)
def test_sweep_edges_match_the_per_point_reference(model, changes, sweep, code, point, tmp_path,
                                                   capsys, monkeypatch):
    p = (table_params(0.1) if model == "covid" else figure_params()).replace(**changes)
    config = tmp_path / "params.json"
    config.write_text(json.dumps(p.to_dict()))
    out_csv = tmp_path / "sweep.csv"
    argv = ["seir"] * (model == "seir") + ["r0", "--config", str(config), "--sweep", sweep]
    retaken, per_point = [], cli._sweep_points
    monkeypatch.setattr(cli, "_sweep_points", lambda *args: retaken.append(args) or per_point(*args))
    got = _sweep_against_reference(argv, capsys, monkeypatch)
    assert got[0] == code and (got[2].endswith(f" at {point}\n") if point else got[2] == "")
    # the points are retaken one by one only where a guard fails; a sweep that
    # fails no guard names its first non-finite R0 from the batch
    assert bool(retaken) == (bool(point) and "non-finite R0" not in got[2])
    assert (main(argv + ["--out", str(out_csv)]) == 0) == out_csv.exists()


@pytest.mark.parametrize("command", ["seir equilibria --config {seir}",
                                     "paper-check --config {covid} --seir-config {seir}"])
def test_seir_s_dfe_overflow_is_named(command, tmp_path, capsys):
    # a subnormal mu passes the mu > 0 check; Lambda/mu overflows to inf
    seir_config, covid_config = tmp_path / "seir.json", tmp_path / "covid.json"
    seir_config.write_text(json.dumps(figure_params().replace(mu=5e-324).to_dict()))
    covid_config.write_text(json.dumps(table_params(0.1).to_dict()))
    assert main(command.format(seir=seir_config, covid=covid_config).split()) == 2
    assert capsys.readouterr() == (
        "", "numeric failure: disease-free S* = Lambda/mu overflows to inf\n")


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
    def failing(*coeffs):
        raise exc
    monkeypatch.setattr(cli, "cardano", failing)  # the first call of _cmd_cubic
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


@pytest.mark.parametrize("argv, missing", [
    (["cubic"], "a, b, c, d"),
    (["cubic", "1", "1", "1"], "d"),
    (["cubic", "1", "1", "1", "-1e-5"], "d"),  # argparse reads -1e-5 as an option
])
def test_cubic_missing_coefficients_are_usage_errors(argv, missing, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: the following arguments are required: {missing}\n")


@pytest.mark.parametrize("argv, name, text", [
    (["cubic", "inf", "1", "1", "1"], "a", "inf"),
    (["cubic", "--", "-inf", "2", "3", "4"], "a", "-inf"),
    (["cubic", "1", "1", "1", "inf"], "d", "inf"),
    (["cubic", "nan", "1", "1", "1"], "a", "nan"),
])
def test_cubic_non_finite_coefficients_are_usage_errors(argv, name, text, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: argument {name}: not a finite number: '{text}'\n"
                          "usage: epistab ")


def test_cubic_non_number_keeps_the_float_message(capsys):
    assert main(["cubic", "x", "1", "1", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: argument a: invalid float value: 'x'\nusage: epistab ")


@pytest.mark.parametrize("model", ["covid", "seir"])
def test_r0_out_without_sweep_is_a_usage_error(model, covid_config, seir_config, tmp_path,
                                               capsys):
    out_path = tmp_path / "r0.csv"
    argv = {"covid": ["r0", "--config", covid_config],
            "seir": ["seir", "r0", "--config", seir_config]}[model]
    assert main(argv + ["--out", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    message = "usage error: --out names the sweep CSV and needs --sweep\n"
    assert err.startswith(message + "usage: epistab ")
    assert not out_path.exists()


# per run: covid builds one A^[2] per equilibrium, the disease-free one shared
# by the dominance section and the verdicts, and takes det J(DFE) once for the
# determinant section and the verdicts, det V for R0 and det J at the endemic
# point; seir builds one J^[2] and one det J, shared by its report and verdicts
@pytest.mark.parametrize("command, compounds, determinants", [
    ("stability --config {covid}", 2, 3),
    ("stability --config {covid} --measure two", 2, 3),
    ("seir stability --config {seir}", 1, 1),
])
def test_stability_builds_one_second_compound_per_matrix(command, compounds, determinants,
                                                         covid_config, seir_config,
                                                         monkeypatch, capsys):
    counts = Counter()
    for name, original in (("add_compound", compound.add_compound),
                           ("determinant", linalg.determinant)):
        def counting(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)
        for mod in list(sys.modules.values()):
            if mod.__name__.split(".")[0] == "epistab" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
    assert main(command.format(covid=covid_config, seir=seir_config).split()) == 0
    capsys.readouterr()
    assert counts == {"add_compound": compounds, "determinant": determinants}


def test_seir_stability_just_above_the_threshold(tmp_path, capsys):
    # R0 = 1 + 1e-13: the endemic point is feasible with I1* ~ 1.1e-14, far
    # below S*, so a pivoted inverse of P = diag(I2*, I1*, S*) would call P
    # singular; the scaling p_i J^[2]_ij / p_j needs no inverse
    p = figure_params().replace(Lambda=0.022950819672133443)
    assert seir.r0_seir(p) - 1.0 == pytest.approx(1e-13, rel=0.01)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(p.to_dict()))
    assert main(["seir", "stability", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert err == "" and rep["equilibria"]["endemic"]["feasible"] is True
    assert 0.0 < rep["equilibria"]["endemic"]["state"][1] < 1e-13


def test_seir_stability_at_gamma_zero_is_a_numeric_failure(tmp_path, capsys):
    # gamma = 0 gives delta = 0, so I2* = delta*I1* = 0 and P = diag(I2*, I1*, S*)
    # has no inverse: the scaling p_i J^[2]_ij / p_j would divide by zero
    path = tmp_path / "gamma0.json"
    path.write_text(json.dumps(figure_params().replace(gamma=0.0).to_dict()))
    assert main(["seir", "stability", "--config", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "numeric failure: P = diag(I2*, I1*, S*) is singular: I2* = 0\n")


# valid parameters on which a derived quantity of ``seir stability``
# overflows or underflows: each is a numeric failure that names it
SEIR_STABILITY_FAILURES = [
    ({"Lambda": 1e278, "beta1": 4e-05, "beta2": 3e-12, "mu": 35000.0, "gamma": 8700.0, "d": 3e-08},
     "P J^[2] P^-1 is not finite"),
    ({"Lambda": 2e-09, "beta1": 2e-08, "beta2": 1e302, "mu": 1000.0, "gamma": 0.0, "d": 1e-11},
     "endemic Jacobian J is not finite"),
    ({"gamma": 1e-310}, "condition c1's gamma/delta^2 cannot be evaluated: "
                        "delta^2 underflows to 0 at delta = 7.14285714286e-310"),
    ({"gamma": 1e200}, "condition c1's gamma/delta^2 cannot be evaluated: "
                       "delta^2 overflows at delta = 7.14285714286e+200"),
]


@pytest.mark.parametrize("changes, message", SEIR_STABILITY_FAILURES,
                         ids=["transformed-compound", "jacobian", "c1-underflow", "c1-overflow"])
def test_seir_stability_overflow_is_a_named_numeric_failure(changes, message, tmp_path, capsys):
    path = tmp_path / "seir.json"
    path.write_text(json.dumps(figure_params().replace(**changes).to_dict()))
    assert main(["seir", "stability", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"numeric failure: {message}\n")


def test_malformed_sweep_spec_is_a_usage_error(covid_config, capsys):
    assert main(["r0", "--config", covid_config, "--sweep", "mu=0.01:0.02:x"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(
        "usage error: bad sweep spec 'mu=0.01:0.02:x', expected name=lo:hi:step\nusage: epistab")


@pytest.mark.parametrize("changes, sweep, message", [
    # the batch fails a denominator guard at a later point; one by one, the
    # first point's R0 is already inf
    ({"Lambda": 1e300}, ["--sweep", "mu=1e-100:1e200:1e195"], "non-finite R0 inf at mu=1e-100"),
    ({"Lambda": 1e308, "beta1": 10.0, "mu": 1.0}, [],
     "next-generation matrix -F V^-1 is not finite"),
])
def test_seir_r0_names_what_is_not_finite(changes, sweep, message, tmp_path, capsys):
    path = tmp_path / "seir.json"
    path.write_text(json.dumps(figure_params().replace(**changes).to_dict()))
    assert main(["seir", "r0", "--config", str(path), *sweep]) == 2
    assert capsys.readouterr() == ("", f"numeric failure: {message}\n")


# per run of N = 200 steps: the CLI bound the flow function at import and RK4
# runs it inlined, so no step calls a module attribute rebound later; only
# covid's invariance audit packs an array, one batch through rhs and its flows
@pytest.mark.parametrize("command, counted", [
    ("simulate --config {covid} --x0 1,1,1,1,1",
     {"covid.rhs": 1, "covid.flows": 1, "seir.rhs3": 0, "seir.flows3": 0}),
    ("seir simulate --config {seir} --x0 1,0.5,0.2",
     {"covid.rhs": 0, "covid.flows": 0, "seir.rhs3": 0, "seir.flows3": 0}),
])
def test_simulate_steps_on_the_flows_not_the_rhs(command, counted, covid_config, seir_config,
                                                 monkeypatch, capsys):
    counts = Counter()
    for module, name in ((covid, "rhs"), (covid, "flows"), (seir, "rhs3"), (seir, "flows3")):
        original, key = getattr(module, name), f"{module.__name__.split('.')[-1]}.{name}"
        def counting(*args, key=key, original=original):
            counts[key] += 1
            return original(*args)
        for mod in list(sys.modules.values()):
            if mod.__name__.split(".")[0] == "epistab":
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        monkeypatch.setattr(mod, attr, counting)
    argv = command.format(covid=covid_config, seir=seir_config).split()
    assert main(argv + ["--dt", "0.01", "--t-end", "2", "--out", "-"]) == 0
    capsys.readouterr()
    assert {k: counts[k] for k in counted} == counted

def test_only_the_cubic_command_solves_a_cubic(monkeypatch, capsys):
    original = stability.cardano
    def refuse(*coeffs):
        raise AssertionError("cardano called")
    for mod in list(sys.modules.values()):
        if mod.__name__.split(".")[0] == "epistab" and getattr(mod, "cardano", None) is original:
            monkeypatch.setattr(mod, "cardano", refuse)
    assert cubic_stability(-6.0, 11.0, -6.0).cubic_class == stability.THREE_REAL
    chi_cubic(table_params(0.1))

    calls = []
    def counting(*coeffs):
        calls.append(coeffs)
        return original(*coeffs)
    monkeypatch.setattr(cli, "cardano", counting)
    monkeypatch.setattr(stability, "cardano", counting)
    assert main(["cubic", "1", "-6", "11", "-6"]) == 0
    capsys.readouterr()
    assert calls == [(1.0, -6.0, 11.0, -6.0)]


@pytest.mark.parametrize("name", ["r0", "stability"])
def test_r0_and_stability_never_evaluate_a_printed_form(name, covid_config, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("printed form evaluated")
    for attr in ("ngm_printed", "chi_cubic", "splitting_matrices", "splitting_char_poly"):
        monkeypatch.setattr(paper_check, attr, refuse)
    command, stdout_sha, _ = README_COMMANDS[name]
    assert main(command.format(covid=covid_config).split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert _sha256(out.encode()) == stdout_sha


def test_cubic_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cubic", "-h"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: epistab cubic [-h] a b c d\n")
    assert err == ""


def test_cubic_exponent_coefficient_after_double_dash(capsys):
    assert main(["cubic", "1", "1", "1", "-0.00001"]) == 0
    fixed = capsys.readouterr()
    assert main(["cubic", "--", "1", "1", "1", "-1e-5"]) == 0
    assert capsys.readouterr() == fixed


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
    unfiltered = rep

    assert main(["seir", "stability", "--config", seir_config, "--measure", "inf"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert list(rep["verdicts"]["endemic"]["li_wang_sufficient"]) == ["inf"]
    assert rep == _kept_measure(unfiltered, "inf")

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


@pytest.mark.parametrize("command", ["r0", "stability"])
def test_a_transition_matrix_that_is_not_finite_exits_2(command, tmp_path, capsys):
    # beta2 = beta8 = 1.7e308 make alpha = inf; V at the disease-free point holds
    # it, and is a numeric failure, not a usage error
    assert main([command, "--config", _config(tmp_path, beta2=1.7e308, beta8=1.7e308)]) == 2
    assert capsys.readouterr() == ("", "numeric failure: transition matrix V is not finite\n")


def _never_called(*args):
    raise AssertionError("a path that must not be taken was taken")


def test_a_late_non_finite_r0_in_a_long_sweep_is_named_from_the_batch(tmp_path, capsys, monkeypatch):
    # 10^5 points with beta10 = 0; R0 overflows from point 91,701, and no
    # point is retaken one by one
    config = tmp_path / "params.json"
    config.write_text(json.dumps(table_params(0.1).replace(beta10=0.0).to_dict()))
    monkeypatch.setattr(cli, "_sweep_points", _never_called)
    assert main(["r0", "--config", str(config), "--sweep", "B=0:3.59999e306:3.6e301"]) == 2
    assert capsys.readouterr() == ("", "numeric failure: non-finite R0 inf at B=3.301236e+306\n")


# argv templates: those the tests above pass to main, then help after a command,
# "--", abbreviated options, missing values, extra arguments and a bare seir
PARSER_CASES = [
    "r0 --config {covid}", "r0 --config {covid} --sweep mu=0.005:0.74:0.015",
    "r0 --config {covid} --sweep mu=1:0:0.1", "r0 --config {covid} --sweep nope=0:1:0.1",
    "r0 --config {covid} --out x.csv", "r0", "equilibria --config {covid}",
    "stability --config {covid}", "stability --config {covid} --measure one",
    "stability --config {covid} --measure three", "paper-check --config {covid}",
    "paper-check --config {covid} --seir-config {seir}",
    "simulate --config {covid} --x0 1,1,1,1,1 --dt 0.1 --t-end 1",
    "simulate --config {covid} --x0 1,1,1 --dt 0.1 --t-end 1",
    "seir r0 --config {seir}", "seir equilibria --config {seir}", "seir stability --config {seir}",
    "seir stability --config {seir} --measure inf",
    "seir simulate --config {seir} --x0 1,0.5,0.2 --dt 0.1 --t-end 1",
    "seir r0 --config {seir} --sweep mu=0.05:1.0:0.05", "seir no-such-command",
    "compound --matrix {mat} --k 2", "compound --matrix {mat} --k 3",
    "compound --matrix {mat} --k 2 --mode multiplicative", "compound --matrix {mat} --k 4",
    "cubic 1 -6 11 -6", "cubic -- 1 1 1 -1e-5", "cubic 1 1 1 -1e-5", "cubic 1 1 1 -0.00001",
    "cubic x 1 1 1", "cubic 1e-310 1 1 1", "cubic inf 1 1 1", "cubic", "cubic 1 1 1",
    "no-such-command", "",
    "-h", "--help", "seir", "seir -h", "r0 -h", "r0 --config {covid} -h", "seir r0 -h",
    "cubic -h", "compound --help", "paper-check -h",
    "-- r0 --config {covid}", "r0 -- --config {covid}", "cubic 1 -- -6 11 -6",
    "r0 --conf {covid}", "r0 --co {covid} --sw mu=0.1:0.2:0.05", "stability --config {covid} --meas two",
    "seir stability --conf {seir} --m one", "compound --mat {mat} --k 2 --mo mult",
    "r0 --config", "r0 --config {covid} --sweep", "stability --config {covid} --measure",
    "compound --matrix {mat} --k", "compound --matrix {mat} --k two",
    "r0 --config {covid} extra", "r0 extra --config {covid}", "cubic 1 2 3 4 5",
    "seir r0 --config {seir} extra", "paper-check --config {covid} --seir-config",
    "r0 --config {covid} --config {covid}", "--config {covid} r0", "seir seir r0 --config {seir}",
]


@pytest.mark.parametrize("template", PARSER_CASES)
def test_the_leaf_parser_matches_the_full_parser(template, tmp_path, capsys, monkeypatch):
    mat = tmp_path / "m.txt"
    mat.write_text("-1,2,0\n0.5,-3,1\n0,1,-2\n")
    seir_config = tmp_path / "seir.json"
    seir_config.write_text(json.dumps(figure_params().to_dict()))
    argv = template.format(covid=_config(tmp_path), seir=seir_config, mat=mat).split()
    monkeypatch.chdir(tmp_path)

    def run():
        try:
            code = main(argv)
        except SystemExit as exc:  # help
            code = ("exit", exc.code)
        return (code, *capsys.readouterr())

    parser = cli.build_parser()
    words = 2 if argv[:1] == ["seir"] else 1
    with monkeypatch.context() as m:
        if tuple(argv[:words]) in parser.leaves:  # a leaf command never reaches the full parser
            m.setattr(parser, "parse_args", _never_called)
        leaf = run()
    with monkeypatch.context() as m:
        m.setattr(parser, "leaves", {})
        full = run()
    assert leaf == full
