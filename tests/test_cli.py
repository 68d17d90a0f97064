import json

import numpy as np
import pytest

from epistab import r0_reduced, table_params
from epistab.cli import main
from epistab.sim import trajectory_from_csv


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
