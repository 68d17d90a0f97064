import numpy as np
import pytest

import epistab.covid as covid
import epistab.seir as seir
from epistab.sim import (
    DivergenceError,
    integrate,
    invariance_audit,
    simulate_covid,
    trajectory_from_csv,
    trajectory_to_csv,
)


def _linear_params(mu):
    return covid.CovidParams(B=0.8, mu=mu, **{f"beta{i}": 0.0 for i in range(1, 11)})


MODELS = {"covid": (covid.rhs, lambda: covid.table_params(0.1), 5),
          "seir": (seir.rhs3, lambda: seir.figure_params(0.1), 3)}


def _draw_params(rng, model):
    # every rate scaled by its own factor in [0.5, 1.5]
    p = MODELS[model][1]()
    return p.replace(**{k: v * float(rng.uniform(0.5, 1.5)) for k, v in p.to_dict().items()})


def test_integrate_validates_arguments(covid_table):
    f = lambda x: covid.rhs(covid_table, x)
    with pytest.raises(ValueError):
        integrate(f, np.ones(5), dt=0.2, t_end=1.0)
    with pytest.raises(ValueError):
        integrate(f, np.ones(5), dt=0.01, t_end=0.0)
    with pytest.raises(ValueError):
        integrate(f, np.array([np.inf, 0, 0, 0, 0]), dt=0.01, t_end=1.0)


def test_t_end_must_be_a_whole_number_of_steps(covid_table):
    f = lambda x: covid.rhs(covid_table, x)
    for x0 in (np.ones(5), np.ones((2, 5))):
        for dt, t_end in ((0.05, 0.02), (0.01, 1.005), (0.1, 0.35)):
            with pytest.raises(ValueError, match="whole number of steps"):
                integrate(f, x0, dt=dt, t_end=t_end)
    rng = np.random.default_rng(404)
    for dt in rng.uniform(0.001, 0.1, 50):
        steps = int(rng.integers(1, 40))
        assert len(integrate(f, np.ones(5), dt=dt, t_end=steps * dt)) == steps + 1


def test_uniform_time_grid(covid_table):
    traj = simulate_covid(covid_table, np.ones(5), dt=0.02, t_end=1.0)
    steps = np.diff(traj.times)
    assert abs(steps - 0.02).max() < 1e-12
    assert len(traj) == 51
    assert traj.states.shape == (51, 5)


def test_rk4_matches_linear_closed_form():
    # with all contact rates zero: E(t) = B/mu + (E0 - B/mu) e^(-mu t),
    # I, C, H decay like e^(-mu t) and D is frozen
    p = _linear_params(0.01)
    x0 = np.array([1.0, 0.7, 0.3, 0.2, 0.5])
    traj = integrate(lambda x: covid.rhs(p, x), x0, dt=0.01, t_end=10.0)
    t = 10.0
    decay = np.exp(-p.mu * t)
    expected = np.array([80.0 + (x0[0] - 80.0) * decay, x0[1] * decay,
                         x0[2] * decay, x0[3] * decay, x0[4]])
    assert abs(traj.states[-1] - expected).max() < 1e-8


def test_rk4_order_ratio():
    # stiffer linear subcase so truncation dominates rounding
    p = _linear_params(1.0)
    x0 = np.array([1.4, 0.9, 0.6, 0.3, 0.7])
    t_end = 5.0
    decay = np.exp(-p.mu * t_end)
    expected = np.array([0.8 + (x0[0] - 0.8) * decay, x0[1] * decay,
                         x0[2] * decay, x0[3] * decay, x0[4]])
    f = lambda x: covid.rhs(p, x)
    err1 = abs(integrate(f, x0, 0.1, t_end).states[-1] - expected).max()
    err2 = abs(integrate(f, x0, 0.05, t_end).states[-1] - expected).max()
    assert 12.0 <= err1 / err2 <= 20.0


def test_determinism_bit_identical(covid_table):
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    a = simulate_covid(covid_table, x0, dt=0.01, t_end=2.0)
    b = simulate_covid(covid_table, x0, dt=0.01, t_end=2.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_equilibria_are_fixed_points(covid_table):
    for eq in (covid.dfe(covid_table), covid.endemic(covid_table)):
        traj = simulate_covid(covid_table, eq.state, dt=0.01, t_end=10.0)
        drift = abs(traj.states - eq.state).max()
        assert drift < 1e-8


def test_divergence_raises_with_time(covid_table):
    x0 = np.array([1e160, 1e160, 0.0, 0.0, 0.0])  # E*I overflows immediately
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            simulate_covid(covid_table, x0, dt=0.01, t_end=1.0)
    assert exc.value.time > 0.0
    # a later blow-up is reported at the same time by the 1-D and the batch path
    for rhs, make, dim in MODELS.values():
        p = make()
        x0 = np.full(dim, 1e3)
        times = []
        for x in (x0, x0[None, :], np.stack([np.ones(dim), x0])):
            with pytest.raises(DivergenceError) as exc:
                integrate(lambda x: rhs(p, x), x, dt=0.01, t_end=5.0)
            times.append(exc.value.time)
        assert times[0] > 0.01
        assert times == [times[0]] * 3


def test_positivity_audit_clean_run(covid_table):
    rng = np.random.default_rng(701)
    x0 = rng.uniform(0.1, 5.0, size=5)
    traj = simulate_covid(covid_table, x0, dt=0.005, t_end=50.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["min_component"] > -1e-9
    assert audit["first_positivity_violation_t"] is None
    assert audit["max_sum_identity_residual"] < 1e-12


def test_region_exit_finding(covid_table):
    # start inside the claimed region near the endemic direction: the
    # undamped D compartment pushes the total past B/mu
    end = covid.endemic(covid_table)
    x0 = end.state * (79.0 / end.state.sum())
    traj = simulate_covid(covid_table, x0, dt=0.01, t_end=60.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["initially_inside_region"]
    assert audit["region_exited"]
    assert not audit["finally_inside_region"]


def test_region_trivial_compliance(covid_table):
    x0 = np.array([covid_table.B / covid_table.mu, 0.0, 0.0, 0.0, 0.0])
    traj = simulate_covid(covid_table, x0, dt=0.01, t_end=5.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["initially_inside_region"] and audit["finally_inside_region"]
    assert not audit["region_exited"]


def test_trajectory_csv_round_trip(covid_table):
    traj = simulate_covid(covid_table, np.array([1.0, 0.5, 0.25, 0.125, 2.0]),
                          dt=0.05, t_end=1.0)
    text = trajectory_to_csv(traj, "t,E,I,C,H,D")
    assert text.startswith("t,E,I,C,H,D\n")
    assert text.endswith("\n")
    back = trajectory_from_csv(text)
    assert abs(back.times - traj.times).max() < 1e-12
    assert np.allclose(back.states, traj.states, atol=1e-10)


def test_batched_states_broadcast(covid_table):
    x0 = np.array([[1.0, 1.0, 1.0, 1.0, 1.0], [2.0, 0.5, 0.1, 0.3, 0.4]])
    traj = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=1.0)
    assert traj.states.shape == (101, 2, 5)
    single = simulate_covid(covid_table, x0[1], dt=0.01, t_end=1.0)
    assert np.array_equal(traj.states[:, 1, :], single.states)
    # both models, seeded draws: the 1-D path (Python floats) and the batch
    # path (arrays) give the same bits
    for model, seed in [(m, s) for m in sorted(MODELS) for s in (11, 12, 13)]:
        rhs, _, dim = MODELS[model]
        rng = np.random.default_rng(seed)
        p = _draw_params(rng, model)
        dt = float(rng.uniform(0.005, 0.1))
        steps = int(rng.integers(20, 120))
        x0 = rng.uniform(0.0, 3.0, (4, dim))
        x0[0, :2] = 0.0, -0.0
        f = lambda x: rhs(p, x)
        batch = integrate(f, x0, dt=dt, t_end=steps * dt)
        assert batch.states.shape == (steps + 1, 4, dim)
        for m in range(4):
            single = integrate(f, x0[m], dt=dt, t_end=steps * dt)
            assert single.states.tobytes() == np.ascontiguousarray(batch.states[:, m]).tobytes()
            assert single.times.tobytes() == batch.times.tobytes()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_single_state_rhs_matches_batch_row_bytes(model):
    rhs, make, dim = MODELS[model]
    rng = np.random.default_rng(505)
    zero_rates = make().replace(**{k: 0.0 for k in make().keys()})
    states = [np.zeros(dim), np.full(dim, -0.0), np.resize([0.0, -0.0], dim),
              np.resize([-0.0, 1.5, 0.0], dim), rng.uniform(-2.0, 2.0, dim)]
    for p in (make(), zero_rates, _draw_params(rng, model)):
        for x in states:
            one = rhs(p, x)
            assert one.shape == (dim,) and one.dtype == np.float64
            assert one.tobytes() == rhs(p, x[None, :])[0].tobytes()
    # a -0.0 rate of change survives the 1-D path
    assert np.signbit(rhs(make(), np.resize([0.0, -0.0], dim))).any()
