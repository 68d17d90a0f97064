import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    covid_rhs_printed,
    csv_per_row,
    packed_stacked,
    seir_rhs3_printed,
    steps_arrays_state_major,
    trajectory_from_csv,
)

import epistab.covid as covid
import epistab.seir as seir
import epistab.sim as sim
from epistab.model import jacobian_fd
from epistab.sim import (
    DivergenceError,
    Trajectory,
    integrate,
    invariance_audit,
    trajectory_to_csv,
)


def _linear_params(mu):
    return covid.CovidParams(B=0.8, mu=mu, **{f"beta{i}": 0.0 for i in range(1, 11)})


MODELS = {"covid": (covid.rhs, lambda: covid.table_params(0.1), 5),
          "seir": (seir.rhs3, lambda: seir.figure_params(0.1), 3)}
FLOWS = {"covid": covid.flows, "seir": seir.flows3}


def _hex(values):
    return [float(v).hex() for v in values]


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
    traj = integrate(lambda x: covid.rhs(covid_table, x), np.ones(5), dt=0.02, t_end=1.0)
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
    a = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=2.0)
    b = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=2.0)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_equilibria_are_fixed_points(covid_table):
    for eq in (covid.dfe(covid_table), covid.endemic(covid_table)):
        traj = integrate(lambda x: covid.rhs(covid_table, x), eq.state, dt=0.01, t_end=10.0)
        drift = abs(traj.states - eq.state).max()
        assert drift < 1e-8


def test_divergence_raises_with_time(covid_table):
    x0 = np.array([1e160, 1e160, 0.0, 0.0, 0.0])  # E*I overflows immediately
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as exc:
            integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=1.0)
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
    traj = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.005, t_end=50.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["min_component"] > -1e-9
    assert audit["first_positivity_violation_t"] is None
    assert audit["max_sum_identity_residual"] < 1e-12


def test_region_exit_finding(covid_table):
    # start inside the claimed region near the endemic direction: the
    # undamped D compartment pushes the total past B/mu
    end = covid.endemic(covid_table)
    x0 = end.state * (79.0 / end.state.sum())
    traj = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=60.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["initially_inside_region"]
    assert audit["region_exited"]
    assert not audit["finally_inside_region"]


def test_region_trivial_compliance(covid_table):
    x0 = np.array([covid_table.B / covid_table.mu, 0.0, 0.0, 0.0, 0.0])
    traj = integrate(lambda x: covid.rhs(covid_table, x), x0, dt=0.01, t_end=5.0)
    audit = invariance_audit(traj, covid_table)
    assert audit["initially_inside_region"] and audit["finally_inside_region"]
    assert not audit["region_exited"]


def test_trajectory_csv_round_trip(covid_table):
    traj = integrate(lambda x: covid.rhs(covid_table, x), np.array([1.0, 0.5, 0.25, 0.125, 2.0]),
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
    single = integrate(lambda x: covid.rhs(covid_table, x), x0[1], dt=0.01, t_end=1.0)
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


PRINTED = {"covid": covid_rhs_printed, "seir": seir_rhs3_printed}


@pytest.mark.parametrize("model", sorted(MODELS))
def test_rhs_matches_printed_expressions_bit_for_bit(model):
    # seeded rates on the {0, -0.0, 1.5, -2}^d grid and on mixed-magnitude states
    rhs, make, dim = MODELS[model]
    rng = np.random.default_rng(606)
    grid = np.array(list(itertools.product([0.0, -0.0, 1.5, -2.0], repeat=dim)))
    mixed = rng.uniform(-1.0, 1.0, (64, dim)) * 10.0 ** rng.integers(-150, 150, (64, dim))
    states = np.concatenate([grid, mixed])
    for p in (make(), make().replace(**{k: 0.0 for k in make().keys()}),
              _draw_params(rng, model), _draw_params(rng, model)):
        with np.errstate(over="ignore", invalid="ignore"):
            want = PRINTED[model](p, states)
            assert rhs(p, states).tobytes() == want.tobytes()
            for x, row in zip(states, want):
                assert rhs(p, x).tobytes() == PRINTED[model](p, x).tobytes() == row.tobytes()
                assert rhs(p, x.tolist()).tobytes() == row.tobytes()


_signed = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e150, 1e150, allow_nan=False),
                    st.floats(-1e-150, 1e-150, allow_nan=False))


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rhs_matches_printed_expressions_on_drawn_states(model, data):
    rhs, make, dim = MODELS[model]
    x = data.draw(st.lists(_signed, min_size=dim, max_size=dim))
    rates = data.draw(st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.35]),
                                         st.floats(0.0, 1e3)),
                               min_size=len(make().keys()), max_size=len(make().keys())))
    p = make().replace(**dict(zip(make().keys(), rates)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = PRINTED[model](p, np.array(x)).tobytes()
        assert rhs(p, x).tobytes() == want
        assert rhs(p, np.array(x)).tobytes() == want
        assert rhs(p, np.array([x, x]))[1].tobytes() == want
        assert _hex(FLOWS[model](p, x)) == _hex(np.frombuffer(want))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_rhs_list_contract(model):
    rhs, make, dim = MODELS[model]
    p = make()
    floats = np.random.default_rng(707).uniform(-2.0, 2.0, dim).tolist()
    ints = list(range(1, dim + 1))
    for x in (floats, ints):
        out = rhs(p, x)
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (dim,)
        assert out.tobytes() == rhs(p, np.array(x, dtype=float)).tobytes()
    nested = [floats, ints, [0.0, -0.0] + floats[2:]]
    batch = rhs(p, nested)
    assert batch.shape == (3, dim)
    assert batch.tobytes() == rhs(p, np.array(nested)).tobytes()
    # a -0.0 rate of change survives the list path
    x = np.resize([0.0, -0.0], dim).tolist()
    assert np.signbit(rhs(p, x)).tobytes() == np.signbit(rhs(p, np.array(x))).tobytes()
    assert np.signbit(rhs(p, x)).any()


def test_integrate_hands_a_single_state_to_f_as_a_list(covid_table):
    seen = []

    def f(x):
        seen.append((type(x), np.shape(x)))
        return covid.rhs(covid_table, x)

    integrate(f, np.ones(5), dt=0.01, t_end=0.05)
    assert seen == [(list, (5,))] * 20
    # a batch is handed over as an array of the batch's own shape (..., d)
    for shape in ((2, 5), (3, 1, 5), (2, 3, 4, 5), (1, 5), (0, 5)):
        seen.clear()
        integrate(f, np.ones(shape), dt=0.01, t_end=0.05)
        assert seen == [(np.ndarray, shape)] * 20


# signed zeros, subnormals and negatives, on every component
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, -1.5, -1e-300, 2.0]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_flows_are_the_rhs_bit_for_bit(model):
    rhs, make, dim = MODELS[model]
    flows = FLOWS[model]
    rng = np.random.default_rng(808)
    states = ([rng.choice(_SPECIAL, dim).tolist() for _ in range(200)]
              + [rng.uniform(-2.0, 2.0, dim).tolist() for _ in range(50)])
    zero_rates = make().replace(**{k: 0.0 for k in make().keys()})
    for p in (make(), zero_rates, _draw_params(rng, model), _draw_params(rng, model)):
        for x in states:
            got = flows(p, x)
            assert type(got) is list and [type(v) for v in got] == [float] * dim
            assert _hex(got) == _hex(rhs(p, np.array(x)).tolist())
    # a -0.0 rate of change survives the flow function
    x = np.resize([0.0, -0.0], dim).tolist()
    assert np.signbit(flows(make(), x)).tolist() == np.signbit(rhs(make(), np.array(x))).tolist()
    assert np.signbit(flows(make(), x)).any()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_integrate_reads_a_list_or_an_array_from_f_with_the_same_bits(model):
    rhs, make, dim = MODELS[model]
    flows = FLOWS[model]
    for seed in range(911, 921):
        rng = np.random.default_rng(seed)
        p = _draw_params(rng, model)
        dt = float(rng.choice([0.005, 0.01, 0.05]))
        steps = int(rng.integers(50, 400))
        x0 = rng.uniform(0.0, 3.0, dim)
        x0[0], x0[-1] = 0.0, -0.0
        as_list = integrate(functools.partial(flows, p), x0, dt=dt, t_end=steps * dt)
        as_array = integrate(lambda x: rhs(p, x), x0, dt=dt, t_end=steps * dt)
        assert as_list.times.tobytes() == as_array.times.tobytes()
        assert as_list.states.tobytes() == as_array.states.tobytes()
    # a blow-up is reported at the same time whichever form f returns
    p, x0 = make(), np.full(dim, 1e3)
    times = []
    for f in (functools.partial(flows, p), lambda x: rhs(p, x)):
        with pytest.raises(DivergenceError) as exc:
            integrate(f, x0, dt=0.01, t_end=5.0)
        times.append(exc.value.time)
    assert times[0] == times[1] > 0.0


def _special_batch(rng, shape):
    """Uniform draws in [-3, 3) with about half the entries from ``_SPECIAL``."""
    return np.where(rng.random(shape) < 0.5, rng.choice(_SPECIAL, shape),
                    rng.uniform(-3.0, 3.0, shape))


@pytest.mark.parametrize("model", sorted(MODELS))
def test_batch_rhs_matches_the_stacking_packer_bytes(model):
    rhs, make, dim = MODELS[model]
    flows = FLOWS[model]
    rng = np.random.default_rng(1010)
    shapes = [(7, dim), (3, 4, dim), (2, 1, 3, dim), (1, dim), (0, dim), (dim, dim),
              (4, dim, dim)]  # the last two are FD probe shapes (..., d, d)
    zero_rates = make().replace(**{k: 0.0 for k in make().keys()})
    for p in (make(), zero_rates, _draw_params(rng, model), _draw_params(rng, model)):
        for shape in shapes:
            x = _special_batch(rng, shape)
            want = packed_stacked(flows, p, x)
            got = rhs(p, x)
            assert got.shape == want.shape == shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            if model == "covid":
                total = covid.sum_rate(p, x)
                assert total.shape == shape[:-1]
                assert total.tobytes() == np.sum(want, axis=-1).tobytes()
        # the central-difference Jacobian of one state and of a batch
        for x in (_special_batch(rng, dim), _special_batch(rng, (3, dim))):
            want = jacobian_fd(lambda p, y: packed_stacked(flows, p, y), p, x)
            assert jacobian_fd(rhs, p, x).tobytes() == want.tobytes()


def _both_batch_loops(monkeypatch, f, x0, dt, steps):
    """``integrate`` with the batch loop, then with the state-major reference
    loop: each as its times and states bytes, or a blow-up's DivergenceError time."""
    out = []
    for loop in (sim._steps_arrays, steps_arrays_state_major):
        with monkeypatch.context() as m:
            m.setattr(sim, "_steps_arrays", loop)
            try:
                traj = integrate(f, x0, dt=dt, t_end=steps * dt)
            except DivergenceError as exc:
                out.append(exc.time)
            else:
                out.append((traj.times.tobytes(), traj.states.tobytes()))
    return out


@pytest.mark.parametrize("model", sorted(MODELS))
def test_batch_loop_matches_the_state_major_loop_bytes(model, monkeypatch):
    rhs, make, dim = MODELS[model]
    shapes = [(4, dim), (2, 3, dim), (2, 1, 3, dim), (1, dim), (0, dim)]
    for seed in range(1111, 1114):
        rng = np.random.default_rng(seed)
        p = _draw_params(rng, model)
        dt = float(rng.choice([0.005, 0.01, 0.05]))
        steps = int(rng.integers(20, 120))
        # a model's rhs, one that returns a C-order array, and a linear f
        fs = (lambda y: rhs(p, y), lambda y: np.ascontiguousarray(rhs(p, y)), lambda y: -0.3 * y)
        for shape in shapes:
            x0 = abs(_special_batch(rng, shape))
            x0[..., 0] = -0.0
            for f in fs:
                got, want = _both_batch_loops(monkeypatch, f, x0, dt, steps)
                assert type(got) is tuple and got == want
    # a blow-up is reported at the same time by both loops
    p = make()
    for shape in ((3, dim), (2, 2, dim)):
        x0 = np.ones(shape)
        x0[-1] = 1e3
        for f in (lambda y: rhs(p, y), lambda y: np.ascontiguousarray(rhs(p, y))):
            got, want = _both_batch_loops(monkeypatch, f, x0, 0.01, 500)
            assert type(got) is float and got == want > 0.01


# SHA-256 of times.tobytes(), then of states.tobytes() for a single x0 and for
# a batch of four, on seeded (p, x0, dt, steps) with 0.0 and -0.0 in x0; the
# model arithmetic is only +, - and *, so these bits do not depend on libm
TRAJECTORY_SHA256 = {
    ("covid", 901): ("ea5b0eef261315358f964bbedf70c55661b6e9f9fc3cb4da13f271fe9e321ba3",
                       "070b1429f9f4f3237edc6fdcefb1d1662ce9ea351082ee6a7e597422973fd07a",
                       "aea9c4c681faa8fddc36cb85c8ab754c37c2896fa15a00732c15017ecf8750d8"),
    ("covid", 902): ("7f5206ea2714ae2a2dbe55ce1ac6bc3bf01ef89b9f5fa542d40a0b4403476d8e",
                       "b0f4751bd88bb0d700492424fc55a74d2ae99c6257a757b554329bc8a26dddc9",
                       "afa8f53dfedba206b4d164a93d4076ed3aad86157107f4294d7728e8f1f6176f"),
    ("covid", 903): ("37107506ca7e9406c2221e4e7b4ddc72f17f2ca2765b8d204048b497ccf7fab2",
                       "cbb764d3594d30b1041b90ec8b5f9e906d3dd43a2ee7b23a2aab8abab7547526",
                       "c00adafd1b57b95924cbe97cd8b8209c4e0995612c34a052ae20d33ee035e9f8"),
    ("seir", 901): ("c27819969f266b55c6ca5e51eb3b38f2e26326de6d711f95784eb7b83884d06a",
                       "8199acce52e7ccb8ca91b7e5f618ba0ac31678dd7a8501966a4b841c6998830d",
                       "e5984c9444d6e3e5873ee166cea7944f2f679a4ab57fd974859058309b67a188"),
    ("seir", 902): ("c51b41f2ee6f705d59b9f49e33d7e212298af4ecd32c9b35aebbc76ff9e64c92",
                       "8720367fbd3494bcc794f47646fa8e5ad309915510432295b09aefe221c601dd",
                       "d7c595dfc8481335a448d3414e6b06afbbc287d1b65d28e4e2dd55d0ab6eb0f9"),
    ("seir", 903): ("7f5a4843c2fef46948f7b2d9fa0788415ae4d1b9ef24a5aa53ef2412c904ade6",
                       "ead4dd2c81cba5590d5b10a7e933522abf76c6dfd2c392d278bf236fc48428b0",
                       "9e50b36ab29ad6e2dca7b8b4e2de31343e31ff918051bc472c06eaeaa6253184"),
}
_ZERO_COLUMNS = {"covid": (2, 3), "seir": (0, 2)}


@pytest.mark.parametrize("model, seed", sorted(TRAJECTORY_SHA256))
def test_trajectory_golden_bits(model, seed):
    rhs, _, dim = MODELS[model]
    digests = []
    for shape in (dim, (4, dim)):
        rng = np.random.default_rng(seed)
        p = _draw_params(rng, model)
        dt = float(rng.choice([0.01, 0.025, 0.1]))
        steps = int(rng.integers(50, 300))
        x0 = rng.uniform(0.0, 3.0, shape)
        zero, neg_zero = _ZERO_COLUMNS[model]
        x0[..., zero], x0[..., neg_zero] = 0.0, -0.0
        traj = integrate(lambda x: rhs(p, x), x0, dt=dt, t_end=steps * dt)
        digests.append((hashlib.sha256(traj.times.tobytes()).hexdigest(),
                        hashlib.sha256(traj.states.tobytes()).hexdigest()))
    (times, single), (batch_times, batch) = digests
    assert batch_times == times
    assert (times, single, batch) == TRAJECTORY_SHA256[model, seed]


def test_trajectory_csv_matches_per_row_formatting():
    times = np.arange(6) * 0.1
    states = np.array([[-0.0, 0.0, 1e-300, -1e-300],
                       [1e21, -1e21, 123456789012345.0, -123456789012345.0],
                       [3.0, -7.0, 1e15, 2.0 ** 53],
                       [0.1, 1.0 / 3.0, -2.5e-7, 1e16],
                       [5e-324, 1.7976931348623157e308, 999999999999.5, 12.0],
                       [np.pi, -np.e, 0.5, 100.0]])
    traj = Trajectory(times=times, states=states)
    for header in ("t,S,I1,I2,X", ""):
        assert trajectory_to_csv(traj, header) == csv_per_row(traj, header)
    one_row = Trajectory(times=times[:1], states=states[:1])
    assert trajectory_to_csv(one_row, "t,a,b,c,d") == csv_per_row(one_row, "t,a,b,c,d")
