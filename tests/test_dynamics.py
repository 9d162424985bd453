from __future__ import annotations

import functools
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import helpers
import oracles
from netsirs import (
    EndemicEquilibrium,
    IntegratorConfig,
    InvalidInitialError,
    ModelInputError,
    SimplexViolationError,
    Trajectory,
    load_model,
    lyapunov_value,
    reproduction_number,
    rhs,
    run_sweep,
    sample_initial_states,
    simulate,
    solve_endemic,
    validate_model,
)


def test_rhs_single_node_hand_value():
    # y = 0.5, z = 0, W = 2, gamma = delta = 1:
    # ydot = 0.5 * 1 - 0.5 = 0, zdot = 0.5
    m = validate_model([[2.0]], [1.0], [1.0])
    ydot, zdot = rhs(m, np.array([0.5]), np.array([0.0]))
    assert ydot[0] == pytest.approx(0.0)
    assert zdot[0] == pytest.approx(0.5)


def test_rhs_vanishes_at_origin(ref5):
    ydot, zdot = rhs(ref5, np.zeros(5), np.zeros(5))
    assert np.all(ydot == 0.0)
    assert np.all(zdot == 0.0)


def test_residual_at_cap(out_regular3):
    # at (ybar, 0) with gamma = delta = 1 and row sums 2:
    # ydot = 0.5 * 1 - 0.5 = 0, zdot = 0.5
    assert oracles.residual(out_regular3, out_regular3.ybar, np.zeros(3)) == pytest.approx(0.5)


def test_residual_small_at_endemic_point(ref5):
    eq = solve_endemic(ref5)
    assert isinstance(eq, EndemicEquilibrium)
    assert oracles.residual(ref5, eq.y_star, eq.z_star) <= 1e-10


def test_config_rejects_bad_settings():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0)
    # t_end must be a whole number of steps: 0.1 / 0.06 and 1 / 0.4 are not
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.06, t_end=0.1)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.4, t_end=1.0)


@pytest.mark.parametrize("dt, t_end", [(0.01, np.inf), (np.inf, np.inf), (np.nan, 1.0),
                                       (0.01, np.nan), (1e-300, 1e300)])
def test_config_rejects_non_finite_step_count(dt, t_end):
    with pytest.raises(ValueError):
        IntegratorConfig(dt=dt, t_end=t_end)


@pytest.mark.parametrize("every", [2.5, 2.0, True, False, "2", None, -1])
def test_config_rejects_non_integer_record_every(every):
    # int() used to truncate 2.5 to 2 and read True as 1
    with pytest.raises(ModelInputError, match="^record_every must be (an integer|at least 1), got "):
        IntegratorConfig(dt=0.1, t_end=1.0, record_every=every)


def test_config_accepts_numpy_integer_record_every(ref5):
    # one count rule: a numpy integer passes wherever a count is judged
    assert IntegratorConfig(dt=0.1, t_end=1.0, record_every=np.int64(3)).record_every == 3
    assert len(run_sweep(ref5, 0.5, 1.5, np.int64(3))[0]) == 3


def test_simulate_rejects_bad_initials(out_regular3):
    with pytest.raises(InvalidInitialError):
        simulate(out_regular3, np.array([0.1, 0.1]), np.zeros(3))
    with pytest.raises(InvalidInitialError):
        simulate(out_regular3, np.array([-0.1, 0.1, 0.1]), np.zeros(3))
    with pytest.raises(InvalidInitialError):
        simulate(out_regular3, np.array([0.7, 0.1, 0.1]), np.array([0.4, 0.0, 0.0]))


def test_disease_free_start_stays_disease_free():
    """With no infection the y block is exactly invariant and z decays
    like exp(-delta t)."""
    m = validate_model([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [0.5, 2.0])
    z0 = np.array([0.4, 0.3])
    traj = simulate(m, np.zeros(2), z0, IntegratorConfig(dt=0.01, t_end=5.0))
    assert np.all(traj.y == 0.0)
    expected = z0 * np.exp(-m.delta * traj.times[-1])
    assert np.allclose(traj.z[-1], expected, atol=1e-9)
    assert np.allclose(traj.x[-1] + traj.z[-1], 1.0, atol=1e-14)


def test_simulate_record_layout(out_regular3):
    cfg = IntegratorConfig(dt=0.1, t_end=1.0, record_every=3)
    traj = simulate(out_regular3, np.array([0.1, 0.0, 0.0]), np.zeros(3), cfg)
    # steps 0, 3, 6, 9 plus the forced final step 10
    assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert len(traj) == 5
    assert traj.y.shape == (5, 3)
    assert isinstance(traj, Trajectory)
    assert np.allclose(traj.y[0], [0.1, 0.0, 0.0])


def test_simulate_preserves_simplex(ref5, rng):
    y0 = rng.uniform(0.0, 0.2, size=5)
    z0 = rng.uniform(0.0, 0.2, size=5)
    traj = simulate(ref5, y0, z0, IntegratorConfig(dt=0.01, t_end=20.0))
    total = traj.x + traj.y + traj.z
    assert np.max(np.abs(total - 1.0)) <= 1e-9
    assert traj.y.min() > -1e-9
    assert traj.z.min() > -1e-9
    assert traj.x.min() > -1e-9
    # infection becomes strictly positive everywhere once seeded
    assert np.all(traj.y[-1] > 0.0)


def test_simulate_flags_blowup():
    # step size far too large for the contact strength drives the state
    # out of the simplex instead of silently returning garbage
    m = helpers.out_regular(n=3, row_sum=100.0)
    with pytest.raises(SimplexViolationError) as err:
        simulate(m, np.array([0.3, 0.2, 0.1]), np.zeros(3), IntegratorConfig(dt=1.0, t_end=10.0))
    assert "t =" in str(err.value)


@pytest.mark.parametrize("n", [5, 40])
def test_simulate_matches_plain_rk4_bit_for_bit(n):
    """The in-place loop performs the operations of the plain RK4
    expressions in the same order, so every recorded float is equal."""
    rng = np.random.default_rng(n)
    m = helpers.ref5() if n == 5 else helpers.random_supercritical(rng, n, 3.0)
    y0 = rng.uniform(0.0, 0.3, size=n)
    z0 = rng.uniform(0.0, 0.3, size=n)
    traj = simulate(m, y0, z0, IntegratorConfig(dt=0.02, t_end=6.0))
    ys, zs = oracles.rk4_plain(m, y0, z0, 0.02, 300)
    assert np.array_equal(traj.y, ys)
    assert np.array_equal(traj.z, zs)
    assert np.array_equal(traj.x, 1.0 - ys - zs)
    assert np.array_equal(traj.times, np.arange(301) * 0.02)
    # by t = 6 no start has settled, so every step is integrated
    assert traj.steps == 300


@pytest.mark.parametrize("lyapunov", [False, True])
def test_simulate_sparse_records_match_plain_rk4(ref5, lyapunov):
    """With --record-every 7 over 100 steps the last row is the ragged
    final step; every recorded row, the unrecorded steps between them, and
    the V column equal the plain RK4 rows bit for bit."""
    rng = np.random.default_rng(11)
    y0 = rng.uniform(0.0, 0.3, size=5)
    z0 = rng.uniform(0.0, 0.3, size=5)
    cfg = IntegratorConfig(dt=0.02, t_end=2.0, record_every=7)
    traj = simulate(ref5, y0, z0, cfg)
    steps = [*range(0, 100, 7), 100]
    ys, zs = oracles.rk4_plain(ref5, y0, z0, 0.02, 100)
    assert np.array_equal(traj.y, ys[steps])
    assert np.array_equal(traj.z, zs[steps])
    assert np.array_equal(traj.x, 1.0 - ys[steps] - zs[steps])
    assert np.array_equal(traj.times, np.array(steps) * 0.02)
    if lyapunov:
        spectral = reproduction_number(ref5)[1]
        weights = spectral.v_left / ref5.gamma
        assert np.array_equal(lyapunov_value(ref5, traj.y, spectral),
                              [weights @ ys[k] for k in steps])
    else:
        assert traj.table.shape == (len(steps), 1 + 3 * 5)


@pytest.mark.parametrize("every", [1, 2, 99, 100, 101, 10**6])
def test_simulate_record_every_matches_plain_rk4(ref5, every):
    """Unrecorded steps overwrite the next table row in place. Whatever
    record_every is, every recorded row equals the plain RK4 row bit for
    bit; from 100 up only the first and the last state are recorded."""
    rng = np.random.default_rng(every)
    y0 = rng.uniform(0.0, 0.3, size=5)
    z0 = rng.uniform(0.0, 0.3, size=5)
    traj = simulate(ref5, y0, z0, IntegratorConfig(dt=0.02, t_end=2.0, record_every=every))
    steps = [*range(0, 100, every), 100]
    ys, zs = oracles.rk4_plain(ref5, y0, z0, 0.02, 100)
    assert np.array_equal(traj.times, np.array(steps) * 0.02)
    assert np.array_equal(traj.y, ys[steps])
    assert np.array_equal(traj.z, zs[steps])
    assert np.array_equal(traj.x, 1.0 - ys[steps] - zs[steps])


def test_trajectory_views_share_the_record_table(ref5):
    """times, y, z and x are views into the one [t y z x] table."""
    traj = simulate(ref5, np.full(5, 0.1), np.zeros(5),
                    IntegratorConfig(dt=0.1, t_end=1.0, record_every=3))
    assert traj.table.shape == (len(traj), 1 + 3 * 5)
    for view in (traj.times, traj.y, traj.z, traj.x):
        assert np.shares_memory(view, traj.table)
    assert np.array_equal(traj.table, np.column_stack((traj.times, traj.y, traj.z, traj.x)))
    assert np.array_equal(traj.times, np.array([0, 3, 6, 9, 10]) * 0.1)


def test_fourth_order_error_decay(ref5):
    """Halving dt must cut the global error by roughly 2^4."""
    y0 = np.array([0.3, 0.2, 0.1, 0.0, 0.0])
    z0 = np.array([0.1, 0.2, 0.3, 0.0, 0.0])
    ref = simulate(ref5, y0, z0, IntegratorConfig(dt=0.0125, t_end=2.0, record_every=1000))
    errs = []
    for dt in (0.2, 0.1):
        traj = simulate(ref5, y0, z0, IntegratorConfig(dt=dt, t_end=2.0, record_every=1000))
        errs.append(np.max(np.abs(traj.y[-1] - ref.y[-1])))
    ratio = errs[0] / errs[1]
    assert 8.0 <= ratio <= 32.0


def test_lyapunov_trace_matches_pointwise(out_regular3):
    sub = helpers.out_regular(n=3, row_sum=0.8)
    cfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=10)
    traj = simulate(sub, np.array([0.2, 0.1, 0.0]), np.zeros(3), cfg)
    spectral = reproduction_number(sub)[1]
    trace = lyapunov_value(sub, traj.y, spectral)
    assert trace is not None
    assert trace.shape == traj.times.shape
    for k in range(len(traj)):
        v = lyapunov_value(sub, traj.y[k], spectral)
        assert trace[k] == pytest.approx(v, abs=1e-12)
    # subcritical: the trace decays monotonically
    assert np.all(np.diff(trace) <= 1e-12)
    assert trace[-1] < trace[0]


@functools.cache
def _settling_run(name: str):
    """(model, y0, z0, plain RK4 rows of y and z) over 4,000 steps of
    dt = 0.02: ref5 or a random n = 40 model with R0 = 3, both of which
    settle well before t = 80."""
    rng = np.random.default_rng(80)
    m = helpers.ref5() if name == "ref5" else helpers.random_supercritical(rng, 40, 3.0)
    y0 = rng.uniform(0.0, 0.3, size=m.n)
    z0 = rng.uniform(0.0, 0.3, size=m.n)
    return (m, y0, z0, *oracles.rk4_plain(m, y0, z0, 0.02, 4000))


@pytest.mark.parametrize("every", [1, 7, 4000, 10**6])
@pytest.mark.parametrize("name", ["ref5", "random40"])
def test_simulate_matches_plain_rk4_across_settling(name, every):
    """Once a step returns its input bit for bit simulate stops and fills
    the rows left with that state; the table still equals the plain RK4
    rows of every step, times included."""
    m, y0, z0, ys, zs = _settling_run(name)
    traj = simulate(m, y0, z0, IntegratorConfig(dt=0.02, t_end=80.0, record_every=every))
    steps = [*range(0, 4000, every), 4000]
    assert traj.steps < 4000
    assert np.array_equal(traj.times, np.array(steps) * 0.02)
    assert np.array_equal(traj.y, ys[steps])
    assert np.array_equal(traj.z, zs[steps])
    assert np.array_equal(traj.x, 1.0 - ys[steps] - zs[steps])


def test_simulate_settles_at_once_at_the_origin(ref5):
    """At y = z = 0 every RK4 stage is +0.0, so the first step returns
    its input and every row is [t 0 0 1]."""
    traj = simulate(ref5, np.zeros(5), np.zeros(5),
                    IntegratorConfig(dt=0.02, t_end=80.0, record_every=7))
    steps = [*range(0, 4000, 7), 4000]
    ys, zs = oracles.rk4_plain(ref5, np.zeros(5), np.zeros(5), 0.02, 4000)
    assert traj.steps == 1
    assert np.array_equal(traj.times, np.array(steps) * 0.02)
    assert np.array_equal(traj.y, ys[steps]) and np.array_equal(traj.z, zs[steps])
    assert np.array_equal(traj.table[:, 1:], np.tile([0.0] * 10 + [1.0] * 5, (len(steps), 1)))


def test_settled_run_allocates_nothing_per_later_step(ref5):
    """10**7 steps with two recorded rows: after settling at step 1 the
    fill allocates nothing of the size of the later steps (an arange over
    them would take 80 MB)."""
    cfg = IntegratorConfig(dt=0.01, t_end=1e5, record_every=10**7)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        traj = simulate(ref5, np.zeros(5), np.zeros(5), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps == 1
    assert np.array_equal(traj.times, [0.0, 10**7 * 0.01])
    assert peak < 2**20


def test_unsettled_run_allocates_nothing_per_step():
    """20,000 steps of five_node at dt = 0.001 end at t = 20, well before
    the state settles, and every one of them is integrated; the loop works
    in buffers allocated once, so the traced peak stays a few kB."""
    m = load_model(os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json"))
    y0 = np.array([0.1, 0.0, 0.2, 0.05, 0.0])
    z0 = np.array([0.0, 0.1, 0.0, 0.3, 0.0])
    cfg = IntegratorConfig(dt=0.001, t_end=20.0, record_every=20000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        traj = simulate(m, y0, z0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.steps == 20000
    assert len(traj) == 2
    assert peak < 2**16


def test_settled_five_node_runs_match_an_independent_integrator():
    """five_node from 8 seeded starts to t = 100 at dt = 0.01: every run
    settles, its last row lies within 1e-11 of scipy's DOP853 and its
    settled state within 1e-12 of the endemic equilibrium, bracketed to
    1e-14 (at the default tol of 1e-12 the bracket alone is that wide)."""
    m = load_model(os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json"))
    eq = solve_endemic(m, tol=1e-14)
    n = m.n

    def field(t, u):
        return np.concatenate(rhs(m, u[:n], u[n:]))

    rng = np.random.default_rng(100)
    for y0, z0 in sample_initial_states(n, 8, rng):
        traj = simulate(m, y0, z0, IntegratorConfig(dt=0.01, t_end=100.0))
        assert traj.steps < 10_000
        ref = solve_ivp(field, (0.0, 100.0), np.concatenate([y0, z0]), method="DOP853",
                        rtol=1e-12, atol=1e-14).y[:, -1]
        assert np.max(np.abs(traj.table[-1, 1:1 + 2 * n] - ref)) <= 1e-11
        assert np.max(np.abs(traj.y[-1] - eq.y_star)) <= 1e-12
        assert np.max(np.abs(traj.z[-1] - eq.z_star)) <= 1e-12
