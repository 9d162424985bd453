from __future__ import annotations

import numpy as np
import pytest

import helpers
import oracles
from netsirs import (
    EndemicEquilibrium,
    IntegratorConfig,
    InvalidInitialError,
    SimplexViolationError,
    Trajectory,
    lyapunov_value,
    residual,
    rhs,
    simulate,
    solve_endemic,
    validate_model,
)


def test_rhs_single_node_hand_value():
    # y = 0.5, z = 0, W = 2, gamma = delta = 1:
    # ydot = 0.5 * 1 - 0.5 = 0, zdot = 0.5
    m = validate_model([[2.0]], [1.0], [1.0])
    ydot, zdot = rhs(np.array([0.5]), np.array([0.0]), m)
    assert ydot[0] == pytest.approx(0.0)
    assert zdot[0] == pytest.approx(0.5)


def test_rhs_vanishes_at_origin(ref5):
    ydot, zdot = rhs(np.zeros(5), np.zeros(5), ref5)
    assert np.all(ydot == 0.0)
    assert np.all(zdot == 0.0)


def test_residual_at_cap(out_regular3):
    # at (ybar, 0) with gamma = delta = 1 and row sums 2:
    # ydot = 0.5 * 1 - 0.5 = 0, zdot = 0.5
    assert residual(out_regular3, out_regular3.ybar, np.zeros(3)) == pytest.approx(0.5)


def test_residual_small_at_endemic_point(ref5):
    eq = solve_endemic(ref5)
    assert isinstance(eq, EndemicEquilibrium)
    assert residual(ref5, eq.y_star, eq.z_star) <= 1e-10


def test_config_rejects_bad_settings():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_end=0.05)
    with pytest.raises(ValueError):
        IntegratorConfig(record_every=0)


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
    states = traj.states
    assert len(states) == 5
    assert np.allclose(states[0].y, [0.1, 0.0, 0.0])


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
    cfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=10, lyapunov_trace=True)
    traj = simulate(sub, np.array([0.2, 0.1, 0.0]), np.zeros(3), cfg)
    assert traj.lyapunov is not None
    assert traj.lyapunov.shape == traj.times.shape
    for k in range(len(traj)):
        v = lyapunov_value(sub, traj.y[k])
        assert traj.lyapunov[k] == pytest.approx(v, abs=1e-12)
    # subcritical: the trace decays monotonically
    assert np.all(np.diff(traj.lyapunov) <= 1e-12)
    assert traj.lyapunov[-1] < traj.lyapunov[0]
