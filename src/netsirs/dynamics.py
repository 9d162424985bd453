"""Trajectory integration of the coupled infection dynamics.

The reduced vector field on (y, z) is

    ydot_i = (1 - y_i - z_i) (W y)_i - gamma_i y_i
    zdot_i = gamma_i y_i - delta_i z_i

with x = 1 - y - z recovered per population. Integration is classical
fixed-step fourth-order Runge-Kutta with no projection back onto the
simplex: staying inside it is a property of the dynamics that the tests
check, not something the integrator enforces. Recorded states that drift
beyond SIMPLEX_VIOLATION_TOL abort the run, which in practice flags a
step size too large for the stiffest rate in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInitialError, SimplexViolationError
from .model import FullState, ModelInstance
from .spectral import SpectralResult, reproduction_number

SIMPLEX_VIOLATION_TOL = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    dt must be positive, t_end at least one step long, record_every >= 1.
    When lyapunov_trace is set the value v_left' [gamma]^-1 y is recorded
    alongside every state (v_left is the positive left eigenvector of M,
    unit 1-norm), which is nonincreasing along trajectories of subcritical
    models.
    """

    dt: float = 0.01
    t_end: float = 100.0
    record_every: int = 1
    lyapunov_trace: bool = False

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must cover at least one step")
        if int(self.record_every) < 1:
            raise ValueError("record_every must be a positive integer")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one integration.

    times has shape (m,); y, z and x have shape (m, n) with row k the
    state at times[k]; lyapunov is None or shape (m,).
    """

    times: np.ndarray
    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    lyapunov: np.ndarray | None = None

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def states(self) -> list[FullState]:
        return [FullState(x=self.x[k], y=self.y[k], z=self.z[k]) for k in range(len(self))]


def rhs(y: np.ndarray, z: np.ndarray, model: ModelInstance) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (ydot, zdot) of the reduced dynamics."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ydot = (1.0 - y - z) * (model.W @ y) - model.gamma * y
    zdot = model.gamma * y - model.delta * z
    return ydot, zdot


def residual(model: ModelInstance, y: np.ndarray, z: np.ndarray) -> float:
    """Stationarity defect max(||ydot||_inf, ||zdot||_inf) at (y, z)."""
    ydot, zdot = rhs(y, z, model)
    return float(max(np.max(np.abs(ydot)), np.max(np.abs(zdot))))


def simulate(
    model: ModelInstance,
    y0: np.ndarray,
    z0: np.ndarray,
    config: IntegratorConfig | None = None,
    spectral: SpectralResult | None = None,
) -> Trajectory:
    """Integrate from (y0, z0) and record every record_every-th step.

    The initial state and the final step are always recorded. The state
    is one stacked vector u = [y; z]; every stage writes into buffers
    allocated once before the loop, and the recorded rows go into output
    arrays sized up front, so no step allocates an array. Raises
    InvalidInitialError when (1 - y0 - z0, y0, z0) is not a valid state
    and SimplexViolationError as soon as a recorded state leaves the
    simplex by more than SIMPLEX_VIOLATION_TOL; each row is checked as it
    is recorded, so the run stops at the first bad record, whose time is
    named in the message. Both checks are written so that NaN fails them.
    For lyapunov_trace runs a precomputed SpectralResult for model.M can
    be passed to skip the eigensolve.
    """
    cfg = config if config is not None else IntegratorConfig()
    y = np.array(y0, dtype=float)
    z = np.array(z0, dtype=float)
    n = model.n
    if y.shape != (n,) or z.shape != (n,):
        raise InvalidInitialError(
            f"initial vectors must have shape ({n},), got {y.shape} and {z.shape}"
        )
    if not (np.all(y >= 0.0) and np.all(z >= 0.0) and np.all(y + z <= 1.0 + 1e-12)):
        raise InvalidInitialError("initial fractions must be nonnegative with y + z <= 1")

    weights = None
    if cfg.lyapunov_trace:
        if spectral is None:
            spectral = reproduction_number(model)[1]
        weights = spectral.v_left / model.gamma

    W = model.W
    dt = float(cfg.dt)
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = int(round(cfg.t_end / dt))
    every = int(cfg.record_every)
    m = 1 + n_steps // every + (1 if n_steps % every else 0)

    # Every buffer is allocated here, once. Each is a (whole, y half, z half)
    # triple of views; f and the step write into them with out= in the
    # operation order of the plain expressions in the comments, so every
    # float is the one those expressions give.
    def halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return v, v[:n], v[n:]

    state = halves(np.concatenate([y, z]))
    u, uy, uz = state
    stage = halves(np.empty(2 * n))
    k1, k2, k3, k4 = (halves(np.empty(2 * n)) for _ in range(4))
    outflow, outflow_y, outflow_z = halves(np.empty(2 * n))
    rate = np.concatenate([model.gamma, model.delta])
    s = np.empty(n)
    wy = np.empty(n)
    acc = np.empty(2 * n)
    add, sub, mul, dot, lowest = np.add, np.subtract, np.multiply, np.dot, np.minimum.reduce

    times = np.empty(m)
    states = np.empty((m, 2 * n))
    x = np.empty((m, n))
    values = np.empty(m) if weights is not None else None

    def f(v: tuple, k: tuple) -> None:
        # k = [(1 - y - z) * (W @ y) - gamma * y; gamma * y - delta * z] at v = [y; z]
        v, vy, vz = v
        sub(1.0, vy, s)
        sub(s, vz, s)
        dot(W, vy, wy)
        mul(s, wy, s)
        mul(rate, v, outflow)
        sub(s, outflow_y, k[1])
        sub(outflow_y, outflow_z, k[2])

    def record(row: int, t: float) -> None:
        times[row] = t
        states[row] = u
        x_row = x[row]
        sub(1.0, uy, x_row)
        sub(x_row, uz, x_row)
        if not (lowest(u) >= -SIMPLEX_VIOLATION_TOL and lowest(x_row) >= -SIMPLEX_VIOLATION_TOL):
            raise SimplexViolationError(f"state left the simplex at t = {t:.6g}; reduce dt")
        if values is not None:
            values[row] = float(weights @ uy)

    record(0, 0.0)
    row = 1
    ahead = stage[0]
    for step in range(1, n_steps + 1):
        f(state, k1)
        add(u, mul(k1[0], half, ahead), ahead)  # u + half * k1
        f(stage, k2)
        add(u, mul(k2[0], half, ahead), ahead)
        f(stage, k3)
        add(u, mul(k3[0], dt, ahead), ahead)
        f(stage, k4)
        # u + sixth * (k1 + 2 * (k2 + k3) + k4)
        add(k2[0], k3[0], acc)
        mul(acc, 2.0, acc)
        add(k1[0], acc, acc)
        add(acc, k4[0], acc)
        add(u, mul(acc, sixth, acc), u)
        if step % every == 0 or step == n_steps:
            record(row, step * dt)
            row += 1

    return Trajectory(
        times=times,
        y=states[:, :n],
        z=states[:, n:],
        x=x,
        lyapunov=values,
    )
