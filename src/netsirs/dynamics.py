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

    The initial state and the final step are always recorded. Raises
    InvalidInitialError when (1 - y0 - z0, y0, z0) is not a valid state
    and SimplexViolationError when any recorded state leaves the simplex
    by more than SIMPLEX_VIOLATION_TOL; the offending time is named in
    the message. Both checks are written so that NaN fails them. For
    lyapunov_trace runs a precomputed SpectralResult for model.M can be
    passed to skip the eigensolve.
    """
    cfg = config if config is not None else IntegratorConfig()
    y = np.array(y0, dtype=float)
    z = np.array(z0, dtype=float)
    if y.shape != (model.n,) or z.shape != (model.n,):
        raise InvalidInitialError(
            f"initial vectors must have shape ({model.n},), got {y.shape} and {z.shape}"
        )
    if not (np.all(y >= 0.0) and np.all(z >= 0.0) and np.all(y + z <= 1.0 + 1e-12)):
        raise InvalidInitialError("initial fractions must be nonnegative with y + z <= 1")

    weights = None
    if cfg.lyapunov_trace:
        if spectral is None:
            spectral = reproduction_number(model)[1]
        weights = spectral.v_left / model.gamma

    W, gamma, delta = model.W, model.gamma, model.delta
    dt = float(cfg.dt)
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = int(round(cfg.t_end / dt))
    every = int(cfg.record_every)

    times = [0.0]
    ys = [y.copy()]
    zs = [z.copy()]
    values = [float(weights @ y)] if weights is not None else None

    def f(yv: np.ndarray, zv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inf = (1.0 - yv - zv) * (W @ yv)
        return inf - gamma * yv, gamma * yv - delta * zv

    for step in range(1, n_steps + 1):
        k1y, k1z = f(y, z)
        k2y, k2z = f(y + half * k1y, z + half * k1z)
        k3y, k3z = f(y + half * k2y, z + half * k2z)
        k4y, k4z = f(y + dt * k3y, z + dt * k3z)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        if step % every == 0 or step == n_steps:
            t = step * dt
            if not (
                np.all(y >= -SIMPLEX_VIOLATION_TOL)
                and np.all(z >= -SIMPLEX_VIOLATION_TOL)
                and np.all(1.0 - y - z >= -SIMPLEX_VIOLATION_TOL)
            ):
                raise SimplexViolationError(
                    f"state left the simplex at t = {t:.6g}; reduce dt"
                )
            times.append(t)
            ys.append(y.copy())
            zs.append(z.copy())
            if values is not None:
                values.append(float(weights @ y))

    y_arr = np.array(ys)
    z_arr = np.array(zs)
    return Trajectory(
        times=np.array(times),
        y=y_arr,
        z=z_arr,
        x=1.0 - y_arr - z_arr,
        lyapunov=np.array(values) if values is not None else None,
    )
