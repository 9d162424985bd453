"""Trajectory integration of the coupled infection dynamics.

The reduced vector field on (y, z) is

    ydot_i = (1 - y_i - z_i) (W y)_i - gamma_i y_i
    zdot_i = gamma_i y_i - delta_i z_i

with x = 1 - y - z recovered per population. Integration is classical
fixed-step fourth-order Runge-Kutta with no projection back onto the
simplex: staying inside it is a property of the dynamics that the tests
check, not something the integrator enforces. A state that drifts beyond
SIMPLEX_VIOLATION_TOL after any step, recorded or not, aborts the run,
which in practice flags a step size too large for the stiffest rate in
the model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInitialError, ModelInputError, SimplexViolationError
from .model import ModelInstance

SIMPLEX_VIOLATION_TOL = 1e-6
# relative distance of t_end / dt from a whole number that rounding absorbs
STEP_COUNT_SLACK = 1e-9


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings.

    dt must be positive, t_end at least one step long, both finite with a
    finite step count t_end / dt that is a whole number up to a relative
    STEP_COUNT_SLACK, and record_every an integer >= 1 (not a bool);
    ModelInputError otherwise.
    """

    dt: float = 0.01
    t_end: float = 100.0
    record_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ModelInputError("dt must be positive and finite")
        if not self.dt <= self.t_end < math.inf:
            raise ModelInputError("t_end must be finite and cover at least one step")
        steps = self.t_end / self.dt
        if not steps < math.inf:
            raise ModelInputError("t_end / dt must be a finite number of steps")
        if abs(steps - round(steps)) > STEP_COUNT_SLACK * steps:
            raise ModelInputError(f"t_end = {self.t_end:g} is not a whole number of "
                                  f"steps of dt = {self.dt:g} (t_end / dt = {steps:.12g})")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ModelInputError(f"record_every must be a positive integer, got {every!r}")


def _block(k: int) -> property:
    # the k-th n-column block of [y z x], as a view into the table
    return property(lambda self: self.table[:, 1 + k * self.n:1 + (k + 1) * self.n])


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one integration.

    table has shape (m, 1 + 3n), row k the k-th recorded state [t y z x],
    which is the trajectory CSV row. times (m,) and y, z, x (m, n) are
    views into it.
    """

    table: np.ndarray
    times = property(lambda self: self.table[:, 0])
    y, z, x = _block(0), _block(1), _block(2)

    def __len__(self) -> int:
        return self.table.shape[0]

    @property
    def n(self) -> int:
        return (self.table.shape[1] - 1) // 3


def rhs(model: ModelInstance, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (ydot, zdot) at a state (y, z) or at each row of blocks."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ydot = (1.0 - y - z) * np.matvec(model.W, y) - model.gamma * y
    zdot = model.gamma * y - model.delta * z
    return ydot, zdot


def residual(model: ModelInstance, y: np.ndarray, z: np.ndarray) -> float:
    """Stationarity defect max(||ydot||_inf, ||zdot||_inf) at (y, z)."""
    ydot, zdot = rhs(model, y, z)
    return float(max(np.max(np.abs(ydot)), np.max(np.abs(zdot))))


def simulate(
    model: ModelInstance,
    y0: np.ndarray,
    z0: np.ndarray,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate from (y0, z0) and record every record_every-th step.

    The initial state and the final step are always recorded. Recorded
    states live in one (m, 1 + 3n) table of [t y z x] rows: each step
    writes its new state straight into the next unrecorded row, fills x
    there and checks the [y z x] part with one minimum; a step that is
    not recorded leaves that row to be overwritten by the next step, and
    a recorded one gets its t there. Every stage writes into buffers
    allocated once before the loop, so no step allocates an array.
    Raises InvalidInitialError when (1 - y0 - z0, y0, z0) is not a valid
    state and SimplexViolationError as soon as the state leaves the
    simplex by more than SIMPLEX_VIOLATION_TOL. Every step is checked, so
    the run stops at the first bad step, whose time is named in the
    message, before the state can overflow. Both checks are written so
    that NaN fails them.
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

    W = model.W
    dt = float(cfg.dt)
    n_steps = int(round(cfg.t_end / dt))
    every = int(cfg.record_every)
    m = 1 + n_steps // every + (1 if n_steps % every else 0)

    # Every buffer is allocated here, once, with its views. The step writes
    # into them with out= in the operation order of the plain expressions
    # in the comments, so every float is the one those expressions give.
    # Every operand is an array: a Python float operand costs a ufunc call
    # about twice as much dispatch time.
    one = np.ones(n)
    half = np.full(2 * n, 0.5 * dt)
    full = np.full(2 * n, dt)
    two = np.full(2 * n, 2.0)
    sixth = np.full(2 * n, dt / 6.0)
    rate = np.concatenate([model.gamma, model.delta])
    s = np.empty(n)
    wy = np.empty(n)
    acc = np.empty(2 * n)
    # field = [s * (W @ y) | gamma * y | delta * z], so k = field[:2n] - field[n:]
    field = np.empty(3 * n)
    drive, pair, flows = field[:n], field[:2 * n], field[n:]
    stage = np.empty(2 * n)
    stage_y, stage_z = stage[:n], stage[n:]
    k1, k2, k3, k4 = (np.empty(2 * n) for _ in range(4))
    add, sub, mul, dot, lowest = np.add, np.subtract, np.multiply, np.dot, np.minimum.reduce

    # Row k of the table is the k-th recorded state [t y z x]; every step
    # writes row `recorded`, which only a recorded step moves past.
    table = np.empty((m, 1 + 3 * n))

    def views(state: np.ndarray) -> tuple:
        # state [y z x] -> (state, [y z], y, z, x)
        return state, state[:2 * n], state[:n], state[n:2 * n], state[2 * n:]

    def f(k: np.ndarray) -> None:
        # k = [(1 - y - z) * (W @ y) - gamma * y; gamma * y - delta * z] at the stage
        sub(one, stage_y, s)
        sub(s, stage_z, s)
        dot(W, stage_y, wy)
        mul(s, wy, drive)
        mul(rate, stage, flows)
        sub(pair, flows, k)

    # row 0: the initial state, already on the simplex by the check above
    table[0, 0] = 0.0
    table[0, 1:1 + n] = y
    table[0, 1 + n:1 + 2 * n] = z
    state, u, uy, uz, ux = views(table[0, 1:])
    sub(one, uy, ux)
    sub(ux, uz, ux)
    recorded = 1
    for step in range(1, n_steps + 1):
        # at u the stage-one factor (1 - y) - z is the x of u's row
        dot(W, uy, wy)
        mul(ux, wy, drive)
        mul(rate, u, flows)
        sub(pair, flows, k1)
        add(u, mul(k1, half, stage), stage)  # u + half * k1
        f(k2)
        add(u, mul(k2, half, stage), stage)
        f(k3)
        add(u, mul(k3, full, stage), stage)
        f(k4)
        state, nxt, uy, uz, ux = views(table[recorded, 1:])
        # u + sixth * (k1 + 2 * (k2 + k3) + k4), then x = (1 - y) - z
        add(k2, k3, acc)
        mul(acc, two, acc)
        add(k1, acc, acc)
        add(acc, k4, acc)
        add(u, mul(acc, sixth, acc), nxt)
        u = nxt
        sub(one, uy, ux)
        sub(ux, uz, ux)
        if not lowest(state) >= -SIMPLEX_VIOLATION_TOL:
            raise SimplexViolationError(f"state left the simplex at t = {step * dt:.6g}; reduce dt")
        if step % every == 0 or step == n_steps:
            table[recorded, 0] = step * dt
            recorded += 1

    return Trajectory(table)
