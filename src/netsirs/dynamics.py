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
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInitialError, ModelInputError, SimplexViolationError,
                     check_count, check_positive)
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
        check_positive(self.dt, "dt")
        if not self.dt <= self.t_end < math.inf:
            raise ModelInputError("t_end must be finite and cover at least one step")
        steps = self.t_end / self.dt
        if not steps < math.inf:
            raise ModelInputError("t_end / dt must be a finite number of steps")
        if abs(steps - round(steps)) > STEP_COUNT_SLACK * steps:
            raise ModelInputError(f"t_end = {self.t_end:g} is not a whole number of "
                                  f"steps of dt = {self.dt:g} (t_end / dt = {steps:.12g})")
        check_count(self.record_every, "record_every")


def _block(k: int) -> property:
    # the k-th n-column block of [y z x], as a view into the table
    return property(lambda self: self.table[:, 1 + k * self.n:1 + (k + 1) * self.n])


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one integration.

    table has shape (m, 1 + 3n), row k the k-th recorded state [t y z x],
    which is the trajectory CSV row. times (m,) and y, z, x (m, n) are
    views into it. steps is the number of RK4 steps integrated: fewer than
    t_end / dt when the state settled (see simulate).
    """

    table: np.ndarray
    steps: int
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


def simulate(
    model: ModelInstance,
    y0: np.ndarray,
    z0: np.ndarray,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Integrate from (y0, z0) and record every record_every-th step.

    The recorded steps are [*range(0, n_steps, record_every), n_steps]:
    the initial state and the final step are always recorded. That one
    schedule sets the rows of an (m, 1 + 3n) table of [t y z x] rows and
    fills its t column before the loop. The state lives in a point
    buffer [W y | y | z | x | gamma | delta], and each
    stage in another with s = (1 - y) - z in place of x: a point's halves
    val = [W y | y | z] and fac = [s | gamma | delta] multiply to its
    whole field [s (W y) | gamma y | delta z] in one call. Each step
    updates [y z] in place, fills x and checks [y z x] with one minimum;
    a recorded step copies [y z x] into its row. Every stage
    writes into buffers allocated once before the loop, so no step
    allocates an array. With the operations in the order of the plain
    expressions, a step makes 33 numpy calls, and a recorded one a 34th
    for its row.

    A step is a pure function of [y z]: it reads only that, W, the rates
    and dt, and overwrites every buffer it uses. So once a step returns
    its input bit for bit (an equilibrium is a fixed point of every RK4
    map, and a converging orbit reaches one in floating point), every
    later state is that state. The loop then stops and writes it into
    the [y z x] of every row left. The test compares bytes (-0.0 is not
    0.0) after the simplex check, so a NaN never settles; the table is
    the one the full loop writes, byte for byte, and Trajectory.steps
    counts the steps integrated.

    Raises InvalidInitialError when (1 - y0 - z0, y0, z0) is not a valid
    state and SimplexViolationError as soon as the state leaves the
    simplex by more than SIMPLEX_VIOLATION_TOL. Every step is checked, so
    the run stops at the first bad step, whose time is named in the
    message. Both checks are written so that NaN fails them, so a step
    whose stages overflow (W ~ 1e150 does inside the first) stops the run
    there too, without a numpy warning.
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
    # [*range(0, n_steps, every), n_steps]: the arange ends at the first multiple >= n_steps
    schedule = np.arange(0, n_steps + every, every)
    schedule[-1] = n_steps

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
    acc = np.empty(2 * n)
    # A point buffer [W y | y | z | s | gamma | delta] holds a point [y z],
    # its factor s = (1 - y) - z and the rates, so that its halves
    # val = [W y | y | z] and fac = [s | gamma | delta] multiply to the
    # field [s * (W y) | gamma * y | delta * z], and k = field[:2n] - field[n:].
    # cur holds the state, whose s is its x, so [y z x] is one slice of it;
    # work holds the stage.
    cur = np.concatenate([np.empty(4 * n), model.gamma, model.delta])
    work = cur.copy()
    val1, fac1, wu, u, state = cur[:3 * n], cur[3 * n:], cur[:n], cur[n:3 * n], cur[n:4 * n]
    uy, uz, ux = cur[n:2 * n], cur[2 * n:3 * n], cur[3 * n:4 * n]
    val, fac, wy, stage = work[:3 * n], work[3 * n:], work[:n], work[n:3 * n]
    stage_y, stage_z, s = work[n:2 * n], work[2 * n:3 * n], work[3 * n:4 * n]
    field = np.empty(3 * n)
    pair, flows = field[:2 * n], field[n:]
    k1, k2, k3, k4 = (np.empty(2 * n) for _ in range(4))
    # W.dot skips the __array_function__ dispatch of np.dot: same product
    add, sub, mul, dot, lowest = np.add, np.subtract, np.multiply, W.dot, np.minimum.reduce

    def f(k: np.ndarray) -> None:
        # k = [(1 - y - z) * (W @ y) - gamma * y; gamma * y - delta * z] at the stage
        sub(one, stage_y, s)
        sub(s, stage_z, s)
        dot(stage_y, wy)
        mul(fac, val, field)
        sub(pair, flows, k)

    # Row k of the table is the k-th recorded state [t y z x], t set here
    table = np.empty((len(schedule), 1 + 3 * n))
    mul(schedule, dt, table[:, 0])
    # the initial state, already on the simplex by the check above
    uy[:] = y
    uz[:] = z
    sub(one, uy, ux)
    sub(ux, uz, ux)
    table[0, 1:] = state
    recorded = 1
    # a stage that overflows leaves inf or NaN in the state, which the
    # simplex check turns into SimplexViolationError
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            # the step updates u in place, so snapshot it first
            before = u.tobytes()
            # at the state the stage-one factor (1 - y) - z is its x
            dot(uy, wu)
            mul(fac1, val1, field)
            sub(pair, flows, k1)
            add(u, mul(k1, half, stage), stage)  # u + half * k1
            f(k2)
            add(u, mul(k2, half, stage), stage)
            f(k3)
            add(u, mul(k3, full, stage), stage)
            f(k4)
            # u + sixth * (k1 + 2 * (k2 + k3) + k4), in place, then x = (1 - y) - z
            add(k2, k3, acc)
            mul(acc, two, acc)
            add(k1, acc, acc)
            add(acc, k4, acc)
            add(u, mul(acc, sixth, acc), u)
            sub(one, uy, ux)
            sub(ux, uz, ux)
            if not lowest(state) >= -SIMPLEX_VIOLATION_TOL:
                raise SimplexViolationError(f"state left the simplex at t = {step * dt:.6g}; reduce dt")
            if step % every == 0 or step == n_steps:
                table[recorded, 1:] = state
                recorded += 1
            if u.tobytes() == before:
                # settled: every later step returns this state, so the rows
                # left are this state
                table[recorded:, 1:] = state
                break

    return Trajectory(table, step)
