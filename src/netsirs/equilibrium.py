"""Endemic equilibria through a monotone scalar map.

Stationary infection profiles are exactly the fixed points of

    Phi(y) = Psi(M y),    Psi(u)_i = u_i / (1 + (1 + alpha_i) u_i),

taken componentwise. Phi is nondecreasing in y and M, nonincreasing in
alpha, and maps everything into the box 0 <= y_i < ybar_i. When the
reproduction number is at most one the origin is the only fixed point;
above one there is exactly one more, strictly positive, which Phi walks
down to from a super-solution and up to from a positive sub-solution.
solve_endemic starts both on the Perron ray, along which that point leaves
the origin at R0 = 1, and stops when the two-sided bracket closes.

Near R0 = 1 the Phi steps contract at a rate that tends to 1, so once
they fail to halve the bracket, at a rate too slow to close it within
about n more steps, solve_endemic takes Newton-Fourier steps (Ortega &
Rheinboldt 1970, section 13.3) on the convex map F(y) = y - Phi(y)
instead. Each is certified in floating point before it replaces a bracket
end: Phi(u) <= u above, Phi(l) >= l > 0 below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EpsilonStarNotFoundError,
    ModelInputError,
    check_tol,
    stop_rule,
)
from .model import ModelInstance
from .spectral import SpectralResult, reproduction_number

# Half-width of the threshold band. The computed r0 - 1 puts a model in
# one of three states, and every command reports that one: below
# (r0 - 1 < -R0_TOL), near (|r0 - 1| <= R0_TOL) or above (r0 - 1 > R0_TOL).
# Only above does solve_endemic return an endemic equilibrium.
R0_TOL = 1e-9

# most applications of Phi that iterate_phi may take, and most iterations,
# Phi or Newton-Fourier, of the bracket loop of solve_endemic
PHI_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class EndemicEquilibrium:
    """Strictly positive stationary profile with solver diagnostics.

    residual is the componentwise defect max_k |y_k - Phi(y)_k| / y_k at
    y = y_star, at most tol, and bracket_gap the final sup-norm distance
    between the upper and lower iterate sequences; iterations counts
    bracket-loop iterations, Phi or Newton-Fourier.
    """

    y_star: np.ndarray
    z_star: np.ndarray
    x_star: np.ndarray
    iterations: int
    residual: float
    bracket_gap: float


@dataclass(frozen=True)
class NoEndemic:
    """Returned below and near the threshold, r0 - 1 <= R0_TOL.

    near_threshold marks the near state, |r0 - 1| <= R0_TOL, so every
    NoEndemic with r0 > 1 has it: there the fixed-point problem is too
    ill conditioned to resolve a positive equilibrium from the origin.
    Without it the state is below, where only the origin is stationary.
    """

    r0: float
    near_threshold: bool


def psi(y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Componentwise saturation y_i / (1 + (1 + alpha_i) y_i).

    Increasing in y_i, decreasing in alpha_i, with values in [0, ybar_i)
    for y_i >= 0.
    """
    y = np.asarray(y, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    return y / (1.0 + (1.0 + alpha) * y)


def phi(y: np.ndarray, M: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The fixed-point map Psi(M y), for one vector y or a (k, n) block
    of them, one per row. np.matvec runs one gemv per row, so every row
    equals the vector result, and a vector's M y equals M @ y, bit for
    bit."""
    return psi(np.matvec(np.asarray(M, dtype=float), np.asarray(y, dtype=float)), alpha)


def iterate_phi(
    xi0: np.ndarray,
    M: np.ndarray,
    alpha: np.ndarray,
    tol: float = 1e-12,
) -> tuple[np.ndarray, int]:
    """Iterate Phi from xi0 until the step size drops to tol.

    Returns the final iterate and the number of steps taken; no iterate
    history is kept. The iterate fixes every later step, so at the
    rounding floor, where the steps can cycle above tol, it recurs;
    stop_rule raises as soon as it does, and when PHI_MAX_ITER
    applications of the map still leave steps above tol. Raises
    ModelInputError, before the first step, when tol is not positive and
    finite or xi0 is not a finite vector of length n = M.shape[0].
    """
    check_tol(tol)
    xi = np.array(xi0, dtype=float)
    n = np.shape(M)[0]
    if xi.shape != (n,):
        raise DimensionMismatchError(f"xi0 must have shape ({n},), got {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise ModelInputError("xi0 must be finite")
    closed = stop_rule(tol, PHI_MAX_ITER, "steps")
    gap = np.inf
    for step in itertools.count():
        if closed(step, gap, xi.tobytes(), "fixed-point step"):
            return xi, step
        nxt = phi(xi, M, alpha)
        gap = float(np.max(np.abs(nxt - xi)))
        xi = nxt


def x_star(model: ModelInstance, y: np.ndarray) -> np.ndarray:
    """Susceptible fractions x*_k = gamma_k y_k / (W y)_k of a stationary
    profile y, exact up to rounding where 1 - y - z cancels; 1 where
    y_k = 0, as at the infection-free state."""
    y = np.asarray(y, dtype=float)
    return np.divide(model.gamma * y, model.W @ y, out=np.ones_like(y), where=y != 0.0)


def _ray_bracket(model: ModelInstance, v: np.ndarray) -> np.ndarray:
    """The bracket's starting rows [u, l] on the ray of v > 0. With m = M v
    and c = (m - v) / ((1 + alpha) m v), Phi(eps v) >= eps v exactly when
    eps <= min c, and Phi(eps v) <= eps v exactly when eps >= max c. So
    l = 0.999 min(c) v is a sub-solution and u = min(1.001 max(c) v, ybar),
    the least of two super-solutions, is one; on the Perron vector both
    close in on y* as R0 falls to 1. One Phi step of the block checks
    Phi(l) >= l > 0 and, off the cap, Phi(u) <= u (on it Phi < ybar holds
    exactly, but rounding can pass ybar by an ulp); a failed check (m > v
    was violated) raises EpsilonStarNotFoundError."""
    m = model.M @ v
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (m - v) / ((1.0 + model.alpha) * m * v)
        Y = np.stack([np.minimum(1.001 * c.max() * v, model.ybar), 0.999 * c.min() * v])
        image = phi(Y, model.M, model.alpha)
    upper = (image[0] <= Y[0]) | (Y[0] == model.ybar)
    if np.all(upper) and np.all(image[1] >= Y[1]) and np.all(Y[1] > 0.0):
        return Y
    raise EpsilonStarNotFoundError("no positive scale made Phi expand the start vector")


def _newton_fourier(
    M: np.ndarray,
    alpha: np.ndarray,
    Y: np.ndarray,
    MY: np.ndarray,
    tol: float,
) -> np.ndarray:
    """One certified Newton-Fourier step for the bracket rows Y = [u, l].

    MY = M Y row by row, so the Phi step is psi(MY, alpha) and
    Psi'(M u) = (1 + (1 + alpha) (M u))^-2. One dense solve of
    F'(u) = I - [Psi'(M u)] M against [F(u), F(l), 1] gives both Newton
    iterates and w = F'(u)^-1 1 > 0. Each iterate is pushed outward by
    kappa w, kappa = tol / (4 max w), which raises its margin in F by
    about kappa. Phi is monotone, so u' = min(pushed iterate, Phi(u)) is
    a super-solution when the iterate is, l' = max(pushed iterate, Phi(l))
    likewise a sub-solution, and each is kept if it
    passes its check in floating point: Phi(u') <= u' above,
    Phi(l') >= l' > 0 below. A row that fails takes its Phi step.
    Returns the new rows.
    """
    stepped = psi(MY, alpha)
    upper, lower = Y
    jac = np.eye(len(upper)) - M / np.square(1.0 + (1.0 + alpha) * MY[0])[:, None]
    rhs = np.stack([upper - stepped[0], lower - stepped[1], np.ones_like(upper)], axis=1)
    try:
        du, dl, w = np.linalg.solve(jac, rhs).T
    except np.linalg.LinAlgError:
        return stepped
    push = (tol / (4.0 * w.max())) * w
    cand = np.stack([np.minimum((upper - du) + push, stepped[0]),
                     np.maximum((lower - dl) - push, stepped[1])])
    image = phi(cand, M, alpha)
    if np.all(image[0] <= cand[0]):
        stepped[0] = cand[0]
    if np.all(image[1] >= cand[1]) and np.all(cand[1] > 0.0):
        stepped[1] = cand[1]
    return stepped


def solve_endemic(
    model: ModelInstance,
    tol: float = 1e-12,
    spectral: SpectralResult | None = None,
) -> EndemicEquilibrium | NoEndemic:
    """Locate the unique positive fixed point of Phi by two-sided bracketing.

    The upper sequence is componentwise nonincreasing and the lower
    nondecreasing, both from the rows on the Perron ray (_ray_bracket).
    Both converge to the same point, so iteration stops once their
    sup-norm gap closes to tol and then their midpoint y, which is
    reported, passes the componentwise test |y - Phi(y)| <= tol y that
    jacobian_endemic checks at 100 tol, which resolves components far
    below tol. Stationarity gives z = alpha y and x = x_star(model, y).

    The two sequences are the rows of one (2, n) array Y, so a Phi step
    is psi(np.matvec(M, Y), alpha), which equals phi on each row bit for
    bit. A dense solve costs about n/4 + 15 Phi steps, so an iteration
    after one that shrank the gap by a factor q > 1/2 that would leave Phi
    more than n + 25 steps to go, q^(n + 25) gap > tol, takes a certified
    Newton-Fourier step (_newton_fourier) in place of the Phi step, and
    the gap closes in a few dense solves even as R0 falls to 1.
    A model whose Phi steps always halve the gap takes none and gets the
    plain two-sided Phi bracket to the last bit. iterations counts loop
    iterations of either kind.

    The bracket is certified up to rounding: at the floor its rows can
    cross by an ulp and cycle with the gap, or then the defect, above tol.
    (Y, newton) fixes every later iteration, so stop_rule raises as soon
    as that state recurs, and after PHI_MAX_ITER iterations.

    Returns NoEndemic when r0 - 1 <= R0_TOL. The eigensolve can be skipped
    by passing a precomputed SpectralResult for model.M. Raises
    ModelInputError when tol is not positive and finite, whatever R0 is.
    """
    check_tol(tol)
    if spectral is None:
        r0, spectral = reproduction_number(model)
    else:
        r0 = spectral.lam
    if r0 - 1.0 <= R0_TOL:
        return NoEndemic(r0=r0, near_threshold=r0 - 1.0 >= -R0_TOL)

    M, alpha = model.M, model.alpha
    Y = _ray_bracket(model, spectral.v_right)
    gap = float(np.max(np.abs(Y[0] - Y[1])))
    iterations = 0
    newton = False
    closed = stop_rule(tol, PHI_MAX_ITER, "iterations")
    while True:
        y_star = 0.5 * (Y[0] + Y[1])
        width = gap if gap > tol else float(np.max(np.abs(y_star - phi(y_star, M, alpha)) / y_star))
        if closed(iterations, width, (Y.tobytes(), newton), "equilibrium bracket"):
            break
        MY = np.matvec(M, Y)
        Y = _newton_fourier(M, alpha, Y, MY, tol) if newton else psi(MY, alpha)
        last, gap = gap, float(np.max(np.abs(Y[0] - Y[1])))
        q = gap / last if last > 0.0 else 0.0
        newton = q > 0.5 and q ** (model.n + 25) * gap > tol
        iterations += 1

    return EndemicEquilibrium(y_star=y_star, z_star=alpha * y_star,
                              x_star=x_star(model, y_star),
                              iterations=iterations, residual=width, bracket_gap=gap)
