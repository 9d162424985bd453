"""Endemic equilibria through a monotone scalar map.

Stationary infection profiles are exactly the fixed points of

    Phi(y) = Psi(M y),    Psi(u)_i = u_i / (1 + (1 + alpha_i) u_i),

taken componentwise. Phi is nondecreasing in y and M, nonincreasing in
alpha, and maps everything into the box 0 <= y_i < ybar_i. When the
reproduction number is at most one the origin is the only fixed point;
above one there is exactly one more, strictly positive, and iterating Phi
from the cap ybar walks down to it while iterating from a small positive
multiple of the Perron vector walks up. solve_endemic runs both sequences
and stops when the two-sided bracket closes.

Near R0 = 1 the Phi steps contract at a rate that tends to 1, so once
they fail to halve the bracket, at a rate too slow to close it within
about n more steps, solve_endemic takes Newton-Fourier steps (Ortega &
Rheinboldt 1970, section 13.3) on the convex map F(y) = y - Phi(y)
instead. Each is certified in floating point before it replaces a bracket
end: Phi(u) <= u above, Phi(l) >= l > 0 below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EpsilonStarNotFoundError,
    ModelInputError,
    NoConvergenceError,
    OutOfCapError,
    check_tol,
)
from .model import ModelInstance
from .spectral import SpectralResult, reproduction_number

# models whose computed r0 - 1 is at most this are treated as threshold
# cases and reported as having no endemic equilibrium
R0_TOL = 1e-9

# most applications of Phi that iterate_phi may take, and most iterations,
# Phi or Newton-Fourier, of the bracket loop of solve_endemic
PHI_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class EndemicEquilibrium:
    """Strictly positive stationary profile with solver diagnostics.

    residual is ||y_star - Phi(y_star)||_inf and bracket_gap the final
    sup-norm distance between the upper and lower iterate sequences;
    iterations counts bracket-loop iterations, Phi or Newton-Fourier.
    """

    y_star: np.ndarray
    z_star: np.ndarray
    x_star: np.ndarray
    iterations: int
    residual: float
    bracket_gap: float


@dataclass(frozen=True)
class NoEndemic:
    """Returned when r0 - 1 <= R0_TOL; only the origin is stationary.

    near_threshold flags |r0 - 1| <= R0_TOL, so every NoEndemic with
    r0 > 1 has it: there the fixed-point problem is too ill conditioned
    to resolve a positive equilibrium from the origin.
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
    history is kept. Raises NoConvergenceError when PHI_MAX_ITER
    applications of the map still leave steps above tol, and
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
    for step in range(1, PHI_MAX_ITER + 1):
        nxt = phi(xi, M, alpha)
        gap = float(np.max(np.abs(nxt - xi)))
        xi = nxt
        if gap <= tol:
            return xi, step
    raise NoConvergenceError(
        f"fixed-point iteration still moved more than {tol} after {PHI_MAX_ITER} steps"
    )


def _lower_bracket_start(model: ModelInstance, v_right: np.ndarray) -> np.ndarray:
    """A strictly positive start xi with Phi(xi) >= xi componentwise.

    Scales the positive eigenvector down from min(ybar) / (2 max v) by
    halving until the map expands it, which must happen for R0 > 1 because
    Phi(eps v) = eps R0 v + O(eps^2). Raises EpsilonStarNotFoundError if
    the scale underflows (the supercritical premise was violated).
    """
    v = np.asarray(v_right, dtype=float)
    eps = float(np.min(model.ybar) / (2.0 * np.max(v)))
    while eps >= 1e-300:
        xi = eps * v
        if np.all(phi(xi, model.M, model.alpha) >= xi):
            return xi
        eps *= 0.5
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
    about kappa, and is kept only if it lies in the old bracket and
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
    cand = np.stack([(upper - du) + push, (lower - dl) - push])
    image = phi(cand, M, alpha)
    inside = np.all((lower <= cand) & (cand <= upper), axis=1)
    if inside[0] and np.all(image[0] <= cand[0]):
        stepped[0] = cand[0]
    if inside[1] and np.all(image[1] >= cand[1]) and np.all(cand[1] > 0.0):
        stepped[1] = cand[1]
    return stepped


def solve_endemic(
    model: ModelInstance,
    tol: float = 1e-12,
    spectral: SpectralResult | None = None,
) -> EndemicEquilibrium | NoEndemic:
    """Locate the unique positive fixed point of Phi by two-sided bracketing.

    The upper sequence starts at the cap ybar and is componentwise
    nonincreasing; the lower starts at a small positive multiple of the
    Perron vector and is nondecreasing. Both converge to the same point,
    so iteration stops once their sup-norm gap closes to tol and the
    midpoint is reported. Recovered and susceptible fractions follow from
    stationarity: z = alpha * y, x = 1 - y - z.

    The two sequences are the rows of one (2, n) array Y, so a Phi step
    is psi(np.matvec(M, Y), alpha), which equals phi on each row bit for
    bit. An iteration after one that shrank the gap by less than half, at
    a rate that would leave Phi more than n + 25 steps to go, takes a
    certified Newton-Fourier step (_newton_fourier) in place of the Phi
    step, so the gap closes in a few dense solves even as R0 falls to 1.
    A model whose Phi steps always halve the gap takes none and gets the
    plain two-sided Phi bracket to the last bit. iterations counts loop
    iterations of either kind.

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

    # A dense solve costs about n/4 + 15 Phi steps and Newton-Fourier
    # takes several, so it replaces the Phi step only when Phi, at the
    # rate q of the last iteration, would need more than n + 25 further
    # steps: q^(n + 25) gap > tol.
    M, alpha = model.M, model.alpha
    Y = np.stack([model.ybar, _lower_bracket_start(model, spectral.v_right)])
    gap = float(np.max(np.abs(Y[0] - Y[1])))
    iterations = 0
    newton = False
    while gap > tol:
        if iterations >= PHI_MAX_ITER:
            raise NoConvergenceError(
                f"equilibrium bracket still {gap:.3e} wide after {PHI_MAX_ITER} iterations"
            )
        MY = np.matvec(M, Y)
        Y = _newton_fourier(M, alpha, Y, MY, tol) if newton else psi(MY, alpha)
        last, gap = gap, float(np.max(np.abs(Y[0] - Y[1])))
        q = gap / last
        newton = q > 0.5 and q ** (model.n + 25) * gap > tol
        iterations += 1

    y_star = 0.5 * (Y[0] + Y[1])
    x_star, z_star = reconstruct_full(model, y_star)
    residual = float(np.max(np.abs(y_star - phi(y_star, M, alpha))))
    return EndemicEquilibrium(
        y_star=y_star,
        z_star=z_star,
        x_star=x_star,
        iterations=iterations,
        residual=residual,
        bracket_gap=gap,
    )


def reconstruct_full(model: ModelInstance, y_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary susceptible and recovered fractions for a given y_star.

    At a stationary point z = (gamma/delta) y and x = 1 - y - z. Requires
    y_star within the cap ybar (up to 1e-12 slack), which guarantees
    x >= 0; raises OutOfCapError otherwise.
    """
    y = np.asarray(y_star, dtype=float)
    if np.any(y < -1e-12) or np.any(y > model.ybar + 1e-12):
        raise OutOfCapError("y_star must satisfy 0 <= y_i <= 1/(1 + alpha_i)")
    z = model.alpha * y
    x = 1.0 - y - z
    return x, z
