"""Perron roots of irreducible Metzler matrices.

The reproduction number of a model is the spectral radius of its
rate-normalized interaction matrix M, and the infection-free abscissa
is the Perron root s(W - [gamma]). For an irreducible Metzler B the root
s(B) is a simple real eigenvalue with strictly positive left and right
eigenvectors, and for any positive x the Collatz-Wielandt ratios
(Bx)_i / x_i bracket it. perron_bracket sharpens such an x by shifted
inverse iteration; the bracket both certifies the root and stops the
loop, and both roots go through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, check_tol, stop_rule
from .model import ModelInstance
from .model import check_irreducible  # noqa: F401  (perfbench/spans.py wraps this name)

# most shifted solves one perron_bracket call may take
MAX_SOLVES = 50


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair.

    lam is the dominant eigenvalue, v_right and v_left the corresponding
    strictly positive eigenvectors normalized to unit 1-norm, iterations
    the number of shifted solves used, right plus left, and residual the
    final value of ||M v_right - lam v_right||_inf (at most the requested
    tolerance).
    """

    lam: float
    v_right: np.ndarray
    v_left: np.ndarray
    iterations: int
    residual: float


def perron_bracket(
    B: np.ndarray,
    tol: float,
    known: tuple[float, float] = (-np.inf, np.inf),
) -> tuple[np.ndarray, float, float, int]:
    """Perron root s(B) of an irreducible Metzler B, bracketed to tol.

    Starting from x = 1, each step solves (sigma I - B) x' = x with
    sigma = hi + max(0.01 (hi - lo), tol), where [lo, hi] is every
    Collatz-Wielandt bracket so far intersected with known, a bracket the
    caller already holds. sigma lies above s(B), so
    (sigma I - B)^-1 is entrywise positive and every iterate is a valid
    test vector; one that is not strictly positive in floating point, or
    a singular solve, raises NoConvergenceError rather than being used.
    The loop stops once the ratios of the current x lie within tol of
    each other (a 1x1 B at once), and returns that x at unit 1-norm, its
    ratio bracket (lower, upper) and the number of solves. (x, lo, hi)
    fixes every later solve, so at the rounding floor, where the ratios
    cannot close to tol, that state recurs; stop_rule raises as soon as
    it does, and after MAX_SOLVES solves.
    """
    eye = np.eye(B.shape[0])
    x = np.ones(B.shape[0])
    lo, hi = known
    closed = stop_rule(tol, MAX_SOLVES, "solves")
    for solves in itertools.count():
        ratios = (B @ x) / x
        lower, upper = float(ratios.min()), float(ratios.max())
        if closed(solves, upper - lower, x.tobytes() + np.array((lo, hi)).tobytes(),
                  f"Perron bracket [{lower:.17g}, {upper:.17g}]"):
            return x / x.sum(), lower, upper, solves
        lo, hi = max(lo, lower), min(hi, upper)
        try:
            x = np.linalg.solve((hi + max(0.01 * (hi - lo), tol)) * eye - B, x)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"shifted solve failed: {exc}") from exc
        if not np.minimum.reduce(x) > 0.0:
            raise NoConvergenceError("shifted solve lost positivity; the Perron bracket is open")
        x /= x.sum()


def reproduction_number(model: ModelInstance, tol: float = 1e-10) -> tuple[float, SpectralResult]:
    """Reproduction number R0 = rho(M) together with the full eigenpair.

    perron_bracket runs on M for v_right and then on M^T for v_left,
    whose shift starts from the right bracket, so the left side closes in
    one or two solves. Inverse iteration needs no primitive matrix, so a
    periodic support (a two-cycle, a directed ring) converges like any
    other. R0 is reported as the ratio v_left' M v_right / v_left' v_right,
    which the brackets pin to the same accuracy. A ModelInstance comes
    only from validate_model, which has already proved M finite,
    nonnegative and irreducible, so no check is repeated. Raises
    ModelInputError when tol is not positive and finite.
    """
    check_tol(tol)
    M = model.M
    v_right, lower, upper, right = perron_bracket(M, tol)
    v_left, _, _, left = perron_bracket(M.T, tol, known=(lower, upper))
    lam = float(v_left @ (M @ v_right) / (v_left @ v_right))
    residual = float(np.max(np.abs(M @ v_right - lam * v_right)))
    return lam, SpectralResult(lam=lam, v_right=v_right, v_left=v_left,
                               iterations=right + left, residual=residual)
