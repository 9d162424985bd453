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

from .errors import NoConvergenceError, check_positive, stop_rule
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
    final value of ||M v_right - lam v_right||_inf (about tol lam at most).
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
    """Perron root s(B) of an irreducible Metzler B, bracketed to tol
    relative to s = max_i (|B| x)_i / x_i, the scale its ratios round on:
    upper for a nonnegative B, about the rate scale for W - [gamma].

    Starting from x = 1, each step solves (sigma I - B) x' = x in the basis
    of the iterate, (sigma I - D^-1 B D) e = 1 with D = [x], x' = x e, so a
    Perron vector spanning decades is resolved component by component
    (Noda, Numer. Math. 17, 1971). The shift is sigma = hi + max(0.01
    (hi - lo), max(tol, (n + 1) eps) s), where [lo, hi] is every
    Collatz-Wielandt bracket so far intersected with known, a bracket the
    caller already holds; (n + 1) eps s bounds the rounding of the ratios.
    sigma lies above s(B), so (sigma I - B)^-1 is entrywise positive and
    every iterate is a valid test vector; one that is not strictly
    positive in floating point, or a singular solve, raises
    NoConvergenceError rather than being used. The loop stops once the
    ratios of the current x lie within tol s of each other (a 1x1 B at
    once), and returns that x at unit 1-norm, its ratio bracket (lower,
    upper) and the number of solves. (x, lo, hi) fixes every later solve,
    so at the rounding floor that state recurs; stop_rule raises as soon
    as it does, naming the width over s, and after MAX_SOLVES solves.
    """
    n = B.shape[0]
    x = ones = np.ones(n)
    # (|B| x)_i / x_i exceeds (B x)_i / x_i by |B_ii| - B_ii, as B is Metzler
    spread = np.abs(np.diagonal(B)) - np.diagonal(B)
    lo, hi = known
    closed = stop_rule(tol, MAX_SOLVES, "solves")
    # B x can overflow where B spans the float range; inf or NaN ratios leave
    # the bracket open, and stop_rule or the positivity check raises
    with np.errstate(over="ignore"):
        for solves in itertools.count():
            ratios = (B @ x) / x
            lower, upper = float(ratios.min()), float(ratios.max())
            s = float((ratios + spread).max())
            if closed(solves, (upper - lower) / s if upper > lower else 0.0,
                      x.tobytes() + np.array((lo, hi)).tobytes(),
                      f"Perron bracket [{lower:.17g}, {upper:.17g}]"):
                return x / x.sum(), lower, upper, solves
            lo, hi = max(lo, lower), min(hi, upper)
            sigma = hi + max(0.01 * (hi - lo), max(tol, (n + 1) * np.finfo(float).eps) * s)
            shifted = B * -x  # sigma I - D^-1 B D, formed in one array
            shifted /= x[:, None]
            shifted.flat[:: n + 1] += sigma
            try:
                x = x * np.linalg.solve(shifted, ones)
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
    which the brackets pin to tol relative to R0. A ModelInstance comes
    only from validate_model, which has already proved M finite,
    nonnegative and irreducible, so no check is repeated. Raises
    ModelInputError when tol is not positive and finite.
    """
    check_positive(tol, "tol")
    M = model.M
    v_right, lower, upper, right = perron_bracket(M, tol)
    v_left, _, _, left = perron_bracket(M.T, tol, known=(lower, upper))
    image = M @ v_right
    lam = float(v_left @ image / (v_left @ v_right))
    residual = float(np.max(np.abs(image - lam * v_right)))
    return lam, SpectralResult(lam=lam, v_right=v_right, v_left=v_left,
                               iterations=right + left, residual=residual)
