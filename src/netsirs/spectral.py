"""Dominant eigenpair of a nonnegative irreducible matrix.

The reproduction number of a model is the spectral radius of its
rate-normalized interaction matrix M. For irreducible nonnegative M the
radius is a simple eigenvalue with strictly positive left and right
eigenvectors, and for any positive x the ratios (Mx)_i / x_i bracket it.
That bracket both certifies the result and stops the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NonPositiveVectorError, ReducibleError, check_tol
from .model import ModelInstance, check_irreducible

# most power sweeps one side of the Perron pair may take
MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class SpectralResult:
    """Dominant eigenpair.

    lam is the dominant eigenvalue, v_right and v_left the corresponding
    strictly positive eigenvectors normalized to unit 1-norm, iterations
    the number of power sweeps used, and residual the final value of
    ||M v_right - lam v_right||_inf (at most the requested tolerance).
    """

    lam: float
    v_right: np.ndarray
    v_left: np.ndarray
    iterations: int
    residual: float


def collatz_wielandt_bounds(M: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Bracket the spectral radius: min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i.

    Valid for any strictly positive x; raises NonPositiveVectorError otherwise.
    """
    M = np.asarray(M, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise NonPositiveVectorError("the test vector must be strictly positive")
    ratios = (M @ x) / x
    return float(ratios.min()), float(ratios.max())


def _power_sweeps(A: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    # A has positive diagonal, so positivity of the iterate is preserved
    n = A.shape[0]
    x = np.full(n, 1.0 / n)
    for it in range(1, MAX_SWEEPS + 1):
        w = A @ x
        ratios = w / x
        if float(ratios.max() - ratios.min()) <= tol:
            return x, it
        x = w / w.sum()
    raise NoConvergenceError(
        f"power iteration did not close the eigenvalue bracket to {tol} in {MAX_SWEEPS} sweeps"
    )


def _perron(M: np.ndarray, tol: float) -> SpectralResult:
    check_tol(tol)
    n = M.shape[0]
    if n == 1:
        one = np.ones(1)
        return SpectralResult(lam=float(M[0, 0]), v_right=one, v_left=one.copy(),
                              iterations=0, residual=0.0)
    A = M + np.eye(n)
    v_right, it_r = _power_sweeps(A, tol)
    v_left, it_l = _power_sweeps(A.T, tol)
    v_right = v_right / v_right.sum()
    v_left = v_left / v_left.sum()
    lam = float(v_left @ (M @ v_right) / (v_left @ v_right))
    residual = float(np.max(np.abs(M @ v_right - lam * v_right)))
    return SpectralResult(lam=lam, v_right=v_right, v_left=v_left,
                          iterations=max(it_r, it_l), residual=residual)


def dominant_eigen(M: np.ndarray, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenvalue and positive eigenvectors of an irreducible M >= 0.

    Power iteration runs on M + I. The shift makes the iteration matrix
    primitive even when the support digraph is periodic (a plain power
    sweep on a two-cycle never settles), moves no eigenvector, and shifts
    every eigenvalue by one. Sweeps stop once the bracket
    max_i (Ax)_i/x_i - min_i (Ax)_i/x_i closes to tol; the eigenvalue is
    then reported as the ratio v_left' M v_right / v_left' v_right, which
    the bracket pins to the same accuracy. Raises ReducibleError when
    the support of M is not strongly connected, and ModelInputError when
    tol is not positive and finite.
    """
    M = np.asarray(M, dtype=float)
    if not check_irreducible(M):
        raise ReducibleError("dominant eigenpair needs an irreducible matrix")
    return _perron(M, tol)


def reproduction_number(model: ModelInstance, tol: float = 1e-10) -> tuple[float, SpectralResult]:
    """Reproduction number R0 = rho(M) together with the full eigenpair.

    A ModelInstance comes only from validate_model, which has already
    proved the support strongly connected, so the check is not repeated.
    Raises ModelInputError when tol is not positive and finite.
    """
    res = _perron(model.M, tol)
    return res.lam, res
