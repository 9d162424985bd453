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

from .errors import (
    ModelInputError,
    NegativeEntryError,
    NoConvergenceError,
    ReducibleError,
    check_tol,
)
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


def _perron(M: np.ndarray, tol: float) -> SpectralResult:
    check_tol(tol)
    n = M.shape[0]
    if n == 1:
        one = np.ones(1)
        return SpectralResult(lam=float(M[0, 0]), v_right=one, v_left=one.copy(),
                              iterations=0, residual=0.0)
    # One two-sided power loop: row 0 of X sweeps A = M + I for the right
    # vector, row 1 sweeps A^T for the left one, and A's positive diagonal
    # keeps both positive. Each side stops on its own bracket; its row of X
    # is then left as it was, and later sweeps run over the open row alone.
    # Every row sees the operations of a one-vector loop, so the bits equal
    # two serial loops.
    A = M + np.eye(n)
    X = np.full((2, n), 1.0 / n)
    AX = np.empty((2, n))
    ratios = np.empty((2, n))
    sides = [(A, X[0], AX[0]), (A.T, X[1], AX[1])]
    sweeps = [0, 0]
    lo, hi = 0, 2  # the open sides are rows lo:hi
    x, ax, r = X, AX, ratios
    for it in range(1, MAX_SWEEPS + 1):
        for B, x_k, ax_k in sides[lo:hi]:
            np.dot(B, x_k, out=ax_k)
        np.divide(ax, x, out=r)
        gaps = np.maximum.reduce(r, axis=1) - np.minimum.reduce(r, axis=1)
        closed = [gap <= tol for gap in gaps.tolist()]
        if True in closed:
            for k, done in enumerate(closed, start=lo):
                if done:
                    sweeps[k] = it
            if all(closed):
                break
            lo, hi = (lo + 1, hi) if closed[0] else (lo, hi - 1)
            x, ax, r = X[lo:hi], AX[lo:hi], ratios[lo:hi]
        np.divide(ax, np.add.reduce(ax, axis=1, keepdims=True), out=x)
    else:
        raise NoConvergenceError(
            f"power iteration did not close the eigenvalue bracket to {tol} in {MAX_SWEEPS} sweeps"
        )
    v_right = X[0] / X[0].sum()
    v_left = X[1] / X[1].sum()
    lam = float(v_left @ (M @ v_right) / (v_left @ v_right))
    residual = float(np.max(np.abs(M @ v_right - lam * v_right)))
    return SpectralResult(lam=lam, v_right=v_right, v_left=v_left,
                          iterations=max(sweeps), residual=residual)


def dominant_eigen(M: np.ndarray, tol: float = 1e-10) -> SpectralResult:
    """Dominant eigenvalue and positive eigenvectors of an irreducible M >= 0.

    Power iteration runs on M + I. The shift makes the iteration matrix
    primitive even when the support digraph is periodic (a plain power
    sweep on a two-cycle never settles), moves no eigenvector, and shifts
    every eigenvalue by one. Sweeps stop once the bracket
    max_i (Ax)_i/x_i - min_i (Ax)_i/x_i closes to tol; the eigenvalue is
    then reported as the ratio v_left' M v_right / v_left' v_right, which
    the bracket pins to the same accuracy. Before any sweep it raises
    ModelInputError when an entry of M is not finite, NegativeEntryError
    when one is negative, ReducibleError when the support of M is not
    strongly connected, and ModelInputError when tol is not positive and
    finite.
    """
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ModelInputError("M must be finite")
    if np.any(M < 0.0):
        raise NegativeEntryError(f"M has a negative entry, {M.min()}")
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
