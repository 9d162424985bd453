"""Validated model data and state-space containers.

A model couples n populations through a nonnegative interaction matrix W,
where W[i, j] is the rate at which infected individuals of population j
expose susceptibles of population i. Population i recovers at rate
gamma[i] > 0 and loses immunity at rate delta[i] > 0. Infection must be
able to travel from every population to every population, itself
included, so W has to be irreducible (check_irreducible).

Each population splits into susceptible, infected and recovered fractions
(x_i, y_i, z_i) that sum to one; the library takes a state as y and z.
It forms x as (1 - y) - z for trajectory states only: at a stationary
state it takes x* = gamma y* / (W y*) (equilibrium.x_star), which does
not cancel where x* is small.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModelInputError,
    NegativeEntryError,
    NonPositiveRateError,
    ReducibleError,
)


@dataclass(frozen=True)
class ModelInstance:
    """A validated (W, gamma, delta) triple with derived quantities.

    Attributes
    ----------
    W : ndarray, shape (n, n)
        Nonnegative interaction matrix with strongly connected support.
    gamma : ndarray, shape (n,)
        Recovery rates, strictly positive.
    delta : ndarray, shape (n,)
        Immunity-loss rates, strictly positive.
    M : ndarray, shape (n, n)
        Rate-normalized interaction matrix, row i of W divided by gamma[i].
        Its spectral radius is the reproduction number.
    alpha : ndarray, shape (n,)
        gamma / delta, the ratio of recovery to immunity loss.
    ybar : ndarray, shape (n,)
        1 / (1 + alpha), the componentwise cap every endemic infection
        profile must respect.

    All arrays are read-only; instances are safe to share across threads.
    """

    W: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    M: np.ndarray
    alpha: np.ndarray
    ybar: np.ndarray
    name: str | None = None

    @property
    def n(self) -> int:
        return self.W.shape[0]


def _reached_from_first(support: np.ndarray) -> np.ndarray:
    """Nodes that node 0 reaches by a path of at least one edge in the
    digraph with an edge i -> j wherever support[i, j], found one
    breadth-first level at a time."""
    seen = frontier = support[0]
    while frontier.any():
        frontier = support[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def check_irreducible(W: np.ndarray) -> bool:
    """True iff W is irreducible: node 0 reaches every node, itself
    included, by a path of at least one edge both in the support digraph
    of W and in its reverse. So [[0.0]] and the empty matrix give False.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {W.shape}")
    support = W > 0.0
    return W.shape[0] > 0 and bool(
        _reached_from_first(support).all() and _reached_from_first(support.T).all()
    )


def validate_model(
    W: np.ndarray,
    gamma: np.ndarray,
    delta: np.ndarray,
    name: str | None = None,
) -> ModelInstance:
    """Check (W, gamma, delta) and build an immutable ModelInstance.

    Raises
    ------
    DimensionMismatchError
        W is not square n x n or the rate vectors are not length n.
    NegativeEntryError
        W has a negative entry.
    NonPositiveRateError
        Some gamma[i] <= 0 or delta[i] <= 0.
    ReducibleError
        W is not irreducible (check_irreducible).
    ModelInputError
        Some entry is not finite, or M = W / gamma or alpha = gamma / delta
        overflows. A finite alpha keeps ybar = 1 / (1 + alpha) positive.
    """
    W = np.array(W, dtype=float)
    gamma = np.array(gamma, dtype=float)
    delta = np.array(delta, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise DimensionMismatchError(f"W must be square, got shape {W.shape}")
    n = W.shape[0]
    if gamma.shape != (n,) or delta.shape != (n,):
        raise DimensionMismatchError(
            f"rate vectors must have shape ({n},), got {gamma.shape} and {delta.shape}"
        )
    if not (np.isfinite(W).all() and np.isfinite(gamma).all() and np.isfinite(delta).all()):
        raise ModelInputError("model data must be finite")
    if np.any(W < 0.0):
        i, j = np.argwhere(W < 0.0)[0]
        raise NegativeEntryError(f"W[{i}, {j}] = {W[i, j]} is negative")
    if np.any(gamma <= 0.0):
        raise NonPositiveRateError(f"gamma[{int(np.argmin(gamma))}] must be positive")
    if np.any(delta <= 0.0):
        raise NonPositiveRateError(f"delta[{int(np.argmin(delta))}] must be positive")
    if not check_irreducible(W):
        raise ReducibleError("W is not irreducible")

    with np.errstate(over="ignore"):
        M = W / gamma[:, None]
        alpha = gamma / delta
    ybar = 1.0 / (1.0 + alpha)
    if not (np.isfinite(M).all() and np.isfinite(alpha).all()):
        raise ModelInputError("W / gamma and gamma / delta must be finite")
    for arr in (W, gamma, delta, M, alpha, ybar):
        arr.setflags(write=False)
    return ModelInstance(W=W, gamma=gamma, delta=delta, M=M, alpha=alpha, ybar=ybar, name=name)
