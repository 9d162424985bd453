"""Validated model data and state-space containers.

A model couples n populations through a nonnegative interaction matrix W,
where W[i, j] is the rate at which infected individuals of population j
expose susceptibles of population i. Population i recovers at rate
gamma[i] > 0 and loses immunity at rate delta[i] > 0. Infection must be
able to travel between any two populations, so the support digraph of W
(an edge i -> j wherever W[i, j] > 0) has to be strongly connected.

Each population splits into susceptible, infected and recovered fractions
(x_i, y_i, z_i) that sum to one; FullState holds all three.
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


@dataclass(frozen=True)
class FullState:
    """Susceptible, infected and recovered fractions for every population."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


def _reached_from_first(support: np.ndarray) -> np.ndarray:
    """Nodes that node 0 reaches in the digraph with an edge i -> j wherever
    support[i, j], found one breadth-first level at a time."""
    seen = np.arange(support.shape[0]) == 0
    frontier = seen
    while frontier.any():
        frontier = support[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def check_irreducible(W: np.ndarray) -> bool:
    """True iff the support digraph of W is strongly connected.

    A digraph is strongly connected exactly when node 0 reaches every node
    both in it and in its reverse, so two breadth-first sweeps decide it.
    A 1x1 matrix is a single trivial component, so this returns True even
    for a zero entry. validate_model applies the stricter single-population
    rule that W[0, 0] > 0 is required, because a lone population with no
    self-exposure has no infection channel at all. An empty matrix has no
    component and gives False.
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
        The support digraph is not strongly connected, or n == 1 with
        W[0, 0] == 0.
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
    if n == 1:
        # self-loops are the only channel a single population has
        if W[0, 0] <= 0.0:
            raise ReducibleError("a single population needs W[0, 0] > 0")
    elif not check_irreducible(W):
        raise ReducibleError("the support digraph of W is not strongly connected")

    with np.errstate(over="ignore"):
        M = W / gamma[:, None]
        alpha = gamma / delta
    ybar = 1.0 / (1.0 + alpha)
    if not (np.isfinite(M).all() and np.isfinite(alpha).all()):
        raise ModelInputError("W / gamma and gamma / delta must be finite")
    for arr in (W, gamma, delta, M, alpha, ybar):
        arr.setflags(write=False)
    return ModelInstance(W=W, gamma=gamma, delta=delta, M=M, alpha=alpha, ybar=ybar, name=name)
