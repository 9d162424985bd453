"""Shared model builders and the model-file writer for the test suite."""

from __future__ import annotations

import json

import numpy as np

from netsirs import ModelInstance, SpectralResult, reproduction_number, validate_model

# Five-node reference network used throughout the suite ("ref5"): strongly
# connected with heterogeneous recovery and heavy asymmetry, unit curing
# rates, so the next-generation matrix coincides with W.
REF5_W = [
    [3.0, 6.0, 4.0, 1.0, 8.0],
    [0.1, 0.4, 1.0, 0.0, 0.5],
    [2.0, 1.4, 2.8, 2.0, 1.4],
    [0.6, 0.0, 0.0, 1.2, 0.4],
    [2.8571, 0.0, 0.0, 0.7143, 1.2857],
]
REF5_GAMMA = [1.0, 1.0, 1.0, 1.0, 1.0]
REF5_DELTA = [0.3, 0.4, 0.2, 0.1, 0.6]

REF5_R0 = 8.743346228  # locked by the characteristic-polynomial oracle

# (W, gamma, delta) with finite entries whose derived arrays are not:
# M = W / gamma overflows in the first two, alpha = gamma / delta in the
# third, where ybar = 1 / (1 + alpha) would be 0
OVERFLOW_MODELS = (
    ([[0.0, 1e308], [1e308, 0.0]], [0.5, 0.5], [1.0, 1.0]),
    ([[0.0, 1.0], [1.0, 0.0]], [1e-320, 1.0], [1.0, 1.0]),
    ([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], [1e-320, 1.0]),
)


def perron_pair(M) -> SpectralResult:
    """The Perron pair of a bare matrix M, as the model with W = M and unit
    rates: there M = W / 1.0 is M bit for bit, and validate_model judges
    the matrix."""
    ones = np.ones(len(M))
    return reproduction_number(validate_model(M, ones, ones))[1]


def save_model(model: ModelInstance, path) -> None:
    """Write model as a model JSON file; json writes each float in its
    shortest round-trip repr, so load_model reads back the same arrays."""
    data = {"n": model.n, "W": model.W.tolist(), "gamma": model.gamma.tolist(),
            "delta": model.delta.tolist()}
    if model.name is not None:
        data["name"] = model.name
    with open(path, "w") as fh:
        json.dump(data, fh)


def ref5() -> ModelInstance:
    return validate_model(REF5_W, REF5_GAMMA, REF5_DELTA, name="ref5")


def out_regular(
    n: int = 3,
    row_sum: float = 2.0,
    gamma: float = 1.0,
    delta: float = 1.0,
) -> ModelInstance:
    """Complete graph with identical row sums and homogeneous rates.

    Every node sees the same pressure, so the endemic equilibrium is a
    multiple of the all-ones vector with the closed form
    y* = (delta / (gamma + delta)) (1 - gamma / row_sum).
    """
    W = np.full((n, n), row_sum / n)
    return validate_model(W, [gamma] * n, [delta] * n, name="out_regular")


def out_regular_y_star(
    row_sum: float = 2.0, gamma: float = 1.0, delta: float = 1.0
) -> float:
    return (delta / (gamma + delta)) * (1.0 - gamma / row_sum)


def random_supercritical(
    rng: np.random.Generator, n: int, r0_target: float
) -> ModelInstance:
    """Random strongly connected model rescaled to a prescribed R0.

    A directed cycle guarantees irreducibility; extra edges, curing and
    loss-of-immunity rates are drawn independently, then W is scaled so
    the spectral radius of [gamma]^-1 W hits r0_target.
    """
    W = np.zeros((n, n))
    for i in range(n):
        W[i, (i + 1) % n] = rng.uniform(0.5, 1.5)
    extra = rng.random((n, n)) < 0.5
    W[extra] += rng.uniform(0.2, 1.0, size=(n, n))[extra]
    gamma = rng.uniform(0.5, 2.0, size=n)
    delta = rng.uniform(0.2, 1.5, size=n)
    rho = np.abs(np.linalg.eigvals(W / gamma[:, None])).max()
    W *= r0_target / rho
    return validate_model(W, gamma, delta)


def weighted_ring(n: int) -> tuple[ModelInstance, np.ndarray]:
    """Directed ring i -> i + 1 (mod n) drawn from default_rng(0): cycle
    weights uniform in [0.5, 1.5], then gamma uniform in [0.2, 0.6], and
    delta = 0.3. Returns the model and its cycle weights."""
    rng = np.random.default_rng(0)
    w = rng.uniform(0.5, 1.5, size=n)
    gamma = rng.uniform(0.2, 0.6, size=n)
    W = np.zeros((n, n))
    W[np.arange(n), (np.arange(n) + 1) % n] = w
    return validate_model(W, gamma, np.full(n, 0.3), name="ring"), w


def rank_one_model(
    rng: np.random.Generator, n: int, r0_target: float
) -> tuple[ModelInstance, np.ndarray]:
    """Positive rank-one contact matrix W = a b^T with unit curing rates.

    Returns the model together with the factor b; a is scaled so that the
    spectral radius of W, which is a'b, equals r0_target.
    """
    a = rng.uniform(0.5, 1.5, size=n)
    b = rng.uniform(0.5, 1.5, size=n)
    a = a * (r0_target / float(a @ b))
    delta = rng.uniform(0.3, 0.9, size=n)
    return validate_model(np.outer(a, b), np.ones(n), delta), b


def log_uniform_family(d: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The 40 draws at d of the log-uniform family: default_rng(1) makes 40
    draws for each d in 2, 4, 6 and 10, in that order, and each draw is
    n = rng.integers(2, 7), then W, gamma and delta, in that order, as
    10 ** rng.uniform(-d, d, shape). Every W is positive, so every draw
    validates. Returns the (W, gamma, delta) of each draw at d."""
    rng = np.random.default_rng(1)
    for each in (2, 4, 6, 10):
        draws = []
        for _ in range(40):
            n = int(rng.integers(2, 7))
            draws.append(tuple(10.0 ** rng.uniform(-each, each, shape)
                               for shape in ((n, n), (n,), (n,))))
        if each == d:
            return draws
    raise ValueError(f"the family has no draws at d = {d}")


def dfe_side(res) -> int:
    """The side of 0 a DfeAbscissa's certified bracket lies on: 1 right of
    it (lower > 0), -1 left of it (upper < 0), 0 when it touches or
    straddles 0."""
    return int(res.lower > 0.0) - int(res.upper < 0.0)
