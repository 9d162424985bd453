"""Stability diagnostics: Jacobians, Lyapunov functions, disk certificates.

The infection-free state needs no eigensolver. Its Jacobian is block
lower-triangular, so its spectrum is spec(W - [gamma]) joined with
{-delta_i}. W - [gamma] is Metzler and irreducible: its abscissa is a
simple real Perron root with a positive eigenvector, of the sign of
R0 - 1. dfe_abscissa brackets that root from both sides with the
Collatz-Wielandt ratios of spectral.perron_bracket, the loop that also
gives R0, so the abscissa is certified on both sides, with no
eigensolve. The DFE verdict is R0's threshold state (solve_endemic).

Two complementary routes certify local stability of the endemic
equilibrium. The direct route computes the spectral abscissa of the
reduced 2n x 2n Jacobian with a dense eigensolver. The structural route
eliminates the recovered block through the Schur complement S(lam) and
checks, sample by sample, that every Gershgorin disk of H(lam) =
S(lam) [y_star] stays strictly inside the open left half-plane for
Re(lam) > -eta, where eta = min_i min((W y_star)_i, delta_i); at
x* = gamma y* / (W y*) each disk margin has a closed form. The two
routes fail independently, so agreement is strong evidence the profile
is a sink with decay rate at least eta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import EndemicEquilibrium, phi, x_star
from .errors import (
    EigenFailureError,
    InvalidAtBoundaryError,
    ModelInputError,
    NonPositiveEquilibriumError,
    NotEquilibriumError,
    SingularShiftError,
    check_positive,
)
from .model import ModelInstance
from .spectral import SpectralResult, perron_bracket

STABLE = "Stable"
UNSTABLE = "Unstable"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class GershgorinSample:
    """Disk check for one shift lam: min_margin = min_k (-Re H_kk - R_k),
    the distance from the rightmost disk edge to the imaginary axis, and
    all_disks_left means it is strictly positive."""

    lam: complex
    all_disks_left: bool
    min_margin: float


@dataclass(frozen=True)
class StabilityCertificate:
    """Joint verdict of the eigensolver and the disk certificate. reason
    names each route that failed, None when the verdict is Stable."""

    eta: float
    spectral_abscissa: float
    gershgorin_samples: list[GershgorinSample]
    verdict: str
    reason: str | None


def jacobian_dfe(model: ModelInstance) -> np.ndarray:
    """Reduced Jacobian [[W - [gamma], 0], [[gamma], -[delta]]] at the
    infection-free state, jacobian_endemic at y* = 0. Kept for tests,
    oracles and the stability.jacobian span of perfbench/spans.py;
    dfe_abscissa gives its abscissa without forming it."""
    return jacobian_endemic(model, np.zeros(model.n))


@dataclass(frozen=True)
class DfeAbscissa:
    """Certified spectral abscissa of the infection-free Jacobian.

    lower <= abscissa <= upper holds for the exact abscissa, up to the
    rounding of the ratios that give the bounds; iterations counts the
    shifted solves of perron_bracket that closed the bracket.
    """

    abscissa: float
    lower: float
    upper: float
    iterations: int


# Width, relative to the scale of the ratios, at which the DFE bracket counts as closed
DFE_TOL = 2e-14


def dfe_abscissa(model: ModelInstance) -> DfeAbscissa:
    """Abscissa max(s(B), -min delta) of the infection-free Jacobian,
    B = W - [gamma], without an eigensolver.

    perron_bracket closes a Collatz-Wielandt bracket on s(B) to DFE_TOL
    times the scale its ratios round on, about the rate scale. The
    midpoint and both bounds are raised to -min delta where they lie
    below it. Raises NoConvergenceError when the bracket does not close
    (spectral.MAX_SOLVES solves).
    """
    B = model.W - np.diag(model.gamma)
    floor = -float(model.delta.min())
    _, lo, hi, solves = perron_bracket(B, DFE_TOL)
    return DfeAbscissa(max(0.5 * (lo + hi), floor), max(lo, floor), max(hi, floor), solves)


def jacobian_endemic(
    model: ModelInstance,
    y_star: np.ndarray,
    *,
    tol: float = 1e-12,
) -> np.ndarray:
    """Reduced Jacobian [[[x*] W - [W y*] - [gamma], -[W y*]], [[gamma],
    -[delta]]] at the stationary point of profile y_star, where z* = alpha y*
    and x* = x_star(model, y_star), which is 1 at the origin (jacobian_dfe).

    Raises NotEquilibriumError unless |y - Phi(y)| <= 100 tol y
    componentwise, with tol the tolerance the point was solved to, so a
    NaN profile fails and the origin passes, and ModelInputError when tol
    is not positive and finite.
    """
    check_positive(tol, "tol")
    y = np.asarray(y_star, dtype=float)
    bound = 100.0 * tol
    defect = np.abs(y - phi(y, model.M, model.alpha))
    if not np.all(defect <= bound * y):
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.max(defect / y)
        raise NotEquilibriumError(f"fixed-point defect {worst:.3e} exceeds {bound:.3e}")
    n = model.n
    x = x_star(model, y)
    wy = model.W @ y
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = x[:, None] * model.W - np.diag(wy) - np.diag(model.gamma)
    J[:n, n:] = -np.diag(wy)
    J[n:, :n] = np.diag(model.gamma)
    J[n:, n:] = -np.diag(model.delta)
    return J


def eta_bound(model: ModelInstance, y_star: np.ndarray) -> float:
    """Decay-rate bound eta = min_i min((W y_star)_i, delta_i).

    Requires a strictly positive profile; irreducibility then makes every
    (W y_star)_i positive, so eta > 0.
    """
    y = np.asarray(y_star, dtype=float)
    if np.any(y <= 0.0):
        raise NonPositiveEquilibriumError("eta is defined for strictly positive profiles")
    wy = model.W @ y
    return float(min(wy.min(), model.delta.min()))


# random shifts default_lambda_samples draws beside its fixed ones
LAMBDA_RANDOM_SAMPLES = 20


def default_lambda_samples(eta: float) -> list[complex]:
    """Shift samples covering the half-plane Re(lam) > -eta.

    The fixed part probes the boundary (-eta + inset), the origin, and
    magnitudes 0.01 through 100 along the real and imaginary axes; the
    random part draws uniformly from [-eta + inset, 10] x [-10i, 10i]
    with default_rng(0), so the samples depend on eta alone. The inset
    1e-6 max(1, eta) grows with eta, so in a short time unit, where eta =
    min delta can be large, the boundary shift stays clear of the poles
    -delta_i by more than gershgorin_certificate's relative pole test.
    """
    edge = -eta + 1e-6 * max(1.0, eta)
    samples: list[complex] = [complex(edge), 0j]
    for k in range(-2, 3):
        mag = 10.0 ** k
        samples += [complex(0.0, mag), complex(0.0, -mag), complex(mag)]
    rng = np.random.default_rng(0)
    re = rng.uniform(edge, 10.0, LAMBDA_RANDOM_SAMPLES)
    im = rng.uniform(-10.0, 10.0, LAMBDA_RANDOM_SAMPLES)
    samples += [complex(a, b) for a, b in zip(re, im)]
    return samples


def gershgorin_certificate(
    model: ModelInstance,
    y_star: np.ndarray,
    lambda_samples: list[complex],
) -> list[GershgorinSample]:
    """Disk check of H(lam) = S(lam) [y_star] at each sample, where

        S(lam) = [x*] W - [W y*] - [gamma] - lam I - [gamma] ([delta] + lam I)^-1 [W y*]

    is the Schur complement of the recovered block in the shifted
    Jacobian, whose zeros in det are its eigenvalues off {-delta_i}.
    Off-diagonal entries H_kj = x*_k W_kj y*_j are real and nonnegative,
    so the row radius is their plain sum R_k. The certificate at lam
    verifies Re(H_kk) < -R_k for every k, which keeps each disk, hence
    the spectrum of H(lam) and the zero set of det S(lam), strictly in
    the open left half-plane. Samples must satisfy Re(lam) > -eta.

    At x* = x_star(model, y*), x*_k (W y*)_k = gamma_k y*_k, so with
    m_k = (W y*)_k y*_k the k-th margin -Re(H_kk) - R_k is exactly

        margin_k(lam) = m_k + Re(lam) y*_k + gamma_k m_k Re(1/(delta_k + lam)),

    computed so, in O(n) a sample, with y*_k ((W y*)_k + Re lam) for its
    first two terms. The last term is nonnegative for Re(lam) > -delta_k,
    hence on the whole sample half-plane, so every min_margin is at least

        F(lam) = min_k y*_k ((W y*)_k + min(Re lam, 0)),

    which equals m* = min_k m_k on Re(lam) >= 0 and stays positive, at
    least (Re(lam) + eta) min(y*), for Re(lam) in (-eta, 0). Left of the
    axis m* itself is no bound: the last term vanishes as |Im lam| grows.
    Nothing cancels in floats either: each margin sums two nonnegative
    roundings, so a sample fails only where its margin underflows.
    """
    y = np.asarray(y_star, dtype=float)
    eta = eta_bound(model, y)
    lams = np.asarray(lambda_samples, dtype=complex).reshape(-1)
    # the first offending sample raises: a pole before the first sample
    # outside the half-plane is a SingularShiftError, else ModelInputError.
    # A pole is a lam within 1e-13 delta_i of -delta_i, a relative test, so
    # lam = 0 is never one, however small delta_i is.
    outside = np.flatnonzero(lams.real <= -eta)
    shifts = model.delta + lams[:outside[0] if outside.size else None, None]
    if np.any(np.abs(shifts) <= 1e-13 * model.delta):
        raise SingularShiftError("lam coincides with -delta_i")
    if outside.size:
        lam = complex(lams[outside[0]])
        raise ModelInputError(f"sample {lam} lies outside the half-plane Re > {-eta:.6g}")
    wy = model.W @ y
    # margin_k(lam), one row per sample
    min_margins = (y * (wy + lams.real[:, None])
                   + model.gamma * (wy * y) * (1.0 / shifts).real).min(axis=1)
    return [GershgorinSample(lam=complex(lam), all_disks_left=bool(m > 0.0), min_margin=float(m))
            for lam, m in zip(lams.tolist(), min_margins.tolist())]


def spectral_abscissa(A: np.ndarray) -> float:
    """Largest real part over the spectrum, by dense eigensolve."""
    try:
        eigenvalues = np.linalg.eigvals(np.asarray(A))
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigensolver failed: {exc}") from exc
    return float(eigenvalues.real.max())


def endemic_certificate(
    model: ModelInstance,
    y_star: np.ndarray,
    *,
    tol: float = 1e-12,
) -> StabilityCertificate:
    """Assemble the two-route certificate at the endemic profile y_star.

    The disk check runs on default_lambda_samples(eta), the same shifts
    on every call. The verdict is Stable when the abscissa is negative
    and every disk sample passes, and Inconclusive otherwise, never
    Unstable: at an exact equilibrium every disk margin is at least
    F(lam) > 0 on Re(lam) > -eta (see gershgorin_certificate), so a
    route that disagrees has failed, and proves nothing about the
    equilibrium. The reason of an Inconclusive names each failed route:
    "dense abscissa >= 0", or the first sample whose disk margin is not
    positive. Raises ModelInputError when tol is not positive and finite.
    """
    y = np.asarray(y_star, dtype=float)
    eta = eta_bound(model, y)
    abscissa = spectral_abscissa(jacobian_endemic(model, y, tol=tol))
    samples = gershgorin_certificate(model, y, default_lambda_samples(eta))
    failed = [] if abscissa < 0.0 else ["dense abscissa >= 0"]
    failed += [f"disk margin {s.min_margin:.3e} not positive at lambda = [{s.lam.real!r}, "
               f"{s.lam.imag!r}]" for s in samples if not s.all_disks_left][:1]
    reason = "; ".join(failed) or None
    return StabilityCertificate(eta=eta, spectral_abscissa=abscissa,
                                gershgorin_samples=samples,
                                verdict=INCONCLUSIVE if reason else STABLE, reason=reason)


def lyapunov_value(
    model: ModelInstance,
    y: np.ndarray,
    spectral: SpectralResult,
) -> float | np.ndarray:
    """Threshold Lyapunov value V = v_left' [gamma]^-1 y of one state y,
    or of each row of an (m, n) block, such as Trajectory.y.

    v_left is the positive left eigenvector of M at unit 1-norm, taken
    from spectral, the SpectralResult of model.M.
    """
    return np.vecdot(np.asarray(y, dtype=float), spectral.v_left / model.gamma)


def lyapunov_derivative(
    model: ModelInstance,
    y: np.ndarray,
    z: np.ndarray,
    spectral: SpectralResult,
) -> float | np.ndarray:
    """Along-trajectory derivative of the threshold Lyapunov value,

        Vdot = (R0 - 1) v_left' y - v_left' [gamma]^-1 [y + z] W y,

    at one state (y, z) or at each row of (m, n) blocks, such as
    Trajectory.y and Trajectory.z; nonpositive whenever R0 <= 1. R0 and
    v_left come from spectral, the SpectralResult of model.M.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    drive = (spectral.lam - 1.0) * np.vecdot(y, spectral.v_left)
    damping = np.vecdot((y + z) * np.matvec(model.W, y), spectral.v_left / model.gamma)
    return drive - damping


def rank_one_lyapunov(
    model: ModelInstance,
    b: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
    equilibrium: EndemicEquilibrium,
) -> float | np.ndarray:
    """Global Lyapunov value for rank-one coupling W = a b' at one state
    (y, z) or at each row of (m, n) blocks, with x = (1 - y) - z:

        V1 = 1/2 sum_i (b_i / x*_i) (x_i - x*_i)^2
        V2 = 1/2 sum_i (delta_i b_i / (gamma_i x*_i)) (z_i - z*_i)^2
        V3 = h - h* + h* log(h*/h),  h = b'y,

    quadratic wells in x and z and a logarithmic one in the infection
    pressure h, with gamma and delta from model and (x*, y*, z*) from
    equilibrium. V is zero exactly at the equilibrium and, for uniform
    gamma, decreasing along supercritical trajectories. Raises
    InvalidAtBoundaryError when some state has h <= 0.
    """
    y = np.asarray(y, dtype=float)
    xs, zs = equilibrium.x_star, equilibrium.z_star
    h = np.vecdot(y, b)
    h_star = float(b @ equilibrium.y_star)
    if np.any(h <= 0.0):
        raise InvalidAtBoundaryError("aggregate infection pressure b'y must be positive")
    v1 = 0.5 * np.vecdot(((1.0 - y) - z - xs) ** 2, b / xs)
    v2 = 0.5 * np.vecdot((z - zs) ** 2, (model.delta * b) / (model.gamma * xs))
    v3 = h - h_star + h_star * np.log(h_star / h)
    return v1 + v2 + v3
