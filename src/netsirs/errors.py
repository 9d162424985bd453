"""Exception types shared across the package.

Two families matter to callers. Bad input data (malformed matrices,
non-positive rates, states off the simplex) derives from ModelInputError;
failures of a numerical procedure (iteration caps, integrator blow-ups,
eigensolver breakdown) derive from NumericalError. The command line maps
the first family to exit code 1 and the second to exit code 2.
"""

import math
import numbers


class NetsirsError(Exception):
    """Base class for every error raised by this package."""


class ModelInputError(NetsirsError, ValueError):
    """Invalid input data or arguments. Also a ValueError, the type Python
    gives a bad argument value."""


class NumericalError(NetsirsError):
    """A numerical procedure failed to deliver a trustworthy result."""


def check_positive(value: float, name: str) -> None:
    """Raise ModelInputError unless value is positive and finite; a NaN tol
    or dt would silently pass or never pass every test it meets."""
    if not 0.0 < value < math.inf:
        raise ModelInputError(f"{name} must be positive and finite, got {value}")


def check_count(value: int, name: str, least: int = 1) -> None:
    """Raise ModelInputError unless value is an integer, not a bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ModelInputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ModelInputError(f"{name} must be at least {least}, got {value}")


# --- input side ---------------------------------------------------------


class DimensionMismatchError(ModelInputError):
    """Matrix and vector shapes are inconsistent."""


class NegativeEntryError(ModelInputError):
    """The interaction matrix must be entrywise nonnegative."""


class NonPositiveRateError(ModelInputError):
    """Recovery and immunity-loss rates must be strictly positive."""


class ReducibleError(ModelInputError):
    """The interaction matrix W is not irreducible."""


class InvalidInitialError(ModelInputError):
    """An initial condition lies outside the admissible state space."""


class NonPositiveEquilibriumError(ModelInputError):
    """An endemic profile must be strictly positive."""


class NotEquilibriumError(ModelInputError):
    """The supplied point does not satisfy the stationarity residual."""


class SingularShiftError(ModelInputError):
    """A diagonal shift delta_i + lambda vanished."""


class InvalidAtBoundaryError(ModelInputError):
    """A Lyapunov term is undefined on the boundary (b'y = 0)."""


# --- numerical side -----------------------------------------------------


class NoConvergenceError(NumericalError):
    """An iteration hit its cap before reaching the requested tolerance."""


class EpsilonStarNotFoundError(NumericalError):
    """A starting row on the Perron ray failed its sub- or super-solution check."""


class SimplexViolationError(NumericalError):
    """An integrated state drifted off the simplex beyond tolerance."""


class EigenFailureError(NumericalError):
    """The dense eigensolver did not converge."""


def stop_rule(tol: float, cap: int, unit: str):
    """The stop test of one deterministic loop: a fresh predicate
    closed(count, width, state, name), called once per iteration before
    its step with count = 0, 1, 2, ... It is True once width <= tol.
    Otherwise it raises NoConvergenceError, naming the loop, the width,
    tol and the count in unit, at count == cap, or at once when state
    equals an earlier one: the state fixes every later iteration, so it
    recurs forever and the loop can never close.

    Brent's cycle check (BIT 20, 1980): each state is compared with the
    one kept at the last power-of-two count, which finds a cycle of any
    period p entered at count mu by count 2 max(mu, p) + p and keeps one
    state."""
    mark = None

    def closed(count: int, width: float, state, name: str) -> bool:
        nonlocal mark
        if width <= tol:
            return True
        if count == cap:
            raise NoConvergenceError(f"{name} did not close to {tol:.3g} in {cap} {unit}")
        if state == mark:
            raise NoConvergenceError(
                f"{name} stalled {width:.3e} wide, above tol = {tol:.3e}, after {count} {unit}: "
                "its state repeats at the rounding floor"
            )
        if count & (count - 1) == 0:
            mark = state
        return False

    return closed
