"""Exception types shared across the package.

Two families matter to callers. Bad input data (malformed matrices,
non-positive rates, states off the simplex) derives from ModelInputError;
failures of a numerical procedure (iteration caps, integrator blow-ups,
eigensolver breakdown) derive from NumericalError. The command line maps
the first family to exit code 1 and the second to exit code 2.
"""

import math


class NetsirsError(Exception):
    """Base class for every error raised by this package."""


class ModelInputError(NetsirsError, ValueError):
    """Invalid input data or arguments. Also a ValueError, the type Python
    gives a bad argument value."""


class NumericalError(NetsirsError):
    """A numerical procedure failed to deliver a trustworthy result."""


def check_tol(tol: float) -> None:
    """Raise ModelInputError unless the solver tolerance tol is positive
    and finite; a NaN tolerance would silently pass or never pass every
    convergence test it meets."""
    if not 0.0 < tol < math.inf:
        raise ModelInputError(f"tol must be positive and finite, got {tol}")


def recurrence_check():
    """A fresh predicate for the states of one deterministic loop, called
    once per iteration from the first: it is True once the state equals
    one met before, which then recurs forever, so the loop can stop at
    once rather than at its cap.

    Brent's check: each state is compared with the one kept at the last
    power-of-two call, counted from 0, which finds a cycle of any period
    p entered at call mu by call 2 max(mu, p) + p and keeps one state."""
    mark = None
    calls = 0

    def recurs(state) -> bool:
        nonlocal mark, calls
        if state == mark:
            return True
        if calls & (calls - 1) == 0:
            mark = state
        calls += 1
        return False

    return recurs


# --- input side ---------------------------------------------------------


class DimensionMismatchError(ModelInputError):
    """Matrix and vector shapes are inconsistent."""


class NegativeEntryError(ModelInputError):
    """The interaction matrix must be entrywise nonnegative."""


class NonPositiveRateError(ModelInputError):
    """Recovery and immunity-loss rates must be strictly positive."""


class ReducibleError(ModelInputError):
    """The support digraph of the interaction matrix is not strongly connected."""


class InvalidInitialError(ModelInputError):
    """An initial condition lies outside the admissible state space."""


class OutOfCapError(ModelInputError):
    """An infection profile exceeds its componentwise cap 1/(1+alpha)."""


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
    """No positive scale made the fixed-point map expand the lower start."""


class SimplexViolationError(NumericalError):
    """An integrated state drifted off the simplex beyond tolerance."""


class EigenFailureError(NumericalError):
    """The dense eigensolver did not converge."""
