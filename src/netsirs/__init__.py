"""Network SIRS epidemic model toolkit.

Validated model construction, reproduction number via the dominant
eigenpair, endemic equilibria through a monotone fixed-point iteration
with two-sided bracketing, fixed-step RK4 trajectory simulation, and
stability certificates: a certified Perron bracket for the infection-free
state, dense spectra with Gershgorin disks of a Schur complement for the
endemic one.
"""

from .errors import (
    DimensionMismatchError,
    EigenFailureError,
    EpsilonStarNotFoundError,
    InvalidAtBoundaryError,
    InvalidInitialError,
    ModelInputError,
    NegativeEntryError,
    NetsirsError,
    NoConvergenceError,
    NonPositiveEquilibriumError,
    NonPositiveRateError,
    NotEquilibriumError,
    NumericalError,
    ReducibleError,
    SimplexViolationError,
    SingularShiftError,
)
from .model import (
    ModelInstance,
    check_irreducible,
    validate_model,
)
from .spectral import (
    SpectralResult,
    reproduction_number,
)
from .equilibrium import (
    R0_TOL,
    EndemicEquilibrium,
    NoEndemic,
    iterate_phi,
    phi,
    psi,
    solve_endemic,
)
from .dynamics import (
    SIMPLEX_VIOLATION_TOL,
    IntegratorConfig,
    Trajectory,
    rhs,
    simulate,
)
from .stability import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    DfeAbscissa,
    GershgorinSample,
    StabilityCertificate,
    default_lambda_samples,
    dfe_abscissa,
    dfe_verdict,
    endemic_certificate,
    eta_bound,
    gershgorin_certificate,
    jacobian_dfe,
    jacobian_endemic,
    lyapunov_derivative,
    lyapunov_value,
    rank_one_lyapunov,
    spectral_abscissa,
)
from .io import (
    SWEEP_HEADER,
    load_initial,
    load_model,
    sample_initial_states,
    trajectory_header,
    write_sweep_csv,
    write_trajectory_csv,
)
from .sweep import SweepRow, run_sweep

__version__ = "0.1.0"
