"""Parameter sweeps over a uniform scaling of the interaction matrix."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .equilibrium import EndemicEquilibrium, solve_endemic
from .errors import ModelInputError, NetsirsError, check_count, check_positive
from .model import ModelInstance, validate_model
from .spectral import reproduction_number
from .stability import STABLE, dfe_abscissa, dfe_verdict, endemic_certificate
from .stability import jacobian_dfe, jacobian_endemic, spectral_abscissa  # noqa: F401  (perfbench/spans.py wraps these names)


@dataclass(frozen=True)
class SweepRow:
    """One scale point. endemic_norm is ||y_star||_inf, or 0 when the
    scaled model has no endemic equilibrium; endemic_abscissa is NaN in
    that case. A row whose computation failed is all-NaN except scale,
    and its error is "<ErrorType>: <message>"; error is None otherwise."""

    scale: float
    r0: float
    endemic_norm: float
    dfe_abscissa: float
    endemic_abscissa: float
    error: str | None = None


def run_sweep(
    model: ModelInstance,
    scale_min: float,
    scale_max: float,
    steps: int,
    tol: float = 1e-12,
) -> tuple[list[SweepRow], int]:
    """Rescale W by each s on a uniform grid and re-solve each row.

    Returns the rows in grid order plus the number of warnings: rows that
    failed, recorded as NaN with their error, and rows written as computed
    whose dfe_verdict, or above the threshold endemic_certificate verdict,
    is not Stable: the verdicts the stability command reports. A steps
    that is a bool, not an integer or below 1, a non-finite scale bound or
    a tol that is not positive and finite raises ModelInputError before
    the first row. The Perron pair of the model is solved once: rho(sM) =
    s rho(M) and the eigenvectors do not move, so every row reuses it
    scaled by s. An error of that one solve is not a row failure and
    propagates to the caller. The DFE abscissa comes from dfe_abscissa,
    with no eigensolve; only the certificate takes a dense one.
    """
    check_count(steps, "steps")
    if not np.all(np.isfinite((scale_min, scale_max))):
        raise ModelInputError(f"scale bounds must be finite, got {scale_min} and {scale_max}")
    check_positive(tol, "tol")
    _, base = reproduction_number(model)
    rows: list[SweepRow] = []
    warnings = 0
    for scale in np.linspace(scale_min, scale_max, steps).tolist():
        try:
            with np.errstate(over="ignore"):  # validate_model rejects an inf scale * W
                scaled = validate_model(scale * model.W, model.gamma, model.delta)
            spectral = replace(base, lam=scale * base.lam, residual=scale * base.residual)
            dfe = dfe_abscissa(scaled).abscissa
            solved = solve_endemic(scaled, tol=tol, spectral=spectral)
            if isinstance(solved, EndemicEquilibrium):
                norm = float(np.max(np.abs(solved.y_star)))
                certificate = endemic_certificate(scaled, solved.y_star, tol=tol)
                endemic, warned = certificate.spectral_abscissa, certificate.verdict != STABLE
            else:
                norm, endemic, warned = 0.0, float("nan"), dfe_verdict(solved)[0] != STABLE
            warnings += warned
            rows.append(SweepRow(scale=scale, r0=spectral.lam, endemic_norm=norm,
                                 dfe_abscissa=dfe, endemic_abscissa=endemic))
        except NetsirsError as exc:
            nan = float("nan")
            rows.append(SweepRow(scale=scale, r0=nan, endemic_norm=nan,
                                 dfe_abscissa=nan, endemic_abscissa=nan,
                                 error=f"{type(exc).__name__}: {exc}"))
            warnings += 1
    return rows, warnings
