"""File formats: model JSON, initial-condition JSON, trajectory and sweep CSV.

Model files carry {"n", "W", "gamma", "delta"} plus an optional "name".
Serialization uses Python's shortest round-trip float repr, so a load and
re-save is field-identical. CSV numbers are written with 12 significant
digits, enough to compare runs while keeping files readable.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatchError, ModelInputError
from .model import ModelInstance, validate_model
from .dynamics import Trajectory


def load_model(path: str) -> ModelInstance:
    """Read and validate a model JSON file; validation errors propagate."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelInputError(f"{path} is not valid JSON: {exc}") from exc
    for key in ("n", "W", "gamma", "delta"):
        if key not in data:
            raise ModelInputError(f"model file {path} is missing field {key!r}")
    try:
        n = int(data["n"])
        W = np.asarray(data["W"], dtype=float)
        gamma = np.asarray(data["gamma"], dtype=float)
        delta = np.asarray(data["delta"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelInputError(f"model file {path} has malformed fields: {exc}") from exc
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelInputError(f"model file {path} has a non-string name: {name!r}")
    if W.shape != (n, n):
        raise DimensionMismatchError(f"W must be {n} x {n}, got shape {W.shape}")
    if gamma.shape != (n,) or delta.shape != (n,):
        raise DimensionMismatchError(f"rate vectors must have length {n}")
    return validate_model(W, gamma, delta, name=name)


def model_to_dict(model: ModelInstance) -> dict:
    out = {
        "n": model.n,
        "W": [[float(v) for v in row] for row in model.W],
        "gamma": [float(v) for v in model.gamma],
        "delta": [float(v) for v in model.delta],
    }
    if model.name is not None:
        out["name"] = model.name
    return out


def save_model(model: ModelInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_initial(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read {"y0": [...], "z0": [...]} from JSON."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelInputError(f"{path} is not valid JSON: {exc}") from exc
    for key in ("y0", "z0"):
        if key not in data:
            raise ModelInputError(f"initial-condition file {path} is missing {key!r}")
    return np.asarray(data["y0"], dtype=float), np.asarray(data["z0"], dtype=float)


def sample_initial_states(
    n: int,
    count: int,
    rng: np.random.Generator,
    require_infected: bool = True,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw initial conditions uniformly from the per-population simplex.

    Each population gets two sorted uniforms (u1, u2), giving the spacings
    (x, y, z) = (u1, u2 - u1, 1 - u2). With require_infected a draw whose
    infected fractions are all exactly zero is rejected and redrawn.
    """
    out: list[tuple[np.ndarray, np.ndarray]] = []
    while len(out) < count:
        u = np.sort(rng.random((n, 2)), axis=1)
        y0 = u[:, 1] - u[:, 0]
        z0 = 1.0 - u[:, 1]
        if require_infected and not np.any(y0 > 0.0):
            continue
        out.append((y0, z0))
    return out


def _num(value: float) -> str:
    return format(float(value), ".12g")


def trajectory_header(n: int, lyapunov: bool) -> str:
    cols = (
        ["t"]
        + [f"y_{i}" for i in range(1, n + 1)]
        + [f"z_{i}" for i in range(1, n + 1)]
        + [f"x_{i}" for i in range(1, n + 1)]
    )
    if lyapunov:
        cols.append("V")
    return ",".join(cols)


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    n = trajectory.y.shape[1]
    with_v = trajectory.lyapunov is not None
    lines = [trajectory_header(n, with_v)]
    for k in range(len(trajectory)):
        row = [_num(trajectory.times[k])]
        row += [_num(v) for v in trajectory.y[k]]
        row += [_num(v) for v in trajectory.z[k]]
        row += [_num(v) for v in trajectory.x[k]]
        if with_v:
            row.append(_num(trajectory.lyapunov[k]))
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


SWEEP_HEADER = "scale,r0,endemic_norm,dfe_abscissa,endemic_abscissa"


def write_sweep_csv(rows, path: str) -> None:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                _num(v)
                for v in (row.scale, row.r0, row.endemic_norm,
                          row.dfe_abscissa, row.endemic_abscissa)
            )
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
