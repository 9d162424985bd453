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


def _load_object(path: str, what: str) -> dict:
    """Parse a JSON file that must hold an object."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelInputError(f"{what} file {path} must hold a JSON object, got {type(data).__name__}")
    return data


def load_model(path: str) -> ModelInstance:
    """Read and validate a model JSON file; validation errors propagate."""
    data = _load_object(path, "model")
    for key in ("n", "W", "gamma", "delta"):
        if key not in data:
            raise ModelInputError(f"model file {path} is missing field {key!r}")
    n = data["n"]
    if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
        raise ModelInputError(f"model file {path} has a non-integer n: {n!r}")
    try:
        n = int(n)
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
    data = _load_object(path, "initial-condition")
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


# rows per write: the formatted text of one chunk stays small
CSV_CHUNK_ROWS = 1000


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write one row per recorded state, every number as format(v, ".12g").

    The values go into one table first; each row is then a single
    %-format, written in chunks of CSV_CHUNK_ROWS rows.
    """
    with_v = trajectory.lyapunov is not None
    columns = [trajectory.times[:, None], trajectory.y, trajectory.z, trajectory.x]
    if with_v:
        columns.append(trajectory.lyapunov[:, None])
    table = np.hstack(columns)
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(trajectory_header(trajectory.y.shape[1], with_v) + "\n")
        for start in range(0, table.shape[0], CSV_CHUNK_ROWS):
            chunk = table[start:start + CSV_CHUNK_ROWS].tolist()
            fh.write("".join([line % tuple(row) for row in chunk]))


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
