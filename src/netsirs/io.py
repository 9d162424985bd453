"""File formats: model JSON, initial-condition JSON, trajectory and sweep CSV.

Model files carry {"n", "W", "gamma", "delta"} plus an optional "name".
CSV numbers are written with 12 significant digits, enough to compare
runs while keeping files readable.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionMismatchError, ModelInputError
from .model import ModelInstance, validate_model
from .dynamics import Trajectory


def _numbers(value, what: str, literals: bool) -> np.ndarray:
    """value as a float array, if it holds JSON numbers only.

    numpy's dtype inference refuses strings, nulls, objects, all-boolean
    lists and integers too large for 64 bits, but reads a boolean among
    numbers as 0 or 1, so every entry, at any depth, is scanned for
    booleans too when the file text has a true or false literal;
    ModelInputError otherwise.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise ModelInputError(f"{what} is malformed: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ModelInputError(f"{what} must hold JSON numbers only, got {arr.dtype} entries")
    if literals and bool in set(map(type, np.asarray(value, dtype=object).ravel())):
        raise ModelInputError(f"{what} must hold JSON numbers only, got a boolean entry")
    return arr.astype(float, copy=False)


def _load_object(path: str, what: str) -> tuple[dict, bool]:
    """Parse a JSON file that must hold an object; also return whether
    its text has a true or false literal."""
    with open(path) as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelInputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelInputError(f"{what} file {path} must hold a JSON object, got {type(data).__name__}")
    return data, "true" in text or "false" in text


def load_model(path: str) -> ModelInstance:
    """Read and validate a model JSON file; validation errors propagate."""
    data, literals = _load_object(path, "model")
    for key in ("n", "W", "gamma", "delta"):
        if key not in data:
            raise ModelInputError(f"model file {path} is missing field {key!r}")
    n = data["n"]
    if (isinstance(n, bool) or not isinstance(n, (int, float))
            or isinstance(n, float) and not n.is_integer()):
        raise ModelInputError(f"model file {path} has a non-integer n: {n!r}")
    n = int(n)
    W, gamma, delta = (_numbers(data[key], f"model file {path} field {key!r}", literals)
                       for key in ("W", "gamma", "delta"))
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ModelInputError(f"model file {path} has a non-string name: {name!r}")
    if W.shape != (n, n):
        raise DimensionMismatchError(f"W must be {n} x {n}, got shape {W.shape}")
    return validate_model(W, gamma, delta, name=name)


def load_initial(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read {"y0": [...], "z0": [...]} from JSON."""
    data, literals = _load_object(path, "initial-condition")
    for key in ("y0", "z0"):
        if key not in data:
            raise ModelInputError(f"initial-condition file {path} is missing {key!r}")
    return tuple(_numbers(data[key], f"initial-condition file {path} field {key!r}", literals)
                 for key in ("y0", "z0"))


def sample_initial_states(
    n: int,
    count: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw initial conditions uniformly from the per-population simplex.

    Each population of each start gets two sorted uniforms (u1, u2),
    giving the spacings (x, y, z) = (u1, u2 - u1, 1 - u2). All count
    starts come from one (count, n, 2) draw, whose values are those of
    count successive (n, 2) draws.
    """
    u = np.sort(rng.random((count, n, 2)), axis=-1)
    return [(v[:, 1] - v[:, 0], 1.0 - v[:, 1]) for v in u]


def trajectory_header(n: int, lyapunov: bool) -> str:
    cols = ["t"] + [f"{name}_{i}" for name in "yzx" for i in range(1, n + 1)]
    return ",".join(cols + ["V"] * lyapunov)


# rows per write: the formatted text of one chunk stays small
CSV_CHUNK_ROWS = 1000


def _write_table(path: str, header: str, table: np.ndarray) -> None:
    """Write the header line, then one row per table row, every number
    as "%.12g".

    The trailing run of rows whose numbers after column 0 have the bytes
    of the last row's (a settled trajectory; -0.0 is not 0.0, and a NaN
    matches only its own payload) shares one text for them, formatted
    once: such a row is its "%.12g" t followed by that text. Each chunk
    of CSV_CHUNK_ROWS rows is one %-format of the row format repeated
    once per row before the run and of the t format once per row in it.
    The bytes are those of formatting every number."""
    rows, cols = table.shape
    bits = table[:, 1:].view(np.int64)
    differs = np.flatnonzero(~(bits == bits[-1:]).all(axis=1))
    settled = int(differs[-1]) + 1 if differs.size else 0
    line = ",".join(["%.12g"] * cols) + "\n"
    tail = "%.12g" + "".join([",%.12g" % v for v in table[-1:, 1:].ravel().tolist()]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, rows, CSV_CHUNK_ROWS):
            stop = min(start + CSV_CHUNK_ROWS, rows)
            mid = min(max(start, settled), stop)
            fh.write(line * (mid - start) % tuple(table[start:mid].ravel().tolist())
                     + tail * (stop - mid) % tuple(table[mid:stop, 0].tolist()))


def write_trajectory_csv(trajectory: Trajectory, path: str,
                         lyapunov: np.ndarray | None = None) -> None:
    """Write the [t y z x] record table, one CSV row per recorded state,
    every number as "%.12g". A given lyapunov, one value per row, is
    appended as the column V."""
    table = trajectory.table
    if lyapunov is not None:
        table = np.column_stack((table, lyapunov))
    _write_table(path, trajectory_header(trajectory.n, lyapunov is not None), table)


SWEEP_HEADER = "scale,r0,endemic_norm,dfe_abscissa,endemic_abscissa"


def write_sweep_csv(rows, path: str) -> None:
    """Write one row per sweep point, every number as "%.12g"."""
    table = np.array([(row.scale, row.r0, row.endemic_norm, row.dfe_abscissa,
                       row.endemic_abscissa) for row in rows], dtype=float).reshape(-1, 5)
    _write_table(path, SWEEP_HEADER, table)
