"""Output oracles for the benchmark, written from the model equations with
numpy alone; nothing here imports netsirs.

    ydot_i = (1 - y_i - z_i) (W y)_i - gamma_i y_i
    zdot_i = gamma_i y_i - delta_i z_i

Every check raises OracleError with the reason on the first mismatch.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

SIMPLEX_TOL = 1e-6
# relative slack on eigenvalue-derived numbers computed by two different
# eigensolves (the program's and the oracle's)
EIG_TOL = 1e-7
RESIDUAL_TOL = 1e-9


class OracleError(Exception):
    """A program output disagrees with the oracle."""


class Model:
    """Arrays of one model file plus the quantities every check needs."""

    def __init__(self, data: dict):
        self.W = np.asarray(data["W"], dtype=float)
        self.gamma = np.asarray(data["gamma"], dtype=float)
        self.delta = np.asarray(data["delta"], dtype=float)
        self.n = self.W.shape[0]
        self.alpha = self.gamma / self.delta
        self.r0 = float(np.max(np.abs(np.linalg.eigvals(self.W / self.gamma[:, None]))))

    @classmethod
    def load(cls, path) -> "Model":
        with open(path) as fh:
            return cls(json.load(fh))

    def scaled(self, s: float) -> "Model":
        return Model({"W": s * self.W, "gamma": self.gamma, "delta": self.delta})


def _close(got: float, want: float, tol: float, what: str) -> None:
    got, want = float(got), float(want)
    if not (abs(got - want) <= tol * max(1.0, abs(want))):
        raise OracleError(f"{what}: got {got!r}, oracle {want!r}")


def rhs(m: Model, y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (1.0 - y - z) * (m.W @ y) - m.gamma * y, m.gamma * y - m.delta * z


def endemic_point(m: Model) -> np.ndarray | None:
    """The positive root of y = Psi(M y) by Newton's method from the cap,
    or None when R0 <= 1. The map is concave and nondecreasing, so Newton
    from above falls monotonically onto the positive root."""
    if m.r0 <= 1.0:
        return None
    M = m.W / m.gamma[:, None]
    c = 1.0 + m.alpha
    y = 1.0 / c
    for _ in range(200):
        u = M @ y
        f = y - u / (1.0 + c * u)
        J = np.eye(m.n) - (1.0 / (1.0 + c * u) ** 2)[:, None] * M
        step = np.linalg.solve(J, f)
        y = y - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    return y


def dfe_abscissa(m: Model) -> float:
    """The DFE Jacobian [[W - G, 0], [G, -D]] is block lower-triangular, so
    its spectrum is that of W - G joined with -delta."""
    top = np.linalg.eigvals(m.W - np.diag(m.gamma)).real.max()
    return float(max(top, -m.delta.min()))


def endemic_abscissa(m: Model, y: np.ndarray) -> float:
    z = m.alpha * y
    wy = m.W @ y
    n = m.n
    J = np.zeros((2 * n, 2 * n))
    J[:n, :n] = (1.0 - y - z)[:, None] * m.W - np.diag(wy + m.gamma)
    J[:n, n:] = -np.diag(wy)
    J[n:, :n] = np.diag(m.gamma)
    J[n:, n:] = -np.diag(m.delta)
    return float(np.linalg.eigvals(J).real.max())


def disk_margin(m: Model, y: np.ndarray, lam: complex) -> float:
    """min_k -(Re H_kk + R_k) for H = S(lam)[y], with S the Schur complement
    of the recovered block in J - lam I. Off-diagonal H_kj = x_k W_kj y_j."""
    x = 1.0 - y - m.alpha * y
    wy = m.W @ y
    d = np.diagonal(m.W)
    radius = x * (wy - d * y)
    hkk = x * d * y - y * (wy + m.gamma + lam + m.gamma * wy / (m.delta + lam))
    return float(np.min(-(hkk.real + radius)))


def check_profile(m: Model, y, z, x, want: np.ndarray, what: str) -> np.ndarray:
    """A reported endemic (y*, z*, x*): positive, under the cap, stationary,
    and equal to the oracle's root."""
    y, z, x = (np.asarray(v, dtype=float) for v in (y, z, x))
    if y.shape != (m.n,) or not np.all(y > 0.0) or not np.all(y <= 1.0 / (1.0 + m.alpha)):
        raise OracleError(f"{what}: y* is not positive and under its cap")
    if np.max(np.abs(z - m.alpha * y)) > RESIDUAL_TOL or np.max(np.abs(x - (1 - y - z))) > RESIDUAL_TOL:
        raise OracleError(f"{what}: z* or x* does not follow from y*")
    ydot, zdot = rhs(m, y, z)
    defect = max(np.max(np.abs(ydot)), np.max(np.abs(zdot)))
    if defect > RESIDUAL_TOL:
        raise OracleError(f"{what}: stationarity residual {defect:.3e}")
    gap = float(np.max(np.abs(y - want)))
    if gap > RESIDUAL_TOL:
        raise OracleError(f"{what}: y* is {gap:.3e} from the oracle root")
    return y


def check_r0_text(m: Model, text: str) -> None:
    """stdout of `netsirs r0`: R0 to six places and a positive eigenpair."""
    found = re.search(r"^R0 = (\S+)$", text, re.M)
    if not found:
        raise OracleError("r0: no 'R0 = ' line")
    _close(float(found.group(1)), m.r0, 1e-6, "r0: printed R0")
    M = m.W / m.gamma[:, None]
    for side, mat in (("v_right", M), ("v_left", M.T)):
        line = re.search(rf"^{side}: \[(.*)\]$", text, re.M)
        if not line:
            raise OracleError(f"r0: no {side} line")
        v = np.array([float(s) for s in line.group(1).split(",")])
        if v.shape != (m.n,) or not np.all(v > 0.0):
            raise OracleError(f"r0: {side} is not a positive n-vector")
        defect = float(np.max(np.abs(mat @ v - m.r0 * v)) / np.max(v))
        if defect > 1e-8 * max(1.0, m.r0):
            raise OracleError(f"r0: {side} eigen-residual {defect:.3e}")


def check_equilibrium(m: Model, report: dict, want: np.ndarray | None) -> None:
    """JSON written by `netsirs equilibrium --out`."""
    _close(report["r0"], m.r0, EIG_TOL, "equilibrium: r0")
    if want is None:
        if report.get("no_endemic") is not True:
            raise OracleError("equilibrium: R0 <= 1 but an endemic point was reported")
        return
    if "y_star" not in report:
        raise OracleError("equilibrium: R0 > 1 but no endemic point was reported")
    check_profile(m, report["y_star"], report["z_star"], report["x_star"], want, "equilibrium")


def check_stability(m: Model, report: dict, want: np.ndarray | None) -> None:
    """JSON written by `netsirs stability --out`: R0, both abscissas, the
    disk margins at the reported shifts and both verdicts."""
    _close(report["r0"], m.r0, EIG_TOL, "stability: r0")
    _close(report["spectral"]["lambda"], m.r0, EIG_TOL, "stability: spectral lambda")
    dfe = dfe_abscissa(m)
    _close(report["dfe"]["abscissa"], dfe, EIG_TOL, "stability: DFE abscissa")
    dfe_verdict = "Stable" if dfe < 0 else "Unstable" if dfe > 0 else "Inconclusive"
    if report["dfe"]["verdict"] != dfe_verdict:
        raise OracleError(f"stability: DFE verdict {report['dfe']['verdict']}, oracle {dfe_verdict}")
    endemic = report["endemic"]
    if want is None:
        if endemic is not None:
            raise OracleError("stability: R0 <= 1 but an endemic certificate was reported")
        return
    if endemic is None:
        raise OracleError("stability: R0 > 1 but no endemic certificate was reported")
    y = check_profile(m, endemic["y_star"], endemic["z_star"], endemic["x_star"], want, "stability")
    _close(endemic["eta"], float(min((m.W @ y).min(), m.delta.min())), 1e-12, "stability: eta")
    abscissa = endemic_abscissa(m, y)
    _close(endemic["abscissa"], abscissa, EIG_TOL, "stability: endemic abscissa")
    disks_left = True
    for sample in endemic["gershgorin"]:
        margin = disk_margin(m, y, complex(*sample["lambda"]))
        _close(sample["min_margin"], margin, 1e-9, "stability: disk margin")
        if sample["all_disks_left"] != (margin > 0.0):
            raise OracleError(f"stability: all_disks_left wrong at lambda {sample['lambda']}")
        disks_left = disks_left and margin > 0.0
    verdict = ("Stable" if abscissa < 0 and disks_left
               else "Unstable" if abscissa > 0 else "Inconclusive")
    if endemic["verdict"] != verdict:
        raise OracleError(f"stability: endemic verdict {endemic['verdict']}, oracle {verdict}")


def _csv(text: str, header: list[str]) -> np.ndarray:
    lines = text.splitlines()
    if lines[0].split(",") != header:
        raise OracleError(f"csv: header {lines[0][:60]!r} is not the expected one")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def check_trajectory_csv(m: Model, text: str, dt: float, steps: int,
                         y_star: np.ndarray, settle: float) -> None:
    """Every row inside the simplex, a row per step, and a final state
    within settle of the endemic point."""
    n = m.n
    header = (["t"] + [f"y_{i}" for i in range(1, n + 1)]
              + [f"z_{i}" for i in range(1, n + 1)] + [f"x_{i}" for i in range(1, n + 1)])
    rows = _csv(text, header)
    if rows.shape != (steps + 1, 1 + 3 * n):
        raise OracleError(f"trajectory: shape {rows.shape}, expected {(steps + 1, 1 + 3 * n)}")
    if np.max(np.abs(rows[:, 0] - dt * np.arange(steps + 1))) > 1e-9:
        raise OracleError("trajectory: times are not k * dt")
    y, z, x = rows[:, 1:n + 1], rows[:, n + 1:2 * n + 1], rows[:, 2 * n + 1:]
    states = rows[:, 1:]
    if states.min() < -SIMPLEX_TOL or states.max() > 1.0 + SIMPLEX_TOL:
        raise OracleError("trajectory: a fraction left [0, 1]")
    if np.max(np.abs(x + y + z - 1.0)) > 1e-9:
        raise OracleError("trajectory: x + y + z != 1 in some row")
    drift = float(np.max(np.abs(y[-1] - y_star)))
    if drift > settle:
        raise OracleError(f"trajectory: final y is {drift:.3e} from y*")


SWEEP_HEADER = ["scale", "r0", "endemic_norm", "dfe_abscissa", "endemic_abscissa"]


def check_sweep_csv(m: Model, text: str, grid: np.ndarray) -> None:
    """Each row against the scaled model: R0, ||y*||_inf and both abscissas.
    NaN is allowed only as the endemic abscissa of a row with R0 <= 1."""
    rows = _csv(text, SWEEP_HEADER)
    if rows.shape != (grid.size, 5):
        raise OracleError(f"sweep: {rows.shape[0]} rows, expected {grid.size}")
    for (scale, r0, norm, dfe, endemic), s in zip(rows, grid):
        what = f"sweep row s={s:.6g}"
        _close(scale, s, 1e-11, f"{what}: scale")
        part = m.scaled(s)
        _close(r0, part.r0, EIG_TOL, f"{what}: r0")
        _close(dfe, dfe_abscissa(part), EIG_TOL, f"{what}: DFE abscissa")
        y = endemic_point(part)
        if y is None:
            if norm != 0.0 or not math.isnan(endemic):
                raise OracleError(f"{what}: R0 <= 1 but an endemic point was reported")
            continue
        _close(norm, float(np.max(y)), 1e-9, f"{what}: endemic norm")
        _close(endemic, endemic_abscissa(part, y), EIG_TOL, f"{what}: endemic abscissa")
