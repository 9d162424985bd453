"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: reachability
by boolean matrix powers instead of Tarjan, the dominant eigenvalue by
bisection on a cofactor-expansion characteristic polynomial instead of
power iteration, Jacobians by central differences, fixed points by an
exhaustive grid scan polished with Newton steps, and RK4 steps as plain
array expressions instead of the preallocated in-place loop.
"""

from __future__ import annotations

import numpy as np


def reachability_strongly_connected(W: np.ndarray) -> bool:
    """Strong connectivity by transitive closure with boolean powers."""
    A = np.asarray(W) > 0
    n = A.shape[0]
    R = A | np.eye(n, dtype=bool)
    for _ in range(n):
        R = R | (R @ R)
    return bool(np.all(R & R.T))


def cofactor_det(A: np.ndarray) -> float:
    """Determinant by recursive cofactor expansion (small n only)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    if n == 2:
        return float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    total = 0.0
    cols = list(range(n))
    for j in range(n):
        minor = A[1:][:, cols[:j] + cols[j + 1 :]]
        total += ((-1.0) ** j) * A[0, j] * cofactor_det(minor)
    return total


def char_poly_dominant_root(M: np.ndarray, tol: float = 1e-12) -> float:
    """Largest real root of det(lam I - M) for irreducible nonnegative M.

    A positive vector is sharpened by repeated multiplication with M + I,
    whose min/max ratios bracket the dominant eigenvalue from both sides;
    bisection on the characteristic polynomial then does the actual root
    finding inside that bracket.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    A = M + np.eye(n)
    x = np.ones(n)
    lo, hi = -np.inf, np.inf
    for _ in range(400):
        w = A @ x
        ratios = w / x
        lo = max(lo, float(ratios.min() - 1.0))
        hi = min(hi, float(ratios.max() - 1.0))
        if hi - lo <= 1e-9:
            break
        x = w / w.sum()

    def p(lam: float) -> float:
        return cofactor_det(lam * np.eye(n) - M)

    lo_p, hi_p = lo - 1e-9, hi + 1e-9
    assert p(hi_p) >= 0.0, "upper bracket end must sit above the dominant root"
    assert p(lo_p) <= 0.0, "bracket failed to isolate the dominant root"
    for _ in range(200):
        mid = 0.5 * (lo_p + hi_p)
        if hi_p - lo_p <= tol:
            break
        if p(mid) <= 0.0:
            lo_p = mid
        else:
            hi_p = mid
    return 0.5 * (lo_p + hi_p)


def finite_diff_jacobian(f, u0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of f: R^m -> R^m at u0."""
    u0 = np.asarray(u0, dtype=float)
    m = u0.shape[0]
    J = np.zeros((m, m))
    for j in range(m):
        up = u0.copy()
        dn = u0.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (f(up) - f(dn)) / (2.0 * h)
    return J


def rk4_plain(model, y: np.ndarray, z: np.ndarray, dt: float, n_steps: int):
    """Classical RK4 on the reduced (y, z) field, one fresh array per
    operation; returns the (n_steps + 1, n) rows of y and of z."""
    W, gamma, delta = model.W, model.gamma, model.delta
    half = 0.5 * dt
    sixth = dt / 6.0

    def f(y, z):
        return (1.0 - y - z) * (W @ y) - gamma * y, gamma * y - delta * z

    ys, zs = [y], [z]
    for _ in range(n_steps):
        k1y, k1z = f(y, z)
        k2y, k2z = f(y + half * k1y, z + half * k1z)
        k3y, k3z = f(y + half * k2y, z + half * k2z)
        k4y, k4z = f(y + dt * k3y, z + dt * k3z)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        ys.append(y)
        zs.append(z)
    return np.array(ys), np.array(zs)


def batch_phi(Y: np.ndarray, M: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """The fixed-point map applied to every row of Y at once."""
    MY = Y @ M.T
    return MY / (1.0 + (1.0 + alpha) * MY)


def grid_fixed_points(model, resolution: int = 200) -> list[np.ndarray]:
    """Every fixed point of the infection map inside the cap box.

    Scans the box [0, ybar_1] x ... x [0, ybar_n] at the given per-axis
    resolution, keeps grid points whose fixed-point defect could hide a
    root within one cell, polishes each candidate with damped-free Newton
    on phi(y) - y, and clusters the converged roots.
    """
    n, M, alpha, ybar = model.n, model.M, model.alpha, model.ybar
    axes = [np.linspace(0.0, ybar[i], resolution + 1) for i in range(n)]
    h = float(max(ybar) / resolution)
    tau = (np.abs(M).sum(axis=1).max() + 1.0) * h

    candidates = []
    if n == 1:
        Y = axes[0][:, None]
        defect = np.abs(batch_phi(Y, M, alpha) - Y).max(axis=1)
        candidates.append(Y[defect <= tau])
    else:
        mesh_rest = np.meshgrid(*axes[1:], indexing="ij")
        rest = np.stack([g.ravel() for g in mesh_rest], axis=1)
        for v0 in axes[0]:
            Y = np.empty((rest.shape[0], n))
            Y[:, 0] = v0
            Y[:, 1:] = rest
            defect = np.abs(batch_phi(Y, M, alpha) - Y).max(axis=1)
            keep = defect <= tau
            if keep.any():
                candidates.append(Y[keep])
    if not candidates:
        return []
    cand = np.concatenate(candidates)
    # thin the candidate cloud to one point per coarse box before polishing
    keys = np.round(cand / (4.0 * h)).astype(np.int64)
    _, idx = np.unique(keys, axis=0, return_index=True)
    cand = cand[np.sort(idx)]

    roots = []
    eye = np.eye(n)
    for start in cand:
        y = start.copy()
        converged = False
        for _ in range(60):
            My = M @ y
            p = My / (1.0 + (1.0 + alpha) * My)
            g = p - y
            if np.max(np.abs(g)) <= 1e-13:
                converged = True
                break
            J = (M / (1.0 + (1.0 + alpha) * My[:, None]) ** 2) - eye
            try:
                step = np.linalg.solve(J, -g)
            except np.linalg.LinAlgError:
                break
            y = y + step
            if not np.all(np.isfinite(y)):
                break
        if converged and np.all(y >= -1e-9) and np.all(y <= ybar + 1e-9):
            roots.append(np.clip(y, 0.0, None))

    distinct: list[np.ndarray] = []
    for root in roots:
        if not any(np.max(np.abs(root - other)) < 1e-6 for other in distinct):
            distinct.append(root)
    return distinct
