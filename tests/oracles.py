"""Independent reference computations used to cross-check the package.

Everything here deliberately avoids the code paths under test: reachability
by boolean matrix powers instead of breadth-first sweeps, the dominant
eigenvalue by bisection on a cofactor-expansion characteristic polynomial
or by plain power sweeps instead of shifted inverse iteration, the Perron
roots of a directed ring from its closed-form characteristic equation,
Jacobians by central differences, the Schur complement of the shifted
Jacobian as a full matrix per shift instead of shift-free radii and one
block of diagonals, the stationarity residual from the plain field
expressions, fixed points by an exhaustive grid scan
polished with Newton steps, RK4 steps as plain array expressions instead
of the preallocated in-place loop, the equilibrium bracket as two
serial Phi sequences instead of one stacked pair with Newton-Fourier
steps, the endemic equilibrium to 50 digits by mpmath Newton steps, and
CSV files cell by cell instead of in chunks that format a settled tail
once.
"""

from __future__ import annotations

import math

import numpy as np

from netsirs import SingularShiftError


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


def collatz_wielandt_bounds(M: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Bracket the spectral radius: min_i (Mx)_i/x_i <= rho(M) <= max_i (Mx)_i/x_i.

    Valid for any strictly positive x; raises ValueError otherwise.
    """
    M = np.asarray(M, dtype=float)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("the test vector must be strictly positive")
    ratios = (M @ x) / x
    return float(ratios.min()), float(ratios.max())


def perron_serial(M: np.ndarray, tol: float = 1e-10):
    """The Perron pair as two serial power loops on A = M + I, the right
    vector from A and then the left one from A^T, each with plain
    expressions until its own Collatz-Wielandt bracket closes to tol, so
    lam lies within tol of rho(M). A single node needs no sweep. Returns
    (lam, v_right, v_left, (right sweeps, left sweeps), residual)."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0]), np.ones(1), np.ones(1), (0, 0), 0.0

    def sweep(A):
        x = np.full(n, 1.0 / n)
        it = 1
        while True:
            w = A @ x
            ratios = w / x
            if float(ratios.max() - ratios.min()) <= tol:
                return x / x.sum(), it
            x = w / w.sum()
            it += 1

    A = M + np.eye(n)
    v_right, it_right = sweep(A)
    v_left, it_left = sweep(A.T)
    lam = float(v_left @ (M @ v_right) / (v_left @ v_right))
    residual = float(np.max(np.abs(M @ v_right - lam * v_right)))
    return lam, v_right, v_left, (it_right, it_left), residual


def ring_perron_roots(w: np.ndarray, gamma: np.ndarray) -> tuple[float, float]:
    """(rho(M), s(W - [gamma])) of the directed ring W[i, i+1 mod n] = w_i.

    Every eigenvalue of M = [gamma]^-1 W solves lam^n = prod_i w_i / gamma_i,
    so rho(M) is the geometric mean of the w_i / gamma_i. Every eigenvalue
    of W - [gamma] solves prod_i (lam + gamma_i) = prod_i w_i, and the real
    root above -min gamma, where the log of the left side increases, is
    s(W - [gamma]); bisection finds it to adjacent floats.
    """
    w = np.asarray(w, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    rho = math.exp(math.fsum(np.log(w / gamma)) / w.size)
    target = math.fsum(np.log(w))
    lo, hi = -float(gamma.min()), float(w.max())
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return rho, mid
        if math.fsum(np.log(mid + gamma)) < target:
            lo = mid
        else:
            hi = mid


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


def residual(model, y: np.ndarray, z: np.ndarray) -> float:
    """Stationarity defect max(||ydot||_inf, ||zdot||_inf) at (y, z)."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    ydot = (1.0 - y - z) * (model.W @ y) - model.gamma * y
    zdot = model.gamma * y - model.delta * z
    return float(max(np.max(np.abs(ydot)), np.max(np.abs(zdot))))


def schur_matrix(model, y_star: np.ndarray, lam: complex) -> np.ndarray:
    """Schur complement of the recovered block in the shifted Jacobian,

        S(lam) = [x*] W - [W y*] - [gamma] - lam I
                 - [gamma] ([delta] + lam I)^-1 [W y*],

    whose zeros in det coincide with the Jacobian eigenvalues off the set
    {-delta_i}. Raises SingularShiftError at a pole, a lam within
    1e-13 delta_i of some -delta_i, as gershgorin_certificate does."""
    y = np.asarray(y_star, dtype=float)
    lam = complex(lam)
    shifts = model.delta + lam
    if np.any(np.abs(shifts) <= 1e-13 * model.delta):
        raise SingularShiftError("lam coincides with -delta_i")
    z = model.alpha * y
    x = 1.0 - y - z
    wy = model.W @ y
    S = (x[:, None] * model.W).astype(complex)
    diag = wy + model.gamma + lam + model.gamma * wy / shifts
    S[np.diag_indices_from(S)] -= diag
    return S


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


def csv_plain(path: str, header: str, table: np.ndarray) -> None:
    """Write the header line and one line per table row, every cell
    formatted on its own as "%.12g"."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in np.asarray(table).tolist():
            fh.write(",".join("%.12g" % v for v in row) + "\n")


def bracket_serial(model, v_right: np.ndarray, tol: float = 1e-12):
    """The two-sided Phi bracket, one sequence at a time with plain
    expressions, from the rows on the ray of v: with m = M v and
    c = (m - v) / ((1 + alpha) m v), the upper from min(1.001 max(c) v,
    ybar) and the lower from 0.999 min(c) v, until the gap is at most tol
    and the midpoint y has |y - Phi(y)| <= tol y. Returns
    (midpoint, iterations, final sup-norm gap, halving), where halving
    says that every iteration shrank the gap to at most half, so that
    solve_endemic takes no Newton-Fourier step on the model."""
    M, alpha = model.M, model.alpha

    def phi(y):
        My = M @ y
        return My / (1.0 + (1.0 + alpha) * My)

    m = M @ v_right
    c = (m - v_right) / ((1.0 + alpha) * m * v_right)
    upper = np.minimum(1.001 * c.max() * v_right, model.ybar)
    lower = 0.999 * c.min() * v_right
    gap = float(np.max(np.abs(upper - lower)))
    iterations = 0
    halving = True
    def settled(y):
        return np.all(np.abs(y - phi(y)) <= tol * y)

    while gap > tol or not settled(0.5 * (upper + lower)):
        upper = phi(upper)
        lower = phi(lower)
        last, gap = gap, float(np.max(np.abs(upper - lower)))
        halving = halving and gap <= 0.5 * last
        iterations += 1
    return 0.5 * (upper + lower), iterations, gap, halving


def r0_mpmath(model, dps: int = 50) -> float:
    """R0 of the float model from a dps-digit eigensolve of M = W / gamma,
    formed in mpmath."""
    import mpmath

    with mpmath.workdps(dps):
        M = mpmath.matrix([[mpmath.mpf(float(w)) / mpmath.mpf(float(g)) for w in row]
                           for row, g in zip(model.W, model.gamma)])
        return float(max(mpmath.re(lam) for lam in mpmath.eig(M, left=False, right=False)))


def endemic_mpmath(model, dps: int = 50) -> np.ndarray:
    """The endemic y* of the float model (W, gamma, delta), computed with
    dps digits and rounded to floats.

    Newton steps on the convex F(y) = y - Phi(y), with M = [gamma]^-1 W and
    alpha = gamma / delta formed in mpmath, start from the cap ybar. Above
    y* each F'(y) is a nonsingular M-matrix, so the iterates decrease
    monotonically to y*; near R0 = 1 they first halve their distance per
    step, hence the generous step budget.
    """
    import mpmath

    n = model.n
    with mpmath.workdps(dps):
        W = [[mpmath.mpf(float(v)) for v in row] for row in model.W]
        gamma = [mpmath.mpf(float(v)) for v in model.gamma]
        delta = [mpmath.mpf(float(v)) for v in model.delta]
        M = mpmath.matrix([[W[i][j] / gamma[i] for j in range(n)] for i in range(n)])
        rate = [1 + gamma[i] / delta[i] for i in range(n)]
        y = mpmath.matrix([1 / r for r in rate])
        for _ in range(500):
            My = M * y
            F = mpmath.matrix([y[i] - My[i] / (1 + rate[i] * My[i]) for i in range(n)])
            J = mpmath.matrix(n, n)
            for i in range(n):
                slope = 1 / (1 + rate[i] * My[i]) ** 2
                for j in range(n):
                    J[i, j] = (1 if i == j else 0) - slope * M[i, j]
            step = mpmath.lu_solve(J, F)
            y = y - step
            if mpmath.norm(step, mpmath.inf) <= mpmath.mpf(10) ** (10 - dps):
                return np.array([float(v) for v in y])
    raise AssertionError("mpmath Newton did not converge in 500 steps")


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
