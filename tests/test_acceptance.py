"""End-to-end acceptance checks.

Each test exercises one shipped guarantee at its stated tolerance and
prints a single pass/fail line (run with -s to see them all). The checks
are deliberately heavier than the unit tests: long integrations, model
rosters, and brute-force searches.
"""

from __future__ import annotations

import time

import numpy as np

import helpers
import oracles
from netsirs import (
    EndemicEquilibrium,
    IntegratorConfig,
    default_lambda_samples,
    eta_bound,
    gershgorin_certificate,
    iterate_phi,
    jacobian_endemic,
    lyapunov_value,
    phi,
    rank_one_lyapunov,
    reproduction_number,
    sample_initial_states,
    simulate,
    solve_endemic,
    spectral_abscissa,
    validate_model,
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _model_roster():
    """Mixed bag used by the roster-wide checks: the five-node reference
    network, the uniform graph, a rank-one coupling, and five random
    strongly connected models."""
    models = [helpers.ref5(), helpers.out_regular()]
    models.append(helpers.rank_one_model(np.random.default_rng(7), 4, r0_target=3.0)[0])
    rng = np.random.default_rng(77)
    for i in range(5):
        n = 2 + i % 5
        models.append(helpers.random_supercritical(rng, n, float(rng.uniform(1.5, 4.0))))
    return models


def test_acceptance_01_reference_reproduction_number(ref5):
    start = time.perf_counter()
    r0, _ = reproduction_number(ref5)
    elapsed = time.perf_counter() - start
    err = abs(r0 - 8.7434)
    _report(1, err <= 5e-4 and elapsed < 1.0,
            f"five-node reference R0 = {r0:.6f} (|err| {err:.2e} <= 5e-4, {elapsed:.2f}s)")


def test_acceptance_02_endemic_attracts_random_starts(ref5):
    start = time.perf_counter()
    eq = solve_endemic(ref5)
    assert isinstance(eq, EndemicEquilibrium)
    cfg = IntegratorConfig(dt=0.01, t_end=200.0, record_every=10**9)
    worst = 0.0
    for y0, z0 in sample_initial_states(5, 20, np.random.default_rng(2)):
        traj = simulate(ref5, y0, z0, cfg)
        dist = max(float(np.max(np.abs(traj.y[-1] - eq.y_star))),
                   float(np.max(np.abs(traj.z[-1] - eq.z_star))))
        worst = max(worst, dist)
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-4 and elapsed < 30.0,
            f"20 random starts end within {worst:.2e} of the endemic profile "
            f"(<= 1e-4, {elapsed:.1f}s < 30s)")


def test_acceptance_03_uniform_network_closed_form(out_regular3):
    eq = solve_endemic(out_regular3)
    worst = float(np.max(np.abs(eq.y_star - 0.25)))
    rng = np.random.default_rng(13)
    for _ in range(10):
        xi0 = rng.uniform(0.05, 1.0, size=3) * out_regular3.ybar
        limit, _ = iterate_phi(xi0, out_regular3.M, out_regular3.alpha)
        worst = max(worst, float(np.max(np.abs(limit - 0.25))))
    _report(3, worst <= 1e-10,
            f"solver and 10 fixed-point runs match y* = 0.25 within {worst:.2e} (<= 1e-10)")


def test_acceptance_04_subcritical_collapse(ref5):
    r0, _ = reproduction_number(ref5)
    sub = validate_model(ref5.W * (0.9 / r0), ref5.gamma, ref5.delta)
    spec = reproduction_number(sub)[1]
    cfg = IntegratorConfig(dt=0.01, t_end=200.0, record_every=10)
    worst_end, worst_step = 0.0, -np.inf
    for y0, z0 in sample_initial_states(5, 10, np.random.default_rng(3)):
        traj = simulate(sub, y0, z0, cfg)
        end = max(float(np.max(np.abs(traj.x[-1] - 1.0))),
                  float(np.max(np.abs(traj.y[-1]))),
                  float(np.max(np.abs(traj.z[-1]))))
        worst_end = max(worst_end, end)
        worst_step = max(worst_step, float(np.diff(lyapunov_value(sub, traj.y, spec)).max()))
    _report(4, worst_end <= 1e-4 and worst_step <= 1e-9,
            f"R0 = 0.9 rescale: 10 trajectories end within {worst_end:.2e} of (1,0,0) "
            f"and the Lyapunov trace never rises by more than {worst_step:.2e} (<= 1e-9)")


def test_acceptance_05_endemic_decay_rate_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_excess = -np.inf
    for i in range(50):
        n = 2 + i % 5
        m = helpers.random_supercritical(rng, n, float(rng.uniform(1.5, 5.0)))
        eq = solve_endemic(m)
        assert isinstance(eq, EndemicEquilibrium)
        eta = eta_bound(m, eq.y_star)
        abscissa = spectral_abscissa(jacobian_endemic(m, eq.y_star))
        worst_excess = max(worst_excess, abscissa - (-eta + 1e-6))
    elapsed = time.perf_counter() - start
    _report(5, worst_excess <= 0.0 and elapsed < 60.0,
            f"50 random supercritical models: spectral abscissa <= -eta + 1e-6 "
            f"with worst slack {-worst_excess:.2e} ({elapsed:.1f}s < 60s)")


def test_acceptance_06_schur_determinant_identity():
    models = _model_roster() + [
        helpers.random_supercritical(np.random.default_rng(6), 2 + k % 5, 2.0)
        for k in range(2)
    ]
    rng = np.random.default_rng(66)
    worst = 0.0
    for m in models[:10]:
        eq = solve_endemic(m)
        J = jacobian_endemic(m, eq.y_star).astype(complex)
        n = m.n
        eye = np.eye(2 * n)
        for _ in range(50):
            lam = complex(rng.uniform(-0.9 * float(m.delta.min()), 2.0),
                          rng.uniform(-2.0, 2.0))
            lhs = np.linalg.det(J - lam * eye)
            rhs = ((-1.0) ** n) * np.prod(m.delta + lam) * np.linalg.det(
                oracles.schur_matrix(m, eq.y_star, lam))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    _report(6, worst <= 1e-6,
            f"determinant factorization holds to {worst:.2e} relative on "
            f"10 models x 50 shifts (<= 1e-6)")


def _absolute_inset_samples(eta: float, seed: int) -> list[complex]:
    """The shifts of default_lambda_samples drawn with the absolute inset
    1e-6 at every eta, the samples acceptance 07 was set on."""
    edge = -eta + 1e-6
    samples = [complex(edge), 0j]
    for k in range(-2, 3):
        samples += [complex(0.0, 10.0 ** k), complex(0.0, -10.0 ** k), complex(10.0 ** k)]
    rng = np.random.default_rng(seed)
    re = rng.uniform(edge, 10.0, 20)
    im = rng.uniform(-10.0, 10.0, 20)
    return samples + [complex(a, b) for a, b in zip(re, im)]


def test_acceptance_07_gershgorin_margin_floor():
    # The margin identity and the floor F(lam) it proves are derived in the
    # gershgorin_certificate docstring. F is m* = min_k m_k on Re(lam) >= 0;
    # left of the axis m* is no bound, so there only F is asserted.
    total, below_m_star, violations = 0, 0, []
    tightest = np.inf
    for m in _model_roster():
        eq = solve_endemic(m)
        y = eq.y_star
        eta = eta_bound(m, y)
        wy = m.W @ y
        mk = wy * y
        m_star = float(mk.min())
        lams = default_lambda_samples(eta)
        assert lams == _absolute_inset_samples(eta, seed=0)
        samples = gershgorin_certificate(m, y, lams)
        total += len(samples)
        for s in samples:
            identity = float((mk + s.lam.real * y
                              + m.gamma * mk * (1.0 / (m.delta + s.lam)).real).min())
            floor = float((y * (wy + min(s.lam.real, 0.0))).min())
            tightest = min(tightest, s.min_margin - floor)
            if s.lam.real < 0.0 and s.min_margin < m_star - 1e-9:
                below_m_star += 1
            if (not s.all_disks_left
                    or s.min_margin < floor - 1e-9
                    or (s.lam.real >= 0.0 and s.min_margin < m_star - 1e-9)
                    or abs(s.min_margin - identity) > 1e-9):
                violations.append((m.name or f"n={m.n}", s.lam, s.min_margin,
                                   floor, identity))
    if violations:
        name, lam, margin, floor, identity = violations[0]
        detail = (f"{len(violations)}/{total} samples break the disk-margin floor "
                  f"or the margin identity; first: {name} at lam = {lam:.6g}, "
                  f"margin {margin:.6e}, F(lam) {floor:.6e}, identity {identity:.6e}")
    else:
        detail = (f"all {total} sampled shifts keep every disk left of the axis "
                  f"with margin >= F(lam) - 1e-9 (smallest margin - F {tightest:.2e}), "
                  f">= m* - 1e-9 on Re(lam) >= 0, and match the margin identity "
                  f"within 1e-9; {below_m_star} samples with Re(lam) < 0 fall "
                  f"below m*")
    _report(7, not violations, detail)


def test_acceptance_08_monotonicity_suite():
    rng = np.random.default_rng(8)
    violations = 0
    for i in range(200):
        n = int(rng.integers(2, 6))
        alpha = rng.uniform(0.1, 10.0, size=n)
        M = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
        y = rng.uniform(0.0, 1.0, size=n) / (1.0 + alpha)
        kind = i % 3
        if kind == 0:
            bump = rng.uniform(0.0, 0.5, size=n)
            hi = phi(y + bump, M, alpha)
            lo = phi(y, M, alpha)
        elif kind == 1:
            bump = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.5)
            hi = phi(y, M + bump, alpha)
            lo = phi(y, M, alpha)
        else:
            bump = rng.uniform(0.1, 2.0, size=n)
            hi = phi(y, M, alpha)
            lo = phi(y, M, alpha + bump)
        if np.any(lo > hi + 1e-12):
            violations += 1
    scale_models = [helpers.out_regular()] + [
        helpers.random_supercritical(np.random.default_rng(88 + k), 2 + k, 1.5)
        for k in range(3)
    ]
    for m in scale_models:
        base = solve_endemic(m).y_star
        for s in (1.1, 1.5, 2.0):
            up = solve_endemic(validate_model(s * m.W, m.gamma, m.delta)).y_star
            if np.any(up < base - 1e-12):
                violations += 1
            down = solve_endemic(validate_model(m.W, m.gamma, m.delta / s)).y_star
            if np.any(down > base + 1e-12):
                violations += 1
    _report(8, violations == 0,
            f"200 map monotonicity checks plus 24 equilibrium scaling checks, "
            f"{violations} violations beyond 1e-12")


def test_acceptance_09_stationarity_residuals():
    worst = 0.0
    for m in _model_roster():
        eq = solve_endemic(m)
        worst = max(worst, oracles.residual(m, eq.y_star, eq.z_star))
    _report(9, worst <= 1e-10,
            f"vector field at every solved equilibrium has sup norm {worst:.2e} (<= 1e-10)")


def test_acceptance_10_rank_one_global_lyapunov():
    model, b = helpers.rank_one_model(np.random.default_rng(7), 4, r0_target=3.0)
    eq = solve_endemic(model)
    cfg = IntegratorConfig(dt=0.01, t_end=500.0, record_every=10)
    worst_step, worst_final = -np.inf, 0.0
    for y0, z0 in sample_initial_states(4, 10, np.random.default_rng(11)):
        traj = simulate(model, y0, z0, cfg)
        values = rank_one_lyapunov(model, b, traj.y, traj.z, eq)
        worst_step = max(worst_step, float(np.diff(values).max()))
        worst_final = max(worst_final, float(values[-1]))
    _report(10, worst_step <= 1e-9 and worst_final < 1e-8,
            f"rank-one Lyapunov value never rises by more than {worst_step:.2e} "
            f"(<= 1e-9) and ends at {worst_final:.2e} (< 1e-8) on 10 trajectories")


def test_acceptance_11_integrator_order(out_regular3):
    y0 = np.array([0.3, 0.2, 0.1])
    z0 = np.array([0.1, 0.2, 0.3])

    def end_state(dt):
        traj = simulate(out_regular3, y0, z0,
                        IntegratorConfig(dt=dt, t_end=8.0, record_every=10**9))
        return np.concatenate([traj.y[-1], traj.z[-1]])

    errs = []
    for dt in (0.2, 0.1):
        ref = end_state(dt / 8.0)
        errs.append(float(np.max(np.abs(end_state(dt) - ref))))
    ratio = errs[0] / errs[1]
    _report(11, 12.0 <= ratio <= 20.0,
            f"halving dt cuts the end-state error by {ratio:.2f} (within [12, 20])")


def test_acceptance_12_fixed_point_uniqueness():
    rng = np.random.default_rng(5)
    ok = True
    details = []
    for i in range(5):
        n = 2 + i % 2
        m = helpers.random_supercritical(rng, n, float(rng.uniform(1.5, 4.0)))
        eq = solve_endemic(m)
        roots = oracles.grid_fixed_points(m, resolution=200)
        origin = [r for r in roots if np.max(np.abs(r)) <= 1e-8]
        endemic = [r for r in roots if np.max(np.abs(r - eq.y_star)) <= 1e-8]
        good = len(roots) == 2 and len(origin) == 1 and len(endemic) == 1
        ok = ok and good
        details.append(f"n={n}:{len(roots)}")
    _report(12, ok,
            f"grid search over the cap box finds exactly the origin and y* "
            f"on 5 models ({', '.join(details)})")
