from __future__ import annotations

import functools
import math
import os
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import netsirs.cli
import netsirs.equilibrium
import oracles
from netsirs import (
    EndemicEquilibrium,
    EpsilonStarNotFoundError,
    ModelInputError,
    NoConvergenceError,
    NoEndemic,
    R0_TOL,
    iterate_phi,
    jacobian_endemic,
    load_model,
    phi,
    psi,
    reproduction_number,
    run_sweep,
    solve_endemic,
    validate_model,
)
from netsirs.equilibrium import _ray_bracket


def test_psi_hand_values():
    assert psi(np.array([1.0]), np.array([0.0]))[0] == pytest.approx(0.5)
    assert psi(np.array([0.5]), np.array([1.0]))[0] == pytest.approx(0.25)
    assert psi(np.array([0.0]), np.array([3.0]))[0] == 0.0


def test_psi_monotone_and_capped(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        alpha = rng.uniform(0.1, 10.0, size=n)
        y = rng.uniform(0.0, 5.0, size=n)
        bump = rng.uniform(0.0, 1.0, size=n)
        assert np.all(psi(y + bump, alpha) >= psi(y, alpha) - 1e-15)
        assert np.all(psi(y, alpha + bump) <= psi(y, alpha) + 1e-15)
        assert np.all(psi(y, alpha) < 1.0 / (1.0 + alpha))


def test_phi_fixed_point_on_uniform_network(out_regular3):
    y = np.full(3, 0.25)
    assert np.allclose(phi(y, out_regular3.M, out_regular3.alpha), y, atol=1e-15)


@pytest.mark.parametrize("n", [1, 5, 40])
def test_phi_on_a_block_equals_phi_row_by_row(n):
    """phi on a (3, n) block, as solve_endemic applies it to its bracket
    rows, equals phi on each row and psi(M @ y), bit for bit."""
    rng = np.random.default_rng(n)
    m = helpers.random_supercritical(rng, n, r0_target=2.0)
    block = rng.uniform(0.0, 1.0, size=(3, n)) * m.ybar
    rows = phi(block, m.M, m.alpha)
    assert rows.shape == (3, n)
    for row, y in zip(rows, block):
        assert np.array_equal(row, phi(y, m.M, m.alpha))
        assert np.array_equal(row, psi(m.M @ y, m.alpha))


def test_phi_bounded_by_linearization(rng):
    # phi(y) <= M y with strict inequality wherever the pressure is positive
    for _ in range(30):
        n = int(rng.integers(2, 6))
        m = helpers.random_supercritical(rng, n, r0_target=2.0)
        y = rng.uniform(0.0, 1.0, size=n) * m.ybar
        My = m.M @ y
        val = phi(y, m.M, m.alpha)
        assert np.all(val <= My + 1e-15)
        assert np.all(val[My > 0] < My[My > 0])


def test_iterate_phi_subcritical_goes_to_zero():
    M = np.array([[0.0, 0.5], [0.5, 0.0]])
    alpha = np.array([1.0, 1.0])
    limit, _ = iterate_phi(np.array([0.3, 0.4]), M, alpha, tol=1e-14)
    assert np.max(np.abs(limit)) <= 1e-12
    assert np.max(np.abs(phi(limit, M, alpha) - limit)) <= 1e-14


def test_iterate_phi_from_cap_is_monotone(ref5):
    limit, steps = iterate_phi(ref5.ybar, ref5.M, ref5.alpha)
    prev = ref5.ybar
    for _ in range(steps):
        nxt = phi(prev, ref5.M, ref5.alpha)
        assert np.all(nxt <= prev + 1e-15)
        prev = nxt
    assert np.array_equal(prev, limit)
    assert np.all(limit > 0.0)


def test_iterate_phi_keeps_no_history():
    # about 13,700 steps of 1.6 kB iterates at n = 200: a kept history passes 20 MB
    m = helpers.random_supercritical(np.random.default_rng(0), 200, 1.001)
    tracemalloc.start()
    try:
        iterate_phi(m.ybar, m.M, m.alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_iterate_phi_raises_when_budget_too_small(out_regular3, monkeypatch):
    monkeypatch.setattr(netsirs.equilibrium, "PHI_MAX_ITER", 2)
    with pytest.raises(NoConvergenceError):
        iterate_phi(out_regular3.ybar, out_regular3.M, out_regular3.alpha)


@pytest.mark.parametrize("tol", [1e-17, 1e-18])
def test_iterate_phi_stops_when_its_iterate_recurs(tol):
    """From five_node's cap the iterates reach steps of 2.8e-17 and cycle
    there, so below that the run raises as soon as an iterate recurs,
    naming the step and tol, where it used to take all PHI_MAX_ITER steps
    (about 13 s)."""
    m = load_model(FIVE_NODE)
    start = time.perf_counter()
    with pytest.raises(NoConvergenceError,
                       match=rf"stalled \S+ wide, above tol = {tol:.3e}, after \d+ steps"):
        iterate_phi(m.ybar, m.M, m.alpha, tol=tol)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("xi0", [[0.1, float("nan"), 0.1], [0.1, 0.1]], ids=["nan", "short"])
def test_iterate_phi_rejects_bad_start_before_stepping(out_regular3, monkeypatch, xi0):
    # a NaN start used to run the whole step budget and end in
    # NoConvergenceError; a short one failed inside matmul
    def no_step(*args):
        raise AssertionError("iterate_phi stepped from a bad start")

    monkeypatch.setattr(netsirs.equilibrium, "phi", no_step)
    with pytest.raises(ModelInputError):
        iterate_phi(np.array(xi0), out_regular3.M, out_regular3.alpha)


def test_lower_bracket_start_expands(ref5):
    spec = reproduction_number(ref5)[1]
    upper, lower = _ray_bracket(ref5, spec.v_right)
    assert np.all(lower > 0.0)
    assert np.all(phi(lower, ref5.M, ref5.alpha) >= lower)
    assert np.all(phi(upper, ref5.M, ref5.alpha) <= upper)
    assert np.all(lower <= upper) and np.all(upper <= ref5.ybar)


def test_solve_endemic_raises_when_phi_never_expands_the_start():
    """Along e_2 of five_node Phi shrinks every scale of the start, as
    M[1, 1] = 0.4 < 1, so the ray has no positive sub-solution."""
    model = load_model(FIVE_NODE)
    spec = reproduction_number(model)[1]
    with pytest.raises(EpsilonStarNotFoundError, match="no positive scale made Phi expand"):
        solve_endemic(model, spectral=replace(spec, v_right=np.eye(5)[1]))


def test_solve_endemic_uniform_closed_form(out_regular3):
    eq = solve_endemic(out_regular3)
    assert isinstance(eq, EndemicEquilibrium)
    assert np.allclose(eq.y_star, 0.25, atol=1e-10)
    assert np.allclose(eq.z_star, 0.25, atol=1e-10)
    assert np.allclose(eq.x_star, 0.5, atol=1e-10)
    assert eq.bracket_gap <= 1e-12
    assert eq.residual <= 1e-11


def test_solve_endemic_respects_simplex(ref5):
    eq = solve_endemic(ref5)
    assert np.all(eq.y_star > 0.0)
    assert np.all(eq.y_star < ref5.ybar)
    assert np.allclose(eq.y_star + eq.z_star + eq.x_star, 1.0, atol=1e-14)
    assert np.allclose(eq.z_star, ref5.alpha * eq.y_star, atol=1e-14)
    # same limit as plain downward iteration
    limit, _ = iterate_phi(ref5.ybar, ref5.M, ref5.alpha)
    assert np.max(np.abs(limit - eq.y_star)) <= 1e-10


def test_solve_endemic_bracket_sequences_stay_ordered(ref5):
    spec = reproduction_number(ref5)[1]
    upper, lower = _ray_bracket(ref5, spec.v_right)
    for _ in range(200):
        up_next = phi(upper, ref5.M, ref5.alpha)
        lo_next = phi(lower, ref5.M, ref5.alpha)
        assert np.all(up_next <= upper + 1e-15)
        assert np.all(lo_next >= lower - 1e-15)
        assert np.all(lo_next <= up_next + 1e-15)
        upper, lower = up_next, lo_next


def test_solve_endemic_subcritical_returns_marker(rng):
    m = helpers.random_supercritical(rng, 3, r0_target=0.9)
    res = solve_endemic(m)
    assert isinstance(res, NoEndemic)
    assert res.r0 == pytest.approx(0.9, abs=1e-8)
    assert not res.near_threshold


def test_solve_endemic_flags_threshold(rng):
    m = helpers.random_supercritical(rng, 3, r0_target=1.0)
    res = solve_endemic(m)
    assert isinstance(res, NoEndemic)
    assert res.near_threshold


def test_solve_endemic_barely_supercritical(rng):
    m = helpers.random_supercritical(rng, 3, r0_target=1.001)
    eq = solve_endemic(m)
    assert isinstance(eq, EndemicEquilibrium)
    assert np.all(eq.y_star > 0.0)
    assert eq.residual <= 1e-11


def test_out_regular_closed_form_variants():
    m = helpers.out_regular(n=4, row_sum=2.0, gamma=1.0, delta=3.0)
    ys = helpers.out_regular_y_star(row_sum=2.0, gamma=1.0, delta=3.0)
    assert ys == pytest.approx(0.375)
    eq = solve_endemic(m)
    assert np.max(np.abs(eq.y_star - ys)) <= 1e-10


def test_monotone_response_to_contact_scaling(rng):
    m = helpers.random_supercritical(rng, 4, r0_target=2.0)
    base = solve_endemic(m)
    scaled = validate_model(1.5 * m.W, m.gamma, m.delta)
    more = solve_endemic(scaled)
    assert np.all(more.y_star >= base.y_star - 1e-12)


def _y_star(W: np.ndarray, gamma: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """y* of (W, gamma, delta), or zeros when only the origin is stationary."""
    solved = solve_endemic(validate_model(W, gamma, delta))
    return solved.y_star if isinstance(solved, EndemicEquilibrium) else np.zeros(len(gamma))


@settings(deadline=None)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(1.05, 6.0))
def test_y_star_monotone_in_contacts_recovery_and_immunity_loss(n, seed, r0):
    """y* is nondecreasing in W and delta and nonincreasing in gamma."""
    rng = np.random.default_rng(seed)
    m = helpers.random_supercritical(rng, n, r0)
    base = _y_star(m.W, m.gamma, m.delta)
    more_contact = _y_star(m.W * rng.uniform(1.0, 2.0, (n, n)), m.gamma, m.delta)
    faster_recovery = _y_star(m.W, m.gamma * rng.uniform(1.0, 2.0, n), m.delta)
    faster_loss = _y_star(m.W, m.gamma, m.delta * rng.uniform(1.0, 2.0, n))
    assert np.all(more_contact >= base - 1e-12)
    assert np.all(faster_recovery <= base + 1e-12)
    assert np.all(faster_loss >= base - 1e-12)


FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")
TOL = 1e-12


def _timed_solve(model):
    start = time.perf_counter()
    solved = solve_endemic(model, tol=TOL)
    elapsed = time.perf_counter() - start
    assert isinstance(solved, EndemicEquilibrium)
    assert elapsed < 1.0
    assert np.all(solved.y_star > 0.0)
    assert solved.bracket_gap <= TOL
    return solved


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 2e-9])
def test_solve_endemic_near_threshold_closed_form(eps):
    # R0 = 1 + eps on a uniform network, where y* = eps / (2 (1 + eps));
    # the Phi bracket alone contracts at a rate that tends to 1 with eps
    solved = _timed_solve(helpers.out_regular(n=3, row_sum=1.0 + eps, gamma=1.0, delta=1.0))
    assert np.max(np.abs(solved.y_star - eps / (2.0 * (1.0 + eps)))) <= TOL


def _five_node_at(r0_target):
    model = load_model(FIVE_NODE)
    r0, _ = reproduction_number(model)
    return validate_model(model.W * (r0_target / r0), model.gamma, model.delta)


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_solve_endemic_near_threshold_matches_mpmath(eps):
    model = _five_node_at(1.0 + eps)
    solved = _timed_solve(model)
    assert np.max(np.abs(solved.y_star - oracles.endemic_mpmath(model))) <= TOL
    assert np.max(solved.y_star) < eps


# models near threshold, each closed in at most 10 Newton-Fourier solves
# from the ray rows; a bracket that starts at the cap and halves its way
# down took 31, 23, 16 and 22
_NEAR = {
    "five_node at 1 + 2e-9": lambda: _five_node_at(1.0 + 2e-9),
    "five_node at 1 + 1e-6": lambda: _five_node_at(1.0 + 1e-6),
    "five_node at 1 + 1e-4": lambda: _five_node_at(1.0 + 1e-4),
    "random n 200 at 1 + 1e-6": lambda: helpers.random_supercritical(
        np.random.default_rng(5), 200, 1.0 + 1e-6),
}


@pytest.mark.parametrize("case", sorted(_NEAR))
def test_solve_endemic_near_threshold_takes_few_dense_solves(monkeypatch, case):
    model = _NEAR[case]()
    step = netsirs.equilibrium._newton_fourier
    calls = []
    monkeypatch.setattr(netsirs.equilibrium, "_newton_fourier",
                        lambda *args: calls.append(1) or step(*args))
    solved = solve_endemic(model, tol=TOL)
    assert isinstance(solved, EndemicEquilibrium)
    assert solved.bracket_gap <= TOL
    assert 0 < len(calls) <= 10


# near-threshold draws of random_supercritical(default_rng(seed), n, R0)
# that took 48 and 158 iterations while a Phi step followed every
# Newton-Fourier step that the switch rule priced as slow
_ONE_WAY = {"seed 4 n 27 at 1.055": (4, 27, 1.055), "seed 6 n 181 at 1.035": (6, 181, 1.035)}


@pytest.mark.parametrize("case", sorted(_ONE_WAY))
def test_solve_endemic_takes_newton_fourier_steps_to_the_end_once_it_starts(monkeypatch, case):
    """Phi's rate near y* is rho(Phi'(y*)), a property of the model, so
    once it is slow every later iteration is a Newton-Fourier step."""
    seed, n, r0 = _ONE_WAY[case]
    model = helpers.random_supercritical(np.random.default_rng(seed), n, r0)
    rule, step = netsirs.equilibrium.stop_rule, netsirs.equilibrium._newton_fourier
    counts, calls = [], []

    def counting_rule(*args):
        closed = rule(*args)
        return lambda count, *rest: counts.append(count) or closed(count, *rest)

    monkeypatch.setattr(netsirs.equilibrium, "stop_rule", counting_rule)
    monkeypatch.setattr(netsirs.equilibrium, "_newton_fourier",
                        lambda *args: calls.append(counts[-1]) or step(*args))
    solved = solve_endemic(model)
    assert isinstance(solved, EndemicEquilibrium)
    assert calls and calls == list(range(calls[0], solved.iterations))
    assert solved.iterations <= 12
    if n <= 40:  # the 60-digit root of n = 181 would take minutes
        ref = oracles.endemic_mpmath(model, dps=60)
        assert np.max(np.abs(solved.y_star - ref)) <= solved.bracket_gap


def _assert_ray_rows_certified(model):
    """The ray rows are ordered inside the cap, pass their checks without
    rounding slack, and hold the solved y*. Where the upper row is capped,
    Phi of it, and so y*, may round to an ulp above the cap."""
    _, spectral = reproduction_number(model)
    upper, lower = _ray_bracket(model, spectral.v_right)
    assert np.all(0.0 < lower) and np.all(lower <= upper) and np.all(upper <= model.ybar)
    assert np.all(phi(lower, model.M, model.alpha) >= lower)
    ceiling = np.where(upper == model.ybar, np.nextafter(upper, 2.0), upper)
    assert np.all(phi(upper, model.M, model.alpha) <= ceiling)
    solved = solve_endemic(model, tol=TOL, spectral=spectral)
    assert np.all(lower <= solved.y_star) and np.all(solved.y_star <= ceiling)


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(-8.0, math.log10(7.0), exclude_min=True))
def test_ray_rows_are_certified(n, seed, log_excess):
    """Strongly connected models with R0 in (1 + 1e-8, 8]."""
    _assert_ray_rows_certified(helpers.random_supercritical(
        np.random.default_rng(seed), n, 1.0 + 10.0**log_excess))


@pytest.mark.parametrize("d", [2, 4, 6, 10])
def test_ray_rows_are_certified_on_the_log_uniform_family(d):
    """Every supercritical draw at d, with rates spanning up to 10^+-10."""
    models = [validate_model(*draw) for draw in helpers.log_uniform_family(d)]
    above = [m for m in models if reproduction_number(m)[0] - 1.0 > R0_TOL]
    assert above
    for model in above:
        _assert_ray_rows_certified(model)


# draw 17 of the log-uniform family at d = 10: n = 2, R0 = 1.0006 and
# y*_1 = 8.4e-13, far below tol. A Newton-Fourier candidate pushed out
# by tol / (4 max w) left the bracket on that component, and a loop that
# threw it away closed only at Phi's linear rate, in 14,496 iterations.
def test_newton_fourier_closes_draw_17_in_few_iterations():
    model = validate_model(*helpers.log_uniform_family(10)[17])
    solved = solve_endemic(model)
    assert isinstance(solved, EndemicEquilibrium)
    assert solved.iterations <= 50


def test_newton_fourier_draw_17_matches_mpmath():
    """Closing on the componentwise defect in Newton-Fourier steps leaves
    y* within 1e-11 relative of the 60-digit root (1.6e-9 at Phi's rate)."""
    model = validate_model(*helpers.log_uniform_family(10)[17])
    solved = solve_endemic(model)
    assert np.max(np.abs(solved.y_star / oracles.endemic_mpmath(model, dps=60) - 1.0)) <= 1e-11


def test_newton_fourier_closes_the_log_uniform_family_in_few_iterations():
    """Every supercritical draw at d = 2, 4, 6 and 10 together takes fewer
    than 1,200 iterations: 1,107 with Newton-Fourier steps to the end once
    Phi is slow, 1,525 while a Phi step followed each one the switch rule
    priced as slow, and 16,016 while candidates outside the old bracket
    were thrown away."""
    total = 0
    for d in (2, 4, 6, 10):
        for draw in helpers.log_uniform_family(d):
            solved = solve_endemic(validate_model(*draw))
            if isinstance(solved, EndemicEquilibrium):
                total += solved.iterations
    assert total < 1_200


def test_solve_endemic_raises_when_the_upper_row_fails_its_check(monkeypatch, capsys):
    """A start that fails its check raises, with no fallback, and the CLI
    exits 2 with the one error line."""
    step = netsirs.equilibrium.phi

    def upper_fails(y, M, alpha):
        image = step(y, M, alpha)
        if np.ndim(y) == 2:
            image[0] = 2.0 * y[0]
        return image

    monkeypatch.setattr(netsirs.equilibrium, "phi", upper_fails)
    with pytest.raises(EpsilonStarNotFoundError, match="no positive scale made Phi expand"):
        solve_endemic(load_model(FIVE_NODE))
    assert netsirs.cli.main(["equilibrium", "--model", FIVE_NODE]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: EpsilonStarNotFoundError: "
                            "no positive scale made Phi expand the start vector\n")


@pytest.mark.parametrize("excess", [sign * e for e in (1e-11, 1e-10, 1e-9, 1e-8, 1e-7)
                                    for sign in (1.0, -1.0)])
def test_solve_endemic_decides_threshold_on_one_difference(excess):
    """NoEndemic comes exactly when the computed r0 - 1 is at most R0_TOL
    and is flagged near threshold exactly when |r0 - 1| is, so a NoEndemic
    with r0 > 1 always carries the flag. five_node at R0 = 1 + 1e-9 has
    r0 == 1.0 + R0_TOL as floats, though r0 - 1 > R0_TOL."""
    model = _five_node_at(1.0 + excess)
    r0, _ = reproduction_number(model)
    solved = solve_endemic(model, tol=TOL)
    if isinstance(solved, NoEndemic):
        assert r0 - 1.0 <= R0_TOL
        assert solved.near_threshold == (abs(r0 - 1.0) <= R0_TOL)
        assert solved.near_threshold or r0 < 1.0
    else:
        assert r0 - 1.0 > R0_TOL
        assert np.max(np.abs(solved.y_star - oracles.endemic_mpmath(model))) <= TOL


def test_solve_endemic_closes_when_the_newton_solve_is_singular(monkeypatch):
    # _newton_fourier falls back to the Phi step when its dense solve fails,
    # so the bracket still closes, only in more iterations
    model = _five_node_at(1.01)
    _, spectral = reproduction_number(model)
    solve = np.linalg.solve
    calls = []
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
    newton = solve_endemic(model, tol=TOL, spectral=spectral)
    assert calls

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    phi_only = solve_endemic(model, tol=TOL, spectral=spectral)
    assert phi_only.iterations > newton.iterations
    assert phi_only.bracket_gap <= TOL
    assert np.max(np.abs(phi_only.y_star - newton.y_star)) <= TOL


def test_sweep_row_near_threshold_is_finite():
    # R0 = 1 + 1e-7: formerly NoConvergenceError, recorded as a NaN row
    model = load_model(FIVE_NODE)
    r0, _ = reproduction_number(model)
    scale = (1.0 + 1e-7) / r0
    rows, failures = run_sweep(model, scale, scale, 1)
    assert failures == 0
    (row,) = rows
    assert row.error is None
    assert row.r0 == pytest.approx(1.0 + 1e-7, abs=1e-12)
    assert 0.0 < row.endemic_norm < 1e-7
    assert np.isfinite(row.dfe_abscissa) and np.isfinite(row.endemic_abscissa)


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.floats(-8.0, math.log10(5.0), exclude_min=True))
def test_solve_endemic_certified_bracket(n, seed, log_excess):
    """On strongly connected models with R0 in (1 + 1e-8, 6], the bracket
    closes to tol and its midpoint is stationary within 100 tol, both in
    rate and in the fixed-point defect that jacobian_endemic checks. Where the serial Phi bracket converges
    (R0 >= 1.01) the two agree within tol, and to the last bit when every
    Phi step halved the gap, so that no Newton-Fourier step was taken."""
    model = helpers.random_supercritical(np.random.default_rng(seed), n, 1.0 + 10.0**log_excess)
    _, spectral = reproduction_number(model)
    solved = solve_endemic(model, tol=TOL, spectral=spectral)
    assert isinstance(solved, EndemicEquilibrium)
    assert solved.bracket_gap <= TOL
    assert np.all(solved.y_star > 0.0)
    assert oracles.residual(model, solved.y_star, solved.z_star) <= 100.0 * TOL
    jacobian_endemic(model, solved.y_star, tol=TOL)
    if spectral.lam >= 1.01:
        y_star, iterations, gap, halving = oracles.bracket_serial(model, spectral.v_right, TOL)
        assert np.max(np.abs(solved.y_star - y_star)) <= TOL
        if halving:
            assert np.array_equal(solved.y_star, y_star)
            assert solved.iterations == iterations
            assert solved.bracket_gap == gap


# models whose bracket stalls at tol 1e-17: at the rounding floor its rows
# cross by an ulp and the (rows, step kind) state recurs with the period
# given, first at the iteration given (numpy 2.4.6 on OpenBLAS 0.3.31)
_STALLED = {
    "ref5, period 2": (None, 2, 22),
    "seed 38 n 3, period 3": ((38, 3), 3, 19),
    "seed 53 n 6, period 4": ((53, 6), 4, 13),
}
# Which inputs reach the rounding floor, and how, depends on the last bits
# of BLAS and LAPACK, which differ between OpenBLAS kernels. A test of the
# floor on these candidates takes the first that shows its behaviour under
# the running kernel, and fails when none does.
_CANDIDATES = 64


@functools.cache
def _floor_run(seed: int, n: int, tol: float):
    """Candidate seed of size n, random_supercritical(default_rng(seed), n,
    2.0), solved at tol with PHI_MAX_ITER at 1,000: the model, the error
    message or None, and at each stop test the (rows, step kind) state
    and the count of dense solves before it."""
    model = helpers.random_supercritical(np.random.default_rng(seed), n, 2.0)
    _, spectral = reproduction_number(model)
    states, solves, calls = [], [], []
    rule, solve = netsirs.equilibrium.stop_rule, np.linalg.solve

    def recording(*args):
        closed = rule(*args)

        def record(count, width, state, name):
            states.append(state)
            solves.append(len(calls))
            return closed(count, width, state, name)
        return record

    error = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netsirs.equilibrium, "PHI_MAX_ITER", 1000)
        patch.setattr(netsirs.equilibrium, "stop_rule", recording)
        patch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or solve(a, b))
        try:
            solve_endemic(model, tol=tol, spectral=spectral)
        except NoConvergenceError as exc:
            error = str(exc)
    return model, error, states, solves


def _first_candidate(n: int, tol: float, shows, what: str):
    """The first _floor_run of size n at tol for which shows(error, states)
    holds; the test fails when no candidate does."""
    for seed in range(_CANDIDATES):
        run = _floor_run(seed, n, tol)
        if shows(run[1], run[2]):
            return run
    pytest.fail(f"no candidate of n = {n} at tol = {tol:g} {what}")


def _stalls(error, states) -> bool:
    return error is not None and "stalled" in error


def _cycle(states) -> tuple[int, int]:
    """(first, period) of the cycle the loop stopped on: the last state
    equals the one period iterations before it, and first is the earliest
    iteration whose state recurs period iterations later."""
    last = len(states) - 1
    period = last - max(k for k in range(last) if states[k] == states[last])
    return next(k for k in range(last) if states[k] == states[k + period]), period


@pytest.mark.parametrize("case", sorted(_STALLED) + ["first stall of n 3", "first stall of n 6"])
def test_solve_endemic_stops_when_the_bracket_state_recurs(monkeypatch, case):
    """A recurring state repeats forever, so the loop raises at once,
    naming the width and tol, well before the cap (set to 1,000 here so
    that a loop that runs to it fails fast with another message). A
    "first stall" case takes the first candidate of its size that stalls
    under the running kernel, with first and period read from its states."""
    if case in _STALLED:
        draw, period, first = _STALLED[case]
        model = helpers.ref5() if draw is None else helpers.random_supercritical(
            np.random.default_rng(draw[0]), draw[1], 2.0)
    else:
        model, _, states, _ = _first_candidate(int(case.split()[-1]), 1e-17, _stalls, "stalls")
        first, period = _cycle(states)
    monkeypatch.setattr(netsirs.equilibrium, "PHI_MAX_ITER", 1000)
    with pytest.raises(NoConvergenceError,
                       match=r"bracket stalled \S+ wide, above tol = 1\.000e-17, "
                             r"after \d+ iterations") as err:
        solve_endemic(model, tol=1e-17)
    iterations = int(str(err.value).split("after ")[1].split()[0])
    # Brent's check finds the cycle by iteration 2 max(first, period) + period
    assert first + period <= iterations <= 2 * max(first, period) + period


@pytest.mark.parametrize("tol", [1e-16, 1e-17])
def test_rows_that_meet_above_tol_can_still_close(monkeypatch, tol):
    """On the log-uniform family at d = 6, draw 7 (n = 4), the bracket rows
    become equal at iteration 5 while the defect of their midpoint,
    1.81e-16, is still above tol; the next Phi step brings the defect to 0
    and the solve closes at iteration 6. A stop where the rows meet above
    tol would turn this success into NoConvergenceError."""
    seen = {}
    rule = netsirs.equilibrium.stop_rule

    def recording(*args):
        closed = rule(*args)

        def record(count, width, state, name):
            Y = np.frombuffer(state[0]).reshape(2, -1)
            seen[count] = (float(np.max(np.abs(Y[0] - Y[1]))), width)
            return closed(count, width, state, name)
        return record

    monkeypatch.setattr(netsirs.equilibrium, "stop_rule", recording)
    model = validate_model(*helpers.log_uniform_family(6)[7])
    assert model.n == 4
    solved = solve_endemic(model, tol=tol)
    gap, defect = seen[5]
    assert gap == 0.0 and defect > tol
    assert solved.iterations == 6
    assert solved.bracket_gap == 0.0
    assert solved.residual <= tol


def _equal(state) -> bool:
    upper, lower = np.frombuffer(state[0]).reshape(2, -1)
    return np.array_equal(upper, lower)


def _rows_meet_in_newton_steps(error, states) -> bool:
    """The rows become equal bit for bit, in Newton-Fourier steps, at a stop
    test that steps on (its defect is above tol), and the loop stalls."""
    return _stalls(error, states) and any(state[1] and _equal(state) for state in states[:-1])


def _rows_meet():
    # seed 6 under the SkylakeX kernel, 47 under Haswell and Zen, 39 under Sandybridge
    return _first_candidate(6, 1e-16, _rows_meet_in_newton_steps,
                            "meets its rows in Newton-Fourier steps and stalls")


def test_cli_equilibrium_exits_two_when_the_rows_meet_above_tol(tmp_path, capsys):
    """The first candidate of n = 6 whose bracket rows become equal at tol
    1e-16 while the defect of their midpoint is still above tol. A gap
    ratio with a zero denominator counts as 0, and the loop, in
    Newton-Fourier steps, steps on to its rounding floor and stalls, so
    the CLI exits 2 with one error line."""
    model = _rows_meet()[0]
    with pytest.raises(NoConvergenceError, match="equilibrium bracket stalled"):
        solve_endemic(model, tol=1e-16)
    path = tmp_path / "model.json"
    helpers.save_model(model, path)
    assert netsirs.cli.main(["equilibrium", "--model", str(path), "--tol", "1e-16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NoConvergenceError: equilibrium bracket stalled ")
    assert err.count("\n") == 1


def test_equal_rows_take_a_phi_step_not_a_dense_solve():
    """On the same candidate the rows, once equal bit for bit with the
    defect above tol, take only Phi steps: no dense solve follows, and the
    loop stalls as before. On seed 6 under the SkylakeX kernel that is 8
    dense solves, where one per Newton-Fourier step took 14."""
    _, error, states, solves = _rows_meet()
    assert re.fullmatch(r"equilibrium bracket stalled \S+ wide, above tol = 1\.000e-16, "
                        r"after \d+ iterations: .*", error)
    meet = next(k for k, state in enumerate(states) if state[1] and _equal(state))
    assert 0 < solves[meet] == solves[-1]
