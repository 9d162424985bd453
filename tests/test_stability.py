from __future__ import annotations

import functools
import json
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import helpers
import netsirs.cli
import netsirs.spectral
import netsirs.stability
import oracles
from netsirs import (
    INCONCLUSIVE,
    DfeAbscissa,
    EigenFailureError,
    GershgorinSample,
    IntegratorConfig,
    InvalidAtBoundaryError,
    ModelInputError,
    NoConvergenceError,
    NonPositiveEquilibriumError,
    NotEquilibriumError,
    SingularShiftError,
    STABLE,
    default_lambda_samples,
    dfe_abscissa,
    endemic_certificate,
    eta_bound,
    gershgorin_certificate,
    jacobian_dfe,
    jacobian_endemic,
    load_model,
    lyapunov_derivative,
    lyapunov_value,
    rank_one_lyapunov,
    reproduction_number,
    rhs,
    simulate,
    solve_endemic,
    spectral_abscissa,
    validate_model,
)


def test_jacobian_dfe_single_node():
    m = validate_model([[2.0]], [1.0], [1.0])
    J = jacobian_dfe(m)
    assert np.allclose(J, [[1.0, 0.0], [1.0, -1.0]])


@pytest.mark.parametrize("n", [1, 4, 30])
def test_jacobian_dfe_equals_its_blocks(n):
    """jacobian_endemic at y* = 0 gives the block lower-triangular
    [[W - [gamma], 0], [[gamma], -[delta]]] exactly, up to the sign of the
    zeros of its upper right block -[W y]."""
    m = helpers.random_supercritical(np.random.default_rng(n), n, 2.0)
    J = jacobian_dfe(m)
    blocks = np.block([[m.W - np.diag(m.gamma), np.zeros((n, n))],
                       [np.diag(m.gamma), -np.diag(m.delta)]])
    assert np.array_equal(J, blocks)
    assert np.all(np.signbit(J[:n, n:]))
    assert spectral_abscissa(J) == spectral_abscissa(blocks)


def test_jacobian_dfe_matches_finite_differences(ref5):
    J = jacobian_dfe(ref5)

    def f(u):
        ydot, zdot = rhs(ref5, u[:5], u[5:])
        return np.concatenate([ydot, zdot])

    J_fd = oracles.finite_diff_jacobian(f, np.zeros(10))
    assert np.max(np.abs(J - J_fd)) <= 1e-5


def test_jacobian_endemic_uniform_hand_assembly(out_regular3):
    eq = solve_endemic(out_regular3)
    J = jacobian_endemic(out_regular3, eq.y_star)
    # x* = 1/2, W y* = 1/2, gamma = delta = 1 gives the blocks
    # [ W/2 - 3I/2   -I/2 ]
    # [ I            -I   ]
    expected = np.zeros((6, 6))
    expected[:3, :3] = 0.5 * out_regular3.W - 1.5 * np.eye(3)
    expected[:3, 3:] = -0.5 * np.eye(3)
    expected[3:, :3] = np.eye(3)
    expected[3:, 3:] = -np.eye(3)
    assert np.max(np.abs(J - expected)) <= 1e-9


def test_jacobian_endemic_matches_finite_differences(rng):
    m = helpers.random_supercritical(rng, 4, r0_target=2.5)
    eq = solve_endemic(m)
    J = jacobian_endemic(m, eq.y_star)

    def f(u):
        ydot, zdot = rhs(m, u[:4], u[4:])
        return np.concatenate([ydot, zdot])

    J_fd = oracles.finite_diff_jacobian(f, np.concatenate([eq.y_star, eq.z_star]))
    assert np.max(np.abs(J - J_fd)) <= 1e-5


def test_jacobian_endemic_rejects_non_stationary_point(ref5):
    eq = solve_endemic(ref5)
    with pytest.raises(NotEquilibriumError):
        jacobian_endemic(ref5, eq.y_star + 0.01)


def test_a_nan_profile_is_not_an_equilibrium(ref5):
    """A NaN entry fails the componentwise defect test, so the certificate
    names the profile instead of reaching the eigensolver with a NaN
    Jacobian."""
    y = solve_endemic(ref5).y_star.copy()
    y[2] = np.nan
    with pytest.raises(NotEquilibriumError, match="fixed-point defect nan exceeds 1.000e-10"):
        jacobian_endemic(ref5, y)
    with pytest.raises(NotEquilibriumError):
        endemic_certificate(ref5, y)


def test_the_defect_test_is_componentwise():
    """Draw 0 of the log-uniform family at d = 10 has a y* component near
    3e-18. The solved point passes at 100 tol; that component moved by
    1e-6 of itself, a change far below 100 tol in absolute terms, fails."""
    model = validate_model(*helpers.log_uniform_family(10)[0])
    eq = solve_endemic(model)
    jacobian_endemic(model, eq.y_star)
    y = eq.y_star.copy()
    k = int(np.argmin(y))
    assert y[k] < 1e-17
    y[k] *= 1.0 + 1e-6
    with pytest.raises(NotEquilibriumError):
        jacobian_endemic(model, y)


def test_the_jacobian_and_certificate_take_y_star_alone(ref5):
    """A stationary point is its profile y*: the certificate's abscissa is
    the one of jacobian_endemic at y*, bit for bit, the DFE Jacobian is
    jacobian_endemic at y* = 0, and tol and seed are keyword-only, so a
    stale (model, y, z) call raises TypeError."""
    eq = solve_endemic(ref5)
    cert = endemic_certificate(ref5, eq.y_star)
    assert cert.verdict == STABLE
    assert cert.spectral_abscissa == spectral_abscissa(jacobian_endemic(ref5, eq.y_star))
    assert np.array_equal(jacobian_dfe(ref5), jacobian_endemic(ref5, np.zeros(ref5.n)))
    with pytest.raises(TypeError):
        jacobian_endemic(ref5, eq.y_star, eq.z_star)
    with pytest.raises(TypeError):
        endemic_certificate(ref5, eq.y_star, eq.z_star)


def test_eta_bound(out_regular3):
    eq = solve_endemic(out_regular3)
    # W y* = 1/2 below delta = 1
    assert eta_bound(out_regular3, eq.y_star) == pytest.approx(0.5)
    with pytest.raises(NonPositiveEquilibriumError):
        eta_bound(out_regular3, np.array([0.2, 0.0, 0.2]))


def test_schur_matrix_uniform_hand_values(out_regular3):
    eq = solve_endemic(out_regular3)
    S = oracles.schur_matrix(out_regular3, eq.y_star, 0.0)
    # S(0) = W/2 - 2I: off-diagonal 1/3, diagonal 1/3 - 2
    expected = 0.5 * out_regular3.W - 2.0 * np.eye(3)
    assert np.max(np.abs(S - expected)) <= 1e-9


def test_schur_matrix_pole_rejected(out_regular3):
    eq = solve_endemic(out_regular3)
    with pytest.raises(SingularShiftError):
        oracles.schur_matrix(out_regular3, eq.y_star, -1.0)


def test_schur_determinant_identity(ref5):
    """det(J - lam I) factors as (-1)^n prod(delta_i + lam) det S(lam)."""
    eq = solve_endemic(ref5)
    J = jacobian_endemic(ref5, eq.y_star).astype(complex)
    rng = np.random.default_rng(42)
    for _ in range(20):
        lam = complex(rng.uniform(-0.2, 2.0), rng.uniform(-2.0, 2.0))
        lhs = np.linalg.det(J - lam * np.eye(10))
        rhs_ = ((-1.0) ** 5) * np.prod(ref5.delta + lam) * np.linalg.det(
            oracles.schur_matrix(ref5, eq.y_star, lam)
        )
        assert abs(lhs - rhs_) <= 1e-8 * max(abs(lhs), 1.0)


def test_gershgorin_uniform_margin(out_regular3):
    eq = solve_endemic(out_regular3)
    samples = gershgorin_certificate(out_regular3, eq.y_star, [0j])
    # H(0) = S(0)/4: diagonal -5/12, row radius 2/12, margin 3/12
    assert samples[0].min_margin == pytest.approx(0.25, abs=1e-9)
    assert samples[0].all_disks_left


def test_gershgorin_diagonal_decomposition(ref5):
    """At equilibrium H_kk + R_k collapses to -m_k - g_k(lam) with
    m_k = (W y*)_k y*_k and g_k(lam) = lam y*_k + gamma_k m_k / (delta_k + lam).
    """
    eq = solve_endemic(ref5)
    y, x = eq.y_star, eq.x_star
    wy = ref5.W @ y
    m = wy * y
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = complex(rng.uniform(-0.05, 3.0), rng.uniform(-5.0, 5.0))
        H = oracles.schur_matrix(ref5, y, lam) * y[None, :]
        radii = np.abs(H).sum(axis=1) - np.abs(np.diagonal(H))
        g = lam * y + ref5.gamma * m / (ref5.delta + lam)
        expected = -m - g.real
        assert np.max(np.abs(np.diagonal(H).real + radii - expected)) <= 1e-10


def test_gershgorin_margin_positive_on_half_plane(rng):
    """Every disk stays strictly left of the axis for Re(lam) > -eta,
    with margin at least (Re(lam) + eta) min(y*)."""
    for _ in range(15):
        n = int(rng.integers(2, 6))
        m = helpers.random_supercritical(rng, n, r0_target=float(rng.uniform(1.5, 5.0)))
        eq = solve_endemic(m)
        eta = eta_bound(m, eq.y_star)
        samples = default_lambda_samples(eta, seed=int(rng.integers(10_000)))
        results = gershgorin_certificate(m, eq.y_star, samples)
        floor = float(eq.y_star.min())
        for s in results:
            assert s.all_disks_left
            assert s.min_margin >= (s.lam.real + eta) * floor - 1e-12


def test_gershgorin_margin_floor_on_closed_right_half_plane(ref5):
    """For Re(lam) >= 0 the margin never drops below min_k (W y*)_k y*_k."""
    eq = solve_endemic(ref5)
    m_floor = float(((ref5.W @ eq.y_star) * eq.y_star).min())
    eta = eta_bound(ref5, eq.y_star)
    samples = [s for s in default_lambda_samples(eta, seed=0) if s.real >= 0.0]
    assert samples
    for s in gershgorin_certificate(ref5, eq.y_star, samples):
        assert s.min_margin >= m_floor - 1e-9


def test_gershgorin_rejects_sample_outside_half_plane(out_regular3):
    eq = solve_endemic(out_regular3)
    with pytest.raises(ValueError):
        gershgorin_certificate(out_regular3, eq.y_star, [complex(-0.6)])


def _gershgorin_by_schur(model, y, samples):
    """Each sample from its own schur_matrix, the certificate's reference."""
    out = []
    for lam in samples:
        lam = complex(lam)
        H = oracles.schur_matrix(model, y, lam) * y[None, :]
        off = np.abs(H)
        np.fill_diagonal(off, 0.0)
        radii = off.sum(axis=1)
        min_margin = float((-(np.diagonal(H).real + radii)).min())
        out.append(GershgorinSample(lam=lam, all_disks_left=min_margin > 0.0,
                                    min_margin=min_margin))
    return out


_FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")


@pytest.mark.parametrize("which", ["five_node", "out_regular3", "single_node"])
def test_gershgorin_equals_schur_matrix_route(which):
    """Every closed-form sample lies within rounding of the one summed from
    a full schur_matrix, near a pole too. Both routes round the same float
    inputs. With u the unit roundoff and T_k the sum of the moduli of the
    terms of -Re H_kk - R_k,

        T_k = x*_k (W y*)_k + ((W y*)_k + gamma_k + |lam|) y*_k
              + gamma_k m_k / |delta_k + lam|,

    row k of the closed form is off the exact margin by at most about
    (n + 5) u T_k (the n-term W y* and a few roundings), and of the Schur
    route by about (2n + 10) u T_k (W y* again in x*, then the n-term row
    sum R_k), so (3n + 15) u T_k bounds their difference, and the largest
    row bound that of the mins.
    """
    model = {
        "five_node": lambda: load_model(_FIVE_NODE),
        "out_regular3": helpers.out_regular,
        "single_node": lambda: validate_model([[10.0]], [1.0], [0.1]),
    }[which]()
    y = solve_endemic(model).y_star
    eta = eta_bound(model, y)
    samples = default_lambda_samples(eta, seed=3)
    # the pole nearest the half-plane is -min(delta); it sits on the edge
    # Re(lam) = -eta when eta = min(delta)
    pole = -float(model.delta.min())
    samples += [complex(max(pole, -eta) + d, im) for d in (1e-12, 1e-9, 1e-6)
                for im in (0.0, 1e-9, -3.0)]
    wy = model.W @ y
    unit = np.finfo(float).eps / 2.0
    closed = gershgorin_certificate(model, y, samples)
    for got, ref in zip(closed, _gershgorin_by_schur(model, y, samples), strict=True):
        lam = ref.lam
        # x*_k (W y*)_k = gamma_k y*_k
        terms = (model.gamma * y + (wy + model.gamma + abs(lam)) * y
                 + model.gamma * wy * y / np.abs(model.delta + lam))
        bound = float(((3 * model.n + 15) * unit * terms).max())
        assert got.lam == lam
        assert abs(got.min_margin - ref.min_margin) <= bound, (lam, got, ref, bound)
        assert ref.min_margin > bound and got.all_disks_left
    if eta == -pole:
        lam = complex(pole + 1e-15)
        with pytest.raises(SingularShiftError):
            oracles.schur_matrix(model, y, lam)
        with pytest.raises(SingularShiftError):
            gershgorin_certificate(model, y, [lam])


@pytest.mark.parametrize("order, error", [((1, 2), SingularShiftError),
                                          ((2, 1), ModelInputError)])
def test_gershgorin_raises_for_first_offending_sample(order, error):
    # eta = delta = 0.1 on one node: -0.1 + 1e-15 lies inside the
    # half-plane but on the pole, and -1 lies outside it
    model = validate_model([[10.0]], [1.0], [0.1])
    y = solve_endemic(model).y_star
    offending = {1: complex(-0.1 + 1e-15), 2: complex(-1.0)}
    with pytest.raises(error) as raised:
        gershgorin_certificate(model, y, [0j, *(offending[k] for k in order), 1j])
    assert type(raised.value) is error


def test_endemic_certificate_with_a_tiny_delta():
    # lam = 0 lies 1e-15 from the pole -delta_0 in absolute terms, but
    # 1e15 delta_0 away from it: the pole test is relative to delta_i
    model = validate_model([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], [1e-15, 0.5])
    eq = solve_endemic(model)
    cert = endemic_certificate(model, eq.y_star)
    assert 0j in [sample.lam for sample in cert.gershgorin_samples]
    assert cert.verdict == "Stable"


def test_five_node_endemic_abscissa_matches_mpmath(capsys):
    """stability reports five_node's endemic abscissa within 2e-14 of a
    60-digit eigensolve; with x* formed as 1 - y* - z* it was 5.8e-14 off."""
    assert netsirs.cli.main(["stability", "--model", _FIVE_NODE]) == 0
    abscissa = json.loads(capsys.readouterr().out)["endemic"]["abscissa"]
    model = load_model(_FIVE_NODE)
    assert abs(abscissa - oracles.endemic_abscissa_mpmath(model)) <= 2e-14


# five_node and four supercritical draws of the log-uniform family at
# d = 10: draw 0 has y*_k = 2.8e-18, draw 17 R0 = 1.0006, draw 20
# x*_1 = 1.2e-10, and draw 27 x*_k = 1.2e-16 and margins of 6.0e-25 at
# lam = +-100i
_NUDGED = ("five_node", 0, 17, 20, 27)


@functools.cache
def _certified(which):
    model = (load_model(_FIVE_NODE) if which == "five_node"
             else validate_model(*helpers.log_uniform_family(10)[which]))
    eq = solve_endemic(model)
    return model, eq.y_star, endemic_certificate(model, eq.y_star)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(_NUDGED), st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@example(17, [4, -4, 0, 0, 0, 0])
@example(0, [-4] * 6)
def test_a_few_ulps_of_y_star_move_no_verdict_and_no_margin_sign(which, ulps):
    """y* moved by up to 4 ulps per component keeps the Stable verdict and
    the sign of every sample's margin: the margins come from nonnegative
    terms, and x* = gamma y / (W y) moves by ulps too."""
    model, y_star, cert = _certified(which)
    y = y_star.copy()
    for k, steps in enumerate(ulps[:model.n]):
        for _ in range(abs(steps)):
            y[k] = np.nextafter(y[k], np.copysign(np.inf, steps))
    moved = endemic_certificate(model, y)
    assert cert.verdict == moved.verdict == STABLE
    assert ([s.min_margin > 0.0 for s in moved.gershgorin_samples]
            == [s.min_margin > 0.0 for s in cert.gershgorin_samples])


def test_default_lambda_samples_layout():
    samples = default_lambda_samples(0.5, seed=0)
    assert len(samples) == 37
    assert samples[0] == complex(-0.5 + 1e-6)
    assert 0j in samples
    assert all(s.real > -0.5 for s in samples)
    assert samples == default_lambda_samples(0.5, seed=0)
    assert samples != default_lambda_samples(0.5, seed=1)


def test_default_lambda_samples_inset_grows_with_eta():
    # eta <= 1 keeps the inset 1e-6; above it the inset is 1e-6 eta, so
    # the boundary shift stays 1e-6 eta clear of a pole at -delta_i = -eta
    for eta in (1e-3, 1.0):
        assert default_lambda_samples(eta)[0] == complex(-eta + 1e-6)
    for eta in (1e8, 1e11):
        samples = default_lambda_samples(eta)
        assert samples[0] == complex(-eta + 1e-6 * eta)
        assert min(s.real for s in samples) == samples[0].real


def test_spectral_abscissa_hand_values():
    assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    # purely rotational spectrum sits on the axis
    assert spectral_abscissa(np.array([[0.0, -1.0], [1.0, 0.0]])) == pytest.approx(0.0)


def test_endemic_certificate_reference_network(ref5):
    eq = solve_endemic(ref5)
    cert = endemic_certificate(ref5, eq.y_star)
    assert (cert.verdict, cert.reason) == (STABLE, None)
    assert cert.eta == pytest.approx(0.1)
    assert cert.spectral_abscissa < 0.0
    # decay at least eta, up to the sample offset at the boundary
    assert cert.spectral_abscissa <= -cert.eta + 1e-6
    assert len(cert.gershgorin_samples) == 37
    assert all(s.all_disks_left for s in cert.gershgorin_samples)


@pytest.mark.parametrize("abscissa", [1.0, 0.0])
def test_endemic_certificate_is_never_unstable(ref5, monkeypatch, abscissa):
    # every disk margin is at least F(lam) > 0 at an exact equilibrium, so
    # a dense abscissa that is not negative means one route failed
    eq = solve_endemic(ref5)
    monkeypatch.setattr(netsirs.stability, "spectral_abscissa", lambda A: abscissa)
    cert = endemic_certificate(ref5, eq.y_star)
    assert cert.spectral_abscissa == abscissa
    assert all(s.all_disks_left for s in cert.gershgorin_samples)
    assert (cert.verdict, cert.reason) == (INCONCLUSIVE, "dense abscissa >= 0")


@pytest.mark.parametrize("abscissa, dense", [(0.0, "dense abscissa >= 0; "), (-1.0, "")])
def test_inconclusive_report_names_each_failed_route(monkeypatch, capsys, abscissa, dense):
    # disks 3 and 4 made to fail: the stability JSON names the dense route
    # when its abscissa is not negative, and the disk route by its first
    # failed sample, in the "lambda" form of the samples it lists
    certify = netsirs.stability.gershgorin_certificate

    def failing(*args):
        samples = certify(*args)
        samples[3:5] = [replace(s, all_disks_left=False, min_margin=-1.0) for s in samples[3:5]]
        return samples

    monkeypatch.setattr(netsirs.stability, "spectral_abscissa", lambda A: abscissa)
    monkeypatch.setattr(netsirs.stability, "gershgorin_certificate", failing)
    assert netsirs.cli.main(["stability", "--model", _FIVE_NODE]) == 0
    endemic = json.loads(capsys.readouterr().out)["endemic"]
    real, imag = endemic["gershgorin"][3]["lambda"]
    assert list(endemic)[-2:] == ["verdict", "reason"]
    assert endemic["verdict"] == INCONCLUSIVE
    assert endemic["reason"] == (
        f"{dense}disk margin -1.000e+00 not positive at lambda = [{real!r}, {imag!r}]")


def test_eigensolver_failure_exits_two(monkeypatch, capsys):
    def failing(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    with pytest.raises(EigenFailureError, match="^eigensolver failed: Eigenvalues did not converge$"):
        spectral_abscissa(np.eye(2))
    assert netsirs.cli.main(["stability", "--model", _FIVE_NODE]) == 2
    assert capsys.readouterr() == (
        "", "error: EigenFailureError: eigensolver failed: Eigenvalues did not converge\n")


def test_infection_free_stability_tracks_threshold():
    sub = helpers.out_regular(n=3, row_sum=0.8)
    sup = helpers.out_regular(n=3, row_sum=2.0)
    assert spectral_abscissa(jacobian_dfe(sub)) == pytest.approx(-0.2)
    assert spectral_abscissa(jacobian_dfe(sup)) == pytest.approx(1.0)


def test_supercritical_dfe_unstable_heterogeneous(rng):
    m = helpers.random_supercritical(rng, 4, r0_target=3.0)
    assert spectral_abscissa(jacobian_dfe(m)) > 0.0


def _check_dfe_route(m) -> DfeAbscissa:
    """dfe_abscissa against the dense 2n x 2n route and scipy on W - [gamma].

    Both references are dense eigensolves with absolute error of order
    eps * ||J||, so near R0 = 1, where the root is small, agreement is to
    1e-12 relative or 1e-14 absolute, and the bracket contains each
    reference up to 1e-14 of the rate scale (the ratios are rounded too).
    """
    res = dfe_abscissa(m)
    floor = -float(m.delta.min())
    dense = spectral_abscissa(jacobian_dfe(m))
    metzler = float(scipy.linalg.eigvals(m.W - np.diag(m.gamma)).real.max())
    slack = 1e-14 * max(abs(dense), float(m.gamma.max()))
    for ref in (dense, max(metzler, floor)):
        assert res.abscissa == pytest.approx(ref, rel=1e-12, abs=1e-14)
        assert res.lower - slack <= ref <= res.upper + slack
    assert res.lower <= res.abscissa <= res.upper
    if metzler < floor - slack:
        assert res.abscissa == floor
    if abs(dense) > slack:
        assert helpers.dfe_side(res) == np.sign(dense)
    return res


def test_dfe_abscissa_single_node():
    res = _check_dfe_route(validate_model([[2.0]], [1.0], [1.0]))
    assert (res.abscissa, res.lower, res.upper, res.iterations) == (1.0, 1.0, 1.0, 0)
    assert helpers.dfe_side(res) == 1
    # s(W - gamma) = -0.5 lies left of -delta = -0.25: the floor is exact
    res = _check_dfe_route(validate_model([[0.5]], [1.0], [0.25]))
    assert res.abscissa == -0.25
    assert helpers.dfe_side(res) == -1


def test_dfe_abscissa_periodic_two_cycle():
    # support 1 -> 2 -> 1 only: W - [gamma] has eigenvalues -1 +- sqrt(6)
    m = validate_model([[0.0, 2.0], [3.0, 0.0]], [1.0, 1.0], [0.5, 0.5])
    res = _check_dfe_route(m)
    assert res.abscissa == pytest.approx(np.sqrt(6.0) - 1.0, rel=1e-14)
    assert helpers.dfe_side(res) == 1


@pytest.mark.parametrize("row_sum, delta, expected", [
    (0.8, 1.0, -0.2),   # s(W - I) = row_sum - 1 above -delta
    (0.8, 0.1, -0.1),   # ... and below it: the floor, exactly
    (2.0, 1.0, 1.0),
])
def test_dfe_abscissa_out_regular(row_sum, delta, expected):
    m = helpers.out_regular(n=3, row_sum=row_sum, delta=delta)
    res = _check_dfe_route(m)
    assert res.abscissa == pytest.approx(expected, rel=1e-14)
    if expected == -0.1:
        assert res.abscissa == -0.1
        assert (res.lower, res.upper, res.iterations) == (-0.1, -0.1, 0)
    assert helpers.dfe_side(res) == np.sign(expected)


@pytest.mark.parametrize("n", [3, 40, 200])
def test_dfe_abscissa_random_models(n):
    rng = np.random.default_rng(n)
    for r0 in (0.3, 0.999, 1.001, 3.0):
        m = helpers.random_supercritical(rng, n, r0_target=r0)
        res = _check_dfe_route(m)
        assert helpers.dfe_side(res) == (-1 if r0 < 1.0 else 1)
        assert res.iterations <= 12


def test_dfe_abscissa_at_threshold_is_inconclusive(monkeypatch):
    # R0 = 1 exactly: the ratios at x = 1 are exactly 0, the bracket
    # closes at [0, 0] with no solve, and it touches 0
    m = helpers.out_regular(n=2, row_sum=1.0)
    res = _check_dfe_route(m)
    assert (res.abscissa, res.lower, res.upper, res.iterations) == (0.0, 0.0, 0.0, 0)
    assert helpers.dfe_side(res) == 0
    # a bracket can straddle 0 too: a tolerance of 1 stops at the bracket
    # of x = 1, whose row ratios lie on both sides of 0 for this
    # near-threshold model
    m = helpers.random_supercritical(np.random.default_rng(3), 40, r0_target=1.001)
    monkeypatch.setattr(netsirs.stability, "DFE_TOL", 1.0)
    res = dfe_abscissa(m)
    assert res.iterations == 0
    assert res.lower < 0.0 < res.upper
    assert helpers.dfe_side(res) == 0
    assert res.lower <= spectral_abscissa(jacobian_dfe(m)) <= res.upper


def test_dfe_abscissa_fails_loudly_when_bracket_stays_open(monkeypatch):
    # this model's bracket takes more than 3 solves; the one Perron cap
    # that also bounds R0 stops it
    m = helpers.random_supercritical(np.random.default_rng(3), 40, r0_target=1.001)
    assert dfe_abscissa(m).iterations > 3
    monkeypatch.setattr(netsirs.spectral, "MAX_SOLVES", 3)
    with pytest.raises(NoConvergenceError, match="did not close to .* in 3 solves$"):
        dfe_abscissa(m)


@pytest.mark.parametrize("n", [200, 1000])
def test_weighted_ring_perron_roots(n):
    """On a directed ring every eigenvalue of M has modulus R0, so power
    sweeps on M + I stall; both Perron roots still close, on the exact
    values of the ring's characteristic equation."""
    m, w = helpers.weighted_ring(n)
    rho, s = oracles.ring_perron_roots(w, m.gamma)
    r0, spectral = reproduction_number(m)
    assert r0 == pytest.approx(rho, rel=1e-12)
    assert spectral.residual <= 1e-10
    res = dfe_abscissa(m) if n == 1000 else _check_dfe_route(m)
    # the dense eigensolve of a 1000-node ring is itself off by about
    # 1.5e-12 here, so the closed form is the reference
    slack = 1e-14 * max(abs(s), float(m.gamma.max()))
    assert res.lower - slack <= s <= res.upper + slack
    assert res.abscissa == pytest.approx(s, rel=1e-13)
    assert helpers.dfe_side(res) == 1


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(0.2, 5.0),
       st.floats(1e-3, 1e3))
@example(1, 0, 0.5, 1e3)
@example(30, 1, 0.9999, 1.0)
@example(30, 2, 1.0001, 1e-3)
def test_dfe_verdict_follows_r0_and_r0_is_linear_in_w(n, seed, r0, scale):
    """The certified DFE bracket lies left of 0 below R0 = 1 and right of it
    above, the transcritical bifurcation of the paper, and R0(sW) = s R0(W)."""
    m = helpers.random_supercritical(np.random.default_rng(seed), n, r0)
    r0_m, _ = reproduction_number(m)
    if abs(r0_m - 1.0) > 1e-6:
        assert helpers.dfe_side(dfe_abscissa(m)) == (-1 if r0_m < 1.0 else 1)
    scaled = validate_model(scale * m.W, m.gamma, m.delta)
    assert reproduction_number(scaled)[0] == pytest.approx(scale * r0_m, rel=1e-12)


def test_lyapunov_nonincreasing_subcritical(rng):
    sub = helpers.out_regular(n=3, row_sum=0.8)
    spec = reproduction_number(sub)[1]
    for _ in range(100):
        y = rng.uniform(0.0, 0.5, size=3)
        z = rng.uniform(0.0, 0.5, size=3)
        assert lyapunov_derivative(sub, y, z, spectral=spec) <= 1e-12
    assert lyapunov_value(sub, np.zeros(3), spectral=spec) == 0.0
    assert lyapunov_value(sub, np.array([0.1, 0.0, 0.0]), spectral=spec) > 0.0


def test_lyapunov_derivative_matches_finite_differences():
    sub = helpers.out_regular(n=3, row_sum=0.8)
    spec = reproduction_number(sub)[1]
    cfg = IntegratorConfig(dt=5e-4, t_end=0.5)
    traj = simulate(sub, np.array([0.3, 0.1, 0.0]), np.array([0.0, 0.2, 0.1]), cfg)
    trace = lyapunov_value(sub, traj.y, spec)
    for k in (100, 500, 900):
        fd = (trace[k + 1] - trace[k - 1]) / (2.0 * cfg.dt)
        analytic = lyapunov_derivative(sub, traj.y[k], traj.z[k], spectral=spec)
        assert abs(fd - analytic) <= 1e-6


def test_lyapunov_grows_near_unstable_dfe(ref5):
    spec = reproduction_number(ref5)[1]
    y = 1e-6 * spec.v_right
    assert lyapunov_derivative(ref5, y, np.zeros(5), spectral=spec) > 0.0


def test_rank_one_lyapunov_hand_value():
    # single node, W = 2 = a b' with a = 2, b = 1, gamma = delta = 1:
    # equilibrium (x*, y*, z*) = (.5, .25, .25), state (.4, .35, .25)
    m = validate_model([[2.0]], [1.0], [1.0])
    eq = solve_endemic(m)
    v = rank_one_lyapunov(m, np.array([1.0]), np.array([0.35]), np.array([0.25]), eq)
    v3 = 0.35 - 0.25 + 0.25 * np.log(0.25 / 0.35)
    assert v == pytest.approx(0.01 + v3, abs=1e-12)


def test_rank_one_lyapunov_zero_only_at_equilibrium(rng):
    model, b = helpers.rank_one_model(rng, 4, r0_target=3.0)
    eq = solve_endemic(model)
    assert rank_one_lyapunov(model, b, eq.y_star, eq.z_star, eq) == pytest.approx(0.0, abs=1e-14)
    assert rank_one_lyapunov(model, b, eq.y_star * 0.9, eq.z_star, eq) > 0.0
    with pytest.raises(InvalidAtBoundaryError):
        rank_one_lyapunov(model, b, np.zeros(4), eq.z_star, eq)
    # one state on the boundary is enough for a block
    block = np.stack([eq.y_star, np.zeros(4)])
    with pytest.raises(InvalidAtBoundaryError):
        rank_one_lyapunov(model, b, block, np.stack([eq.z_star, eq.z_star]), eq)


def test_rank_one_lyapunov_decays_along_trajectory(rng):
    model, b = helpers.rank_one_model(rng, 3, r0_target=2.5)
    eq = solve_endemic(model)
    traj = simulate(model, np.array([0.2, 0.05, 0.1]), np.array([0.1, 0.1, 0.0]),
                    IntegratorConfig(dt=0.01, t_end=20.0, record_every=10))
    values = rank_one_lyapunov(model, b, traj.y, traj.z, eq)
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-9)
    assert values[-1] < values[0]


def test_lyapunov_functions_on_a_block_equal_row_by_row_calls(rng):
    """On an (m, n) block each row of the result equals the call on that
    row's vectors, bit for bit; a vector call gives a float."""
    model, b = helpers.rank_one_model(rng, 4, r0_target=3.0)
    spec = reproduction_number(model)[1]
    eq = solve_endemic(model)
    traj = simulate(model, np.array([0.2, 0.05, 0.1, 0.3]), np.array([0.1, 0.1, 0.0, 0.2]),
                    IntegratorConfig(dt=0.01, t_end=5.0, record_every=7))
    y, z = traj.y, traj.z
    derivative = lyapunov_derivative(model, y, z, spec)
    rank_one = rank_one_lyapunov(model, b, y, z, eq)
    assert derivative.shape == rank_one.shape == (len(traj),)
    pairs = list(zip(y, z))
    assert np.array_equal(derivative, [lyapunov_derivative(model, *s, spec) for s in pairs])
    assert np.array_equal(rank_one, [rank_one_lyapunov(model, b, *s, eq) for s in pairs])
    assert isinstance(lyapunov_derivative(model, y[0], z[0], spec), float)
    assert isinstance(rank_one_lyapunov(model, b, y[0], z[0], eq), float)
