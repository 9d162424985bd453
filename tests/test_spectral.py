from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
import netsirs.cli
import netsirs.spectral
import oracles
from netsirs import (
    ModelInputError,
    NegativeEntryError,
    NoConvergenceError,
    ReducibleError,
    load_model,
    reproduction_number,
    validate_model,
)
from oracles import collatz_wielandt_bounds

FIVE_NODE = os.path.join(os.path.dirname(__file__), os.pardir, "models", "five_node.json")


def test_two_node_chain_eigenpair():
    # dominant eigenvalue of [[0,2],[1,0]] is sqrt(2) with right vector
    # proportional to (sqrt(2), 1)
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    res = helpers.perron_pair(M)
    assert res.lam == pytest.approx(np.sqrt(2.0), abs=1e-9)
    expected = np.array([np.sqrt(2.0), 1.0])
    expected /= expected.sum()
    assert np.allclose(res.v_right, expected, atol=1e-8)
    assert res.residual <= 1e-10
    assert res.iterations > 0


def test_periodic_swap_converges():
    """The plain power ratio oscillates on [[0,1],[1,0]]; the shifted
    iteration must still settle on eigenvalue 1."""
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    res = helpers.perron_pair(M)
    assert res.lam == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.v_right, [0.5, 0.5], atol=1e-8)
    assert np.allclose(res.v_left, [0.5, 0.5], atol=1e-8)


def test_single_node_shortcut():
    res = helpers.perron_pair(np.array([[3.0]]))
    assert res.lam == 3.0
    assert res.v_right[0] == 1.0
    assert res.residual == 0.0


def test_collatz_wielandt_brackets():
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    lo, hi = collatz_wielandt_bounds(M, np.array([1.0, 1.0]))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)
    assert lo <= np.sqrt(2.0) <= hi


def test_collatz_wielandt_rejects_zero_component():
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(M, np.array([1.0, 0.0]))


def test_reducible_matrix_rejected():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ReducibleError):
        helpers.perron_pair(M)


@pytest.mark.parametrize("M, error", [
    ([[0.0, 1.0], [1.0, -5.0]], NegativeEntryError),
    ([[0.0, np.inf], [1.0, 0.0]], ModelInputError),
    ([[0.0, np.nan], [1.0, 0.0]], ModelInputError),
    ([[-2.0]], NegativeEntryError),
])
def test_perron_pair_rejects_bad_matrices(M, error):
    # validate_model judges the matrix before any solve: a negative entry
    # would give a negative "dominant" eigenvalue with a sign-changing
    # vector, an infinite one a RuntimeWarning and garbage
    with pytest.raises(error):
        helpers.perron_pair(np.array(M))


def _assert_matches_oracles(res, M, tol=1e-10):
    """The pair agrees with two serial power loops (an independent
    algorithm whose lam lies within tol of rho(M)) and, for small n, with
    the characteristic polynomial; both vectors are positive at unit
    1-norm and both eigen-residuals are at most tol max(1, lam), since
    the bracket closes to tol relative to lam."""
    lam = oracles.perron_serial(M, tol)[0]
    # rounding of the quotients, a few ulps of rho(M)
    slack = tol + 1e-14 * lam
    assert abs(res.lam - lam) <= slack
    if M.shape[0] <= 6:
        assert abs(res.lam - oracles.char_poly_dominant_root(M)) <= max(slack, 1e-12 * lam)
    for v in (res.v_right, res.v_left):
        assert np.all(v > 0.0)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
    assert res.residual <= tol * max(1.0, res.lam)
    assert res.residual == np.max(np.abs(M @ res.v_right - res.lam * res.v_right))
    assert np.max(np.abs(res.v_left @ M - res.lam * res.v_left)) <= tol * max(1.0, res.lam)


def test_perron_pair_matches_oracles_on_reference_models(ref5):
    _assert_matches_oracles(reproduction_number(ref5)[1], ref5.M)
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    _assert_matches_oracles(helpers.perron_pair(two_cycle), two_cycle)


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.2, 6.0),
       st.sampled_from([1e-6, 1e-10, 1e-12]))
def test_perron_pair_matches_oracles(n, seed, r0, tol):
    model = helpers.random_supercritical(np.random.default_rng(seed), n, r0)
    _assert_matches_oracles(reproduction_number(model, tol=tol)[1], model.M, tol)


def test_perron_pair_stops_at_the_solve_cap(ref5, monkeypatch):
    # the right side of ref5 takes more solves than the left one, whose
    # shift starts from the right bracket; the pair fails exactly when the
    # cap is below the right side's count, with a message naming the cap
    bracket = netsirs.spectral.perron_bracket
    _, lower, upper, right = bracket(ref5.M, 1e-10)
    left = bracket(ref5.M.T, 1e-10, known=(lower, upper))[3]
    res = reproduction_number(ref5)[1]
    assert 0 < left < right and res.iterations == right + left
    for cap in (1, right - 1):
        monkeypatch.setattr(netsirs.spectral, "MAX_SOLVES", cap)
        with pytest.raises(NoConvergenceError, match=f"did not close to 1e-10 in {cap} solves$"):
            reproduction_number(ref5)
    monkeypatch.setattr(netsirs.spectral, "MAX_SOLVES", right)
    capped = reproduction_number(ref5)[1]
    assert np.array_equal(capped.v_right, res.v_right)
    assert np.array_equal(capped.v_left, res.v_left)
    assert capped.lam == res.lam


def _many_decades_model():
    """A valid n = 4 model whose right Perron vector spans 2e-9 to 1
    (cond(M) 2.8e8): draw 25, counted from 0, of the d = 6 batch of
    default_rng(0), where for d = 4 and then 6 each of 60 draws takes
    n = integers(1, 5) and then W, gamma and delta as 10 ** uniform(-d, d)."""
    rng = np.random.default_rng(0)
    for d in (4, 6):
        for draw in range(60):
            n = rng.integers(1, 5)
            W, gamma, delta = (10.0 ** rng.uniform(-d, d, shape) for shape in ((n, n), n, n))
            if (d, draw) == (6, 25):
                return validate_model(W, gamma, delta)


def test_perron_bracket_closes_at_a_loose_tol_over_many_decades():
    """At tol 1e-7 the bracket closes on the many-decades model, and R0 =
    19.0973... lies within tol of the 50-digit root."""
    r0 = reproduction_number(_many_decades_model(), tol=1e-7)[0]
    assert abs(r0 - oracles.r0_mpmath(_many_decades_model())) <= 1e-7


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_perron_bracket_closes_at_the_default_tol_over_many_decades(tol):
    """Each solve is made in the basis of the current iterate, so the
    ratios of a Perron vector spanning 2e-9 to 1 round near eps R0 and the
    bracket closes; R0 lies within tol of the 50-digit root."""
    r0 = reproduction_number(_many_decades_model(), tol=tol)[0]
    assert abs(r0 - oracles.r0_mpmath(_many_decades_model())) <= tol


@pytest.mark.parametrize("target", [1e5, 1e6, 1e7, 1e12])
def test_r0_of_five_node_scaled_to_a_large_r0(target):
    """five_node with W scaled to R0 = target: the default tol is relative
    to R0, so R0 lies within 1e-10 relative of a 50-digit root, in 8
    solves, right and left, at every target."""
    base = load_model(FIVE_NODE)
    model = validate_model(base.W * (target / reproduction_number(base)[0]),
                           base.gamma, base.delta)
    r0 = reproduction_number(model)[0]
    assert abs(r0 - oracles.r0_mpmath(model)) <= 1e-10 * target


def test_reference_network_reproduction_number(ref5):
    r0, res = reproduction_number(ref5)
    oracle = oracles.char_poly_dominant_root(ref5.M)
    assert r0 == pytest.approx(oracle, abs=1e-8)
    assert r0 == pytest.approx(helpers.REF5_R0, abs=1e-6)
    assert res.residual <= 1e-10
    # left vector satisfies v^T M = lam v^T
    left_defect = np.abs(res.v_left @ ref5.M - r0 * res.v_left).max()
    assert left_defect <= 1e-8


def test_random_matrices_match_char_poly_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(2, 6))
        m = helpers.random_supercritical(rng, n, r0_target=float(rng.uniform(0.5, 4.0)))
        res = reproduction_number(m)[1]
        oracle = oracles.char_poly_dominant_root(m.M)
        assert res.lam == pytest.approx(oracle, abs=1e-8)
        assert res.residual <= 1e-10
        assert np.all(res.v_right > 0.0)
        assert np.all(res.v_left > 0.0)
        assert res.v_right.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.v_left.sum() == pytest.approx(1.0, abs=1e-12)
        # any positive vector sandwiches the eigenvalue
        x = rng.uniform(0.1, 1.0, size=n)
        lo, hi = collatz_wielandt_bounds(m.M, x)
        assert lo <= res.lam + 1e-9
        assert hi >= res.lam - 1e-9


def test_reproduction_number_tracks_scaling(rng):
    m = helpers.random_supercritical(rng, 4, r0_target=2.0)
    r0, _ = reproduction_number(m)
    assert r0 == pytest.approx(2.0, abs=1e-8)


def _singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize("case", ["singular", "not positive"])
@pytest.mark.parametrize("command", ["r0", "stability"])
def test_cli_exits_two_when_a_shifted_solve_fails(monkeypatch, capsys, command, case):
    # a singular shifted solve, or an iterate that is not strictly
    # positive, ends the Perron loop with its reason, never with a result
    solve = np.linalg.solve
    broken, message = {
        "singular": (_singular_solve, "shifted solve failed: Singular matrix"),
        "not positive": (lambda a, b: -solve(a, b),
                         "shifted solve lost positivity; the Perron bracket is open"),
    }[case]
    monkeypatch.setattr(np.linalg, "solve", broken)
    assert netsirs.cli.main([command, "--model", FIVE_NODE]) == 2
    assert capsys.readouterr() == ("", f"error: NoConvergenceError: {message}\n")
