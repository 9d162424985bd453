from __future__ import annotations

import numpy as np
import pytest

import helpers
import oracles
from netsirs import (
    NonPositiveVectorError,
    ReducibleError,
    collatz_wielandt_bounds,
    dominant_eigen,
    reproduction_number,
)


def test_two_node_chain_eigenpair():
    # dominant eigenvalue of [[0,2],[1,0]] is sqrt(2) with right vector
    # proportional to (sqrt(2), 1)
    M = np.array([[0.0, 2.0], [1.0, 0.0]])
    res = dominant_eigen(M)
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
    res = dominant_eigen(M)
    assert res.lam == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.v_right, [0.5, 0.5], atol=1e-8)
    assert np.allclose(res.v_left, [0.5, 0.5], atol=1e-8)


def test_single_node_shortcut():
    res = dominant_eigen(np.array([[3.0]]))
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
    with pytest.raises(NonPositiveVectorError):
        collatz_wielandt_bounds(M, np.array([1.0, 0.0]))


def test_reducible_matrix_rejected():
    M = np.array([[1.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ReducibleError):
        dominant_eigen(M)


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
        res = dominant_eigen(m.M)
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
