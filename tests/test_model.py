from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import helpers
import oracles
from netsirs import (
    DimensionMismatchError,
    ModelInputError,
    NegativeEntryError,
    NonPositiveRateError,
    ReducibleError,
    check_irreducible,
    validate_model,
)


def test_validate_accepts_reference_network(ref5):
    assert ref5.n == 5
    assert ref5.name == "ref5"
    # unit curing rates make the next-generation matrix equal to W
    assert np.array_equal(ref5.M, ref5.W)
    assert np.allclose(ref5.alpha, np.array(helpers.REF5_GAMMA) / helpers.REF5_DELTA)
    assert np.allclose(ref5.ybar, 1.0 / (1.0 + ref5.alpha))


def test_validate_normalizes_next_generation_rows(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = helpers.random_supercritical(rng, n, r0_target=2.0)
        for i in range(n):
            assert np.allclose(m.M[i], m.W[i] / m.gamma[i])
        assert np.allclose(m.alpha, m.gamma / m.delta)


def test_validate_rejects_negative_entry():
    W = [[0.0, 1.0], [-0.5, 0.0]]
    with pytest.raises(NegativeEntryError) as err:
        validate_model(W, [1.0, 1.0], [1.0, 1.0])
    assert "W[1, 0]" in str(err.value)


def test_validate_rejects_nonpositive_rates():
    W = [[0.0, 1.0], [1.0, 0.0]]
    with pytest.raises(NonPositiveRateError):
        validate_model(W, [1.0, 0.0], [1.0, 1.0])
    with pytest.raises(NonPositiveRateError):
        validate_model(W, [1.0, 1.0], [1.0, -2.0])


def test_validate_rejects_nonfinite_entries():
    with pytest.raises(ModelInputError):
        validate_model([[np.nan, 1.0], [1.0, 0.0]], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ModelInputError):
        validate_model([[0.0, 1.0], [1.0, 0.0]], [np.inf, 1.0], [1.0, 1.0])
    for W, gamma, delta in helpers.OVERFLOW_MODELS:
        with pytest.raises(ModelInputError):
            validate_model(W, gamma, delta)


def test_validate_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate_model([[0.0, 1.0], [1.0, 0.0]], [1.0], [1.0, 1.0])
    with pytest.raises(DimensionMismatchError):
        validate_model([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 1.0], [1.0, 1.0])


def test_validate_rejects_reducible_support():
    # upper triangular: node 1 never reaches node 0
    with pytest.raises(ReducibleError):
        validate_model([[1.0, 1.0], [0.0, 1.0]], [1.0, 1.0], [1.0, 1.0])


def test_single_node_needs_self_loop():
    m = validate_model([[2.0]], [1.0], [0.5])
    assert m.n == 1
    assert m.alpha[0] == pytest.approx(2.0)
    with pytest.raises(ReducibleError):
        validate_model([[0.0]], [1.0], [1.0])


def test_model_arrays_are_read_only(ref5):
    for arr in (ref5.W, ref5.gamma, ref5.delta, ref5.M, ref5.alpha, ref5.ybar):
        with pytest.raises(ValueError):
            arr[0] = 99.0


def test_irreducible_convention_on_trivial_graph():
    """A single node with no self-loop passes the structural check.

    validate_model is stricter and rejects it, but the pure graph
    predicate treats the one-node digraph as trivially strongly
    connected.
    """
    assert check_irreducible(np.array([[0.0]]))
    assert check_irreducible(np.array([[1.0]]))
    # the empty digraph has no component at all
    assert not check_irreducible(np.zeros((0, 0)))


def test_irreducible_on_directed_cycle():
    W = np.zeros((4, 4))
    for i in range(4):
        W[i, (i + 1) % 4] = 1.0
    assert check_irreducible(W)
    W[2, 3] = 0.0  # break the cycle
    assert not check_irreducible(W)


def test_irreducible_matches_reachability_oracle(rng):
    agree = 0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        W = (rng.random((n, n)) < 0.3) * rng.random((n, n))
        assert check_irreducible(W) == oracles.reachability_strongly_connected(W)
        agree += 1
    assert agree == 200


@st.composite
def _random_digraphs(draw):
    # mean out-degree from 0 to 6 straddles the connectivity threshold
    # (about ln n) for every n up to 40
    n = draw(st.integers(1, 40))
    degree = draw(st.floats(0.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n, n)) < degree / n) * rng.random((n, n))


@given(_random_digraphs())
@example(np.array([[0.0]]))  # the 1x1 convention: trivially strongly connected
@example(np.array([[2.0]]))
def test_irreducible_matches_reachability_oracle_property(W):
    assert check_irreducible(W) == oracles.reachability_strongly_connected(W)


@given(st.integers(2, 40).flatmap(lambda n: st.tuples(st.permutations(range(n)),
                                                       st.integers(0, n - 1))))
def test_irreducible_on_cycle_with_one_edge_removed(cycle_and_cut):
    order, cut = cycle_and_cut
    n = len(order)
    W = np.zeros((n, n))
    for k in range(n):
        W[order[k], order[(k + 1) % n]] = 1.0
    assert check_irreducible(W) and oracles.reachability_strongly_connected(W)
    W[order[cut], order[(cut + 1) % n]] = 0.0
    assert not check_irreducible(W)
    assert not oracles.reachability_strongly_connected(W)
