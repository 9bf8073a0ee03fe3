"""Tests of the oracles themselves: scipy's matrix exponential and the
exact state propagator behind criterion 11's Euler check."""

import numpy as np
import pytest

from oracles import matrix_exp, propagate_state, taylor_matrix_exp


# ── matrix exponential and propagation ─────────────────────────────────

def test_matrix_exp_zero_is_identity():
    np.testing.assert_array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4))


def test_matrix_exp_diagonal():
    d = np.diag([0.5, -1.0, 2.0])
    np.testing.assert_allclose(matrix_exp(d), np.diag(np.exp([0.5, -1.0, 2.0])),
                               rtol=1e-12)


def test_matrix_exp_matches_taylor_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        m = rng.standard_normal((6, 6))
        m = m / (np.abs(m).sum(axis=1).max() + 1e-9)  # ||M|| <= 1
        assert np.abs(matrix_exp(m) - taylor_matrix_exp(m)).max() < 1e-10


def test_matrix_exp_large_norm_semigroup():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) * 2.0
    full = matrix_exp(m)
    half = matrix_exp(m / 2)
    assert np.abs(half @ half - full).max() < 1e-9 * np.abs(full).max()


def test_propagate_identity_without_dynamics():
    x0 = np.arange(4.0)
    out = propagate_state(x0, np.zeros((4, 4)), None, 10, 0.1)
    np.testing.assert_allclose(out, x0, atol=1e-12)


def test_propagate_homogeneous_solution():
    rng = np.random.default_rng(4)
    beta = rng.standard_normal((4, 4)) * 0.3
    x0 = rng.standard_normal(4)
    out = propagate_state(x0, beta, None, 20, 0.05)
    expected = matrix_exp(beta * 1.0) @ x0
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_propagate_is_linear():
    rng = np.random.default_rng(6)
    beta = rng.standard_normal((3, 3)) * 0.2
    x1, x2 = rng.standard_normal((2, 3))
    n1 = [rng.standard_normal(3) for _ in range(5)]
    n2 = [rng.standard_normal(3) for _ in range(5)]
    combo = propagate_state(2.0 * x1 - x2, beta,
                               [2.0 * a - b for a, b in zip(n1, n2)], 5, 0.1)
    parts = (2.0 * propagate_state(x1, beta, n1, 5, 0.1)
             - propagate_state(x2, beta, n2, 5, 0.1))
    np.testing.assert_allclose(combo, parts, atol=1e-10)


def test_matrix_exp_of_scaled_beta_and_input_checks():
    beta = np.diag([0.2, -0.4])
    np.testing.assert_allclose(matrix_exp(beta * 0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(matrix_exp(beta * 1.0),
                               np.diag(np.exp([0.2, -0.4])), rtol=1e-12)
    with pytest.raises(ValueError, match="square"):
        matrix_exp(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        matrix_exp(np.array([[0.0, np.nan], [0.0, 0.0]]))


def test_matrix_exp_semigroup():
    rng = np.random.default_rng(7)
    beta = rng.standard_normal((5, 5)) * 0.5
    left = matrix_exp(beta * 0.7) @ matrix_exp(beta * 0.5)
    right = matrix_exp(beta * 1.2)
    assert np.abs(left - right).max() < 1e-10
