import io

import numpy as np
import pytest

from dualspace import pdo_kernel as pk
from dualspace.tape_io import read_table_csv

from oracles import matrix_exp, propagate_state, taylor_matrix_exp


def gaussian_grid(n=256, sigma0=0.5, half_width=8.0, center=0.0):
    points = np.linspace(-half_width, half_width, n, endpoint=False)
    values = np.exp(-((points - center) ** 2) / (2 * sigma0**2))
    return pk.SpectralGrid(points, values)


def params_1d(drift=0.0, diffusion=0.25):
    return pk.DiffusionParams(np.array([drift]), np.array([[diffusion]]))


# ── symbol ─────────────────────────────────────────────────────────────

def test_symbol_identity_at_zero_time():
    p = params_1d(drift=1.3, diffusion=0.7)
    for k in (-3.0, 0.0, 2.5):
        assert pk.diffusion_symbol(p, np.array([k]), 0.0) == pytest.approx(1.0)


def test_symbol_pure_heat_form():
    p = params_1d(drift=0.0, diffusion=1.0)
    for k in (0.5, 1.0, 2.0):
        got = pk.diffusion_symbol(p, np.array([k]), 0.7)
        assert got == pytest.approx(np.exp(-(k**2) * 0.7))


def test_symbol_matches_real_imag_decomposition():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(3)
    m = rng.standard_normal((3, 3))
    sigma = m @ m.T
    p = pk.DiffusionParams(a, sigma)
    for _ in range(5):
        k = rng.standard_normal(3)
        t = rng.uniform(0, 2)
        got = pk.diffusion_symbol(p, k, t)
        # independent evaluation via separate real/imaginary parts
        real_exp = float(np.exp(-(k @ sigma @ k) * t))
        phase = float((k @ a) * t)
        expected = real_exp * (np.cos(phase) + 1j * np.sin(phase))
        assert got == pytest.approx(expected, abs=1e-14)


def test_symbol_rejects_negative_time():
    with pytest.raises(ValueError):
        pk.diffusion_symbol(params_1d(), np.array([1.0]), -0.1)


def test_diffusion_params_validation():
    with pytest.raises(ValueError, match="symmetric"):
        pk.DiffusionParams(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="semidefinite"):
        pk.DiffusionParams(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))


# ── grid evolution ─────────────────────────────────────────────────────

def test_evolve_zero_time_is_identity():
    grid = gaussian_grid()
    out = pk.pdo_evolve(grid, params_1d(), 0.0)
    np.testing.assert_allclose(out.values, grid.values, atol=1e-12)


def test_evolve_matches_heat_kernel():
    sigma0, diff, t = 0.5, 0.25, 1.0
    sigma_t = np.sqrt(sigma0**2 + 2 * diff * t)
    grid = gaussian_grid(sigma0=sigma0, half_width=8 * sigma_t)
    out = pk.pdo_evolve(grid, params_1d(diffusion=diff), t)
    expected = (sigma0 / sigma_t) * np.exp(-grid.points**2 / (2 * sigma_t**2))
    assert np.abs(out.values.real - expected).max() < 1e-6
    assert np.abs(out.values.imag).max() < 1e-9


def test_evolve_pure_drift_is_translation():
    # the exp(+ik.a t) multiplier shifts the profile by a*t along the
    # characteristics of psi_t = a psi_x, i.e. grid index -a*t/dx
    grid = gaussian_grid(n=256, half_width=8.0)
    dx = grid.spacing
    shift_cells = 32
    t = 1.0
    drift = shift_cells * dx / t
    out = pk.pdo_evolve(grid, pk.DiffusionParams(np.array([drift]),
                                                 np.array([[0.0]])), t)
    np.testing.assert_allclose(out.values.real, np.roll(grid.values.real, -shift_cells),
                               atol=1e-8)
    assert np.abs(out.values.imag).max() < 1e-8


def test_evolve_semigroup_property():
    grid = gaussian_grid(sigma0=0.7, half_width=14.0)
    p = params_1d(drift=0.3, diffusion=0.2)
    two_step = pk.pdo_evolve(pk.pdo_evolve(grid, p, 0.4), p, 0.6)
    one_step = pk.pdo_evolve(grid, p, 1.0)
    assert np.abs(two_step.values - one_step.values).max() < 1e-10


def test_evolve_conserves_mass():
    rng = np.random.default_rng(1)
    points = np.linspace(-10, 10, 128, endpoint=False)
    grid = pk.SpectralGrid(points, rng.standard_normal(128))
    out = pk.pdo_evolve(grid, params_1d(drift=0.8, diffusion=0.3), 2.0)
    assert abs(out.values.sum() - grid.values.sum()) < 1e-10


def test_nonuniform_grid_rejected():
    points = np.array([0.0, 1.0, 2.5, 3.0])
    with pytest.raises(ValueError, match="uniform"):
        pk.SpectralGrid(points, np.zeros(4))


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


def test_propagate_first_order_in_dt():
    rng = np.random.default_rng(5)
    beta = rng.standard_normal((4, 4)) * 0.4
    x0 = rng.standard_normal(4)
    horizon = 1.0

    def noise_at(t):  # smooth deterministic forcing
        return np.array([np.sin(t + j) for j in range(4)])

    def gap(n_steps):
        dt = horizon / n_steps
        noise = [noise_at((i + 1) * dt) for i in range(n_steps)]
        exact = propagate_state(x0, beta, noise, n_steps, dt)
        euler = x0.copy()
        for i in range(n_steps):
            euler = euler + dt * (beta @ euler) + noise[i] * dt
        return np.abs(exact - euler).max()

    g1, g2 = gap(100), gap(200)
    assert g2 < g1
    assert g2 / g1 == pytest.approx(0.5, abs=0.1)  # halving dt halves the gap


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


def test_grid_csv_round_trip():
    grid = gaussian_grid(n=32)
    buf = io.StringIO()
    pk.write_grid_csv(grid, buf)
    buf.seek(0)
    header, rows = read_table_csv(buf)
    assert header == ["point", "re", "im"]
    back = np.array(rows, dtype=float)
    np.testing.assert_array_equal(back[:, 0], grid.points)
    np.testing.assert_array_equal(back[:, 1] + 1j * back[:, 2], grid.values)
