import io

import numpy as np
import pytest

from dualspace import pdo_kernel as pk
from dualspace.tape_io import read_table_csv


def gaussian_grid(n=256, sigma0=0.5, half_width=8.0, center=0.0):
    points = np.linspace(-half_width, half_width, n, endpoint=False)
    return points, np.exp(-((points - center) ** 2) / (2 * sigma0**2))


def evolve(points, values, drift=0.0, diffusion=0.25, t=1.0):
    return pk.pdo_evolve(values, points[1] - points[0], drift, diffusion, t)


# ── symbol ─────────────────────────────────────────────────────────────

def test_symbol_identity_at_zero_time():
    k = np.array([-3.0, 0.0, 2.5])
    np.testing.assert_allclose(pk.diffusion_symbol(k, 1.3, 0.7, 0.0), 1.0)


def test_symbol_pure_heat_form():
    k = np.array([0.5, 1.0, 2.0])
    np.testing.assert_allclose(pk.diffusion_symbol(k, 0.0, 1.0, 0.7),
                               np.exp(-(k**2) * 0.7))


def test_symbol_matches_real_imag_decomposition():
    rng = np.random.default_rng(0)
    for _ in range(5):
        k = rng.standard_normal(16)
        a, diffusion = rng.standard_normal(), rng.uniform(0, 2)
        t = rng.uniform(0, 2)
        got = pk.diffusion_symbol(k, a, diffusion, t)
        # independent evaluation via separate real/imaginary parts
        real_exp = np.exp(-diffusion * k**2 * t)
        phase = k * a * t
        expected = real_exp * (np.cos(phase) + 1j * np.sin(phase))
        assert got == pytest.approx(expected, abs=1e-14)


def test_symbol_rejects_negative_time():
    with pytest.raises(ValueError):
        pk.diffusion_symbol(np.array([1.0]), 0.0, 0.25, -0.1)


def test_diffusion_params_validation():
    points, values = gaussian_grid()
    with pytest.raises(ValueError, match="diffusion must be >= 0"):
        evolve(points, values, diffusion=-0.5)
    with pytest.raises(ValueError, match="t must be >= 0"):
        evolve(points, values, t=-0.1)


# ── grid evolution ─────────────────────────────────────────────────────

def test_evolve_zero_time_is_identity():
    points, values = gaussian_grid()
    np.testing.assert_allclose(evolve(points, values, t=0.0), values, atol=1e-12)


def test_evolve_matches_heat_kernel():
    sigma0, diff, t = 0.5, 0.25, 1.0
    sigma_t = np.sqrt(sigma0**2 + 2 * diff * t)
    points, values = gaussian_grid(sigma0=sigma0, half_width=8 * sigma_t)
    out = evolve(points, values, diffusion=diff, t=t)
    expected = (sigma0 / sigma_t) * np.exp(-points**2 / (2 * sigma_t**2))
    assert np.abs(out.real - expected).max() < 1e-6
    assert np.abs(out.imag).max() < 1e-9


def test_evolve_pure_drift_is_translation():
    # the exp(+ik.a t) multiplier shifts the profile by a*t along the
    # characteristics of psi_t = a psi_x, i.e. grid index -a*t/dx
    points, values = gaussian_grid(n=256, half_width=8.0)
    dx = points[1] - points[0]
    shift_cells = 32
    t = 1.0
    drift = shift_cells * dx / t
    out = evolve(points, values, drift=drift, diffusion=0.0, t=t)
    np.testing.assert_allclose(out.real, np.roll(values, -shift_cells), atol=1e-8)
    assert np.abs(out.imag).max() < 1e-8


def test_evolve_semigroup_property():
    points, values = gaussian_grid(sigma0=0.7, half_width=14.0)
    p = dict(drift=0.3, diffusion=0.2)
    two_step = evolve(points, evolve(points, values, t=0.4, **p), t=0.6, **p)
    one_step = evolve(points, values, t=1.0, **p)
    assert np.abs(two_step - one_step).max() < 1e-10


def test_evolve_conserves_mass():
    rng = np.random.default_rng(1)
    points = np.linspace(-10, 10, 128, endpoint=False)
    values = rng.standard_normal(128)
    out = evolve(points, values, drift=0.8, diffusion=0.3, t=2.0)
    assert abs(out.sum() - values.sum()) < 1e-10


def test_grid_csv_round_trip():
    points, values = gaussian_grid(n=32)
    values = evolve(points, values)
    buf = io.StringIO()
    pk.write_grid_csv(points, values, buf)
    buf.seek(0)
    header, rows = read_table_csv(buf)
    assert header == ["point", "re", "im"]
    back = np.array(rows, dtype=float)
    np.testing.assert_array_equal(back[:, 0], points)
    np.testing.assert_array_equal(back[:, 1] + 1j * back[:, 2], values)
