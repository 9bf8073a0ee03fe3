"""Spectral evolution numerics: the constant-coefficient drift-diffusion
symbol and its propagation on a periodic 1-D grid.

A generator with drift a and diffusion D >= 0 acts in Fourier space as
multiplication by exp((i k a - D k^2) t); evolving an initial condition
is transform, multiply, inverse transform.
"""

from __future__ import annotations

import numpy as np

from .table_csv import write_table_csv


def diffusion_symbol(k, drift: float, diffusion: float, t: float) -> np.ndarray:
    """exp((i k a - D k^2) t) over an array of wavenumbers k."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if diffusion < 0:
        raise ValueError("diffusion must be >= 0")
    k = np.asarray(k, dtype=float)
    return np.exp(((k * drift) * 1j - (k * diffusion) * k) * t)


def pdo_evolve(values, spacing: float, drift: float, diffusion: float,
               t: float) -> np.ndarray:
    """Evolve samples on a uniform grid of the given spacing for time t.

    Periodic boundary conditions are implied by the discrete transform;
    the grid must be wide enough that wraparound of the evolved profile
    is negligible for the caller's purposes.
    """
    k = 2.0 * np.pi * np.fft.fftfreq(len(values), d=spacing)
    multiplier = diffusion_symbol(k, drift, diffusion, t)
    return np.fft.ifft(np.fft.fft(values) * multiplier)


# ── I/O ────────────────────────────────────────────────────────────────

def write_grid_csv(points: np.ndarray, values: np.ndarray, handle) -> None:
    write_table_csv(handle, ["point", "re", "im"],
                    zip(points.tolist(), values.real.tolist(), values.imag.tolist()))
