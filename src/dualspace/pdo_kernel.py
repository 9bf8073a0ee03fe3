"""Spectral evolution numerics: constant-coefficient diffusion symbols
and periodic-grid propagation.

A drift-diffusion generator with drift a and diffusion matrix S acts in
Fourier space as multiplication by exp((i k.a - k'Sk) t); evolving an
initial condition is transform, multiply, inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape_io import write_table_csv


@dataclass(frozen=True)
class DiffusionParams:
    drift: np.ndarray      # (n,)
    diffusion: np.ndarray  # (n, n) symmetric positive semidefinite

    def __post_init__(self):
        drift = np.atleast_1d(np.asarray(self.drift, dtype=float))
        diff = np.atleast_2d(np.asarray(self.diffusion, dtype=float))
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", diff)
        if diff.shape != (drift.size, drift.size):
            raise ValueError("diffusion matrix must be n x n for n-dim drift")
        if not np.allclose(diff, diff.T, atol=1e-12):
            raise ValueError("diffusion matrix must be symmetric")
        if np.linalg.eigvalsh(diff).min() < -1e-12:
            raise ValueError("diffusion matrix must be positive semidefinite")


@dataclass
class SpectralGrid:
    points: np.ndarray  # uniform 1-D grid
    values: np.ndarray  # complex samples

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.points.ndim != 1 or self.points.size != self.values.size:
            raise ValueError("need one value per grid point")
        if self.points.size >= 2:
            steps = np.diff(self.points)
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
                raise ValueError("grid must be uniform")

    @property
    def spacing(self) -> float:
        return float(self.points[1] - self.points[0])

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points.size, d=self.spacing)


def diffusion_symbol(params: DiffusionParams, k, t: float) -> complex | np.ndarray:
    """exp((i k.a - k'Sk) t) for a wavenumber vector (or scalar, n=1)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    k = np.asarray(k, dtype=float)
    if k.ndim <= 1 and k.size == params.drift.size:
        kv = k.reshape(-1)
        exponent = (1j * kv @ params.drift - kv @ params.diffusion @ kv) * t
        return complex(np.exp(exponent))
    # vectorized over many wavenumbers (rows of k), 1-D case included
    kv = np.atleast_2d(k.reshape(-1, params.drift.size))
    quad = np.einsum("ki,ij,kj->k", kv, params.diffusion, kv)
    return np.exp((1j * kv @ params.drift - quad) * t).reshape(k.shape[:1] or ())


def pdo_evolve(grid: SpectralGrid, params: DiffusionParams, t: float) -> SpectralGrid:
    """Evolve grid samples under the diffusion symbol for time t.

    Periodic boundary conditions are implied by the discrete transform;
    the grid must be wide enough that wraparound of the evolved profile
    is negligible for the caller's purposes.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if params.drift.size != 1:
        raise ValueError("grid evolution is implemented for 1-D problems")
    multiplier = diffusion_symbol(params, grid.wavenumbers.reshape(-1, 1), t)
    evolved = np.fft.ifft(np.fft.fft(grid.values) * multiplier)
    return SpectralGrid(grid.points.copy(), evolved)


# ── I/O ────────────────────────────────────────────────────────────────

def write_grid_csv(grid: SpectralGrid, handle) -> None:
    write_table_csv(handle, ["point", "re", "im"],
                    zip(grid.points.tolist(), grid.values.real.tolist(),
                        grid.values.imag.tolist()))
