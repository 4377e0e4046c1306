"""Fourier pair between frequency distributions and dephasing factors.

Discrete realization of the continuum pair

    phi(t)   = int p(w) e^{+i w t} dw
    wp(w)    = (1/2pi) int phi(t) e^{-i w t} dt

on conjugate grids (dw = 2pi / (N dt)) via FFTs with fftshift bookkeeping, plus
the diagnostics that decide whether the recovered distribution is a legitimate
probability density: normalization, realness, negativity, and the Gram-matrix
positive-definiteness witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import DephasingSeries, ohmic_series, symmetry_residual
from .ensemble import SpectralEnsemble, _coherence_factor


class SeriesSymmetryError(ValueError):
    """Inversion input violates conjugate symmetry."""


@dataclass(frozen=True)
class QuasiDistribution:
    """Real distribution on a uniform frequency grid plus legitimacy diagnostics.

    negativity = -int min(values, 0) dw; realness_residual is the largest
    imaginary part discarded during inversion.
    """

    omega: np.ndarray
    values: np.ndarray
    norm: float
    min_value: float
    negativity: float
    realness_residual: float

    @classmethod
    def from_samples(cls, omega, values, realness_residual: float = 0.0):
        omega = np.asarray(omega, dtype=float).copy()
        values = np.asarray(values, dtype=float).copy()
        if omega.ndim != 1 or omega.size < 2 or values.shape != omega.shape:
            raise ValueError("omega grid and values must be matching 1-d arrays")
        omega.setflags(write=False)
        values.setflags(write=False)
        return cls(
            omega=omega,
            values=values,
            norm=float(np.trapezoid(values, omega)),
            min_value=float(np.min(values)),
            negativity=float(-np.trapezoid(np.minimum(values, 0.0), omega)),
            realness_residual=float(realness_residual),
        )

    @property
    def domega(self) -> float:
        return float(self.omega[1] - self.omega[0])


@dataclass(frozen=True)
class BochnerReport:
    """Smallest eigenvalue of the Gram matrix [phi(t_j - t_k)] for one time set."""

    times: np.ndarray
    min_eigenvalue: float
    matrix_dim: int


def conjugate_frequency_grid(times: np.ndarray) -> np.ndarray:
    dt = float(times[1] - times[0])
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(times.size, d=dt))


def on_conjugate_grid(omega: np.ndarray, grid: np.ndarray) -> bool:
    """True when omega is the FFT conjugate of the symmetric time grid (same size, centered)."""
    n = grid.size
    dt = float(grid[1] - grid[0])
    domega = float(omega[1] - omega[0])
    return bool(
        omega.size == n
        and abs(domega * dt * n - 2.0 * np.pi) <= 1e-9 * 2.0 * np.pi
        and abs(omega[n // 2]) <= 1e-9 * max(abs(omega[-1]), 1.0)
    )


def _as_omega_weights(dist):
    if isinstance(dist, QuasiDistribution):
        return dist.omega, dist.values
    if isinstance(dist, SpectralEnsemble):
        return dist.omega, dist.weights
    omega, weights = dist
    return np.asarray(omega, dtype=float), np.asarray(weights, dtype=float)


def forward_ft(dist, grid: np.ndarray) -> DephasingSeries:
    """Dephasing series phi(t) = int p(w) e^{i w t} dw of a real distribution.

    Uses the exact FFT pair when the input lives on the conjugate grid of
    ``grid``; off it, each time is the trapezoid sum ``_coherence_factor``
    of the spectral ensembles, for at most 2^28 (frequency, time) pairs.
    The result is normalized by its t = 0 sample (the discrete mass of the
    input, required to be 1 within 1e-6) so the series invariants hold for
    any legal input.
    """
    omega, weights = _as_omega_weights(dist)
    if np.iscomplexobj(weights):
        raise ValueError("weights must be real")
    grid = np.asarray(grid, dtype=float)
    n = grid.size
    domega = float(omega[1] - omega[0])
    if on_conjugate_grid(omega, grid):
        values = domega * n * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(weights)))
    else:
        if omega.size * n > 1 << 28:
            raise ValueError(
                "grids too large for direct summation; use conjugate grids for the FFT path"
            )
        values = np.array([_coherence_factor(omega, weights, t) for t in grid])

    mass = float(np.real(values[n // 2]))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError("input mass differs from 1 beyond tolerance")
    return DephasingSeries(grid, values / mass)


def inverse_ft(series: DephasingSeries) -> QuasiDistribution:
    """Recover the simulating (quasi-)distribution of a dephasing series.

    wp(w_k) = (dt/2pi) sum_n phi(t_n) e^{-i w_k t_n} on the conjugate grid
    dw = 2pi/(N dt); the imaginary residual is recorded, never silently lost.
    """
    if symmetry_residual(series.values) > 1e-8:
        raise SeriesSymmetryError("series not conjugate-symmetric")
    omega = conjugate_frequency_grid(series.times)
    spectrum = series.dt / (2.0 * np.pi) * np.fft.fftshift(
        np.fft.fft(np.fft.ifftshift(series.values))
    )
    return QuasiDistribution.from_samples(
        omega, spectrum.real, realness_residual=float(np.max(np.abs(spectrum.imag)))
    )


def roundtrip_error(dist) -> float:
    """L-infinity self-consistency of the transform pair on the input's grid."""
    omega, weights = _as_omega_weights(dist)
    n = omega.size
    domega = float(omega[1] - omega[0])
    dt = 2.0 * np.pi / (n * domega)
    grid = (np.arange(n) - n // 2) * dt
    series = forward_ft((omega, weights), grid)
    back = inverse_ft(series)
    return float(np.max(np.abs(back.values - weights)))


def bochner_witness(series: DephasingSeries, times) -> BochnerReport:
    """Assemble the Hermitian Gram matrix phi(t_j - t_k) and report its floor.

    The times must be grid points of the series whose pairwise differences
    are grid points too; the matrix entries are the series' own samples.
    For a positive-definite dephasing factor the smallest eigenvalue is
    nonnegative; a clearly negative value certifies that no probability
    distribution generates the series.
    """
    times = np.asarray(times, dtype=float)
    n0 = series.n // 2
    k = np.rint(times / series.dt)
    if not (np.all((k >= -n0) & (k < n0)) and np.ptp(k) < n0):
        raise ValueError("time outside the series grid")
    k = k.astype(int)
    if np.max(np.abs(series.times[n0 + k] - times)) > 1e-9 * series.dt:
        raise ValueError("time off the series grid")
    m = series.values[n0 + np.subtract.outer(k, k)]
    m = 0.5 * (m + m.conj().T)
    return BochnerReport(
        times=times,
        min_eigenvalue=float(np.linalg.eigvalsh(m)[0]),
        matrix_dim=times.size,
    )


def bochner_search(series: DephasingSeries, restarts: int, seed: int,
                   max_size: int = 8, stop_below: float | None = None):
    """Randomized search for a Gram matrix with a negative floor.

    Time sets of size 2..max_size are drawn uniformly from the grid points in
    [0, t_max / 4], a quarter of the series span.  Returns
    (best report, restarts used).  Raises ValueError unless restarts >= 1 and
    max_size >= 2.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    k_hi = int(0.25 * series.t_max / series.dt)
    n0 = series.n // 2
    rng = np.random.default_rng(seed)
    best = None
    used = 0
    for _ in range(restarts):
        used += 1
        size = int(rng.integers(2, max_size + 1))
        times = series.times[n0 + rng.integers(0, k_hi + 1, size)]
        rep = bochner_witness(series, times)
        if best is None or rep.min_eigenvalue < best.min_eigenvalue:
            best = rep
        if stop_below is not None and best.min_eigenvalue < stop_below:
            break
    return best, used


def negativity_landscape(omega_c: float, phases, omega_window, grid: np.ndarray):
    """Negative part of the recovered extended-model distribution over (w, phase).

    For each phase, builds the closed-form Ohmic extended series, inverts it,
    and keeps min(wp, 0) on the requested frequency window.  Returns
    (omega, phases, matrix) with matrix shape (len(omega), len(phases)).
    """
    phases = np.asarray(phases, dtype=float)
    lo, hi = float(omega_window[0]), float(omega_window[1])
    omega_full = conjugate_frequency_grid(grid)
    mask = (omega_full >= lo) & (omega_full <= hi)
    omega = omega_full[mask]

    cols = [np.minimum(inverse_ft(ohmic_series(omega_c, grid, phase=p)).values[mask], 0.0)
            for p in phases]
    return omega, phases, np.column_stack(cols)
