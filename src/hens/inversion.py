"""Fourier pair between frequency distributions and dephasing factors.

Discrete realization of the continuum pair

    phi(t)   = int p(w) e^{+i w t} dw
    wp(w)    = (1/2pi) int phi(t) e^{-i w t} dt

on conjugate grids (dw = 2pi / (N dt)), plus the diagnostics that decide
whether the recovered distribution is a legitimate probability density:
normalization, realness, negativity, and the Gram-matrix positive-definiteness
witness.  All of them read the t >= 0 half a ``DephasingSeries`` holds, by the
symmetry phi(-t) = conj(phi(t)) of a real distribution's series: the forward
transform is one ``np.fft.ihfft``, every spectrum one ``np.fft.hfft`` of the
half (``_half_spectrum``), and a Gram matrix takes a negative lag's conjugate.
The sample at t = -t_max has no partner on the grid, so a series' spectrum is
real only up to the realness residual, the transform of its anti-Hermitian part.

The extended model at phase p + pi has the conjugate series conj phi_p(t), whose
distribution is the mirror image wp_p(-w); ``negativity_landscape`` evaluates
only one phase of each such pair.  ``bochner_search`` draws its restarts' set
sizes and indices from two seeded streams, in blocks whose size does not change
the draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import DephasingSeries, _extended_pair, _extended_values, _half_grid
from .dephasing import _half_spectrum
from .dephasing import ohmic_series  # noqa: F401  bench/spans.py wraps this name
from .ensemble import _coherence_factor

# Restarts of bochner_search drawn before their floors are evaluated.  Blocks of
# 256, 512 and 1024 took the same time for 10000 restarts (2-core VM, BLAS at
# one thread); the smallest holds least and wastes least work past stop_below.
WITNESS_BLOCK = 256
GRAM_ENTRIES = 1 << 12  # Gram-matrix entries per eigvalsh call: 64 KiB of complex128
TRAPEZOID_BLOCK = 1 << 12  # trapezoid terms formed at a time: 32 KiB of float64


def _trapezoid(y: np.ndarray, x: np.ndarray, negative_part: bool = False,
               lo: int = 0, hi: int | None = None) -> float:
    """``np.trapezoid(y, x)``, or of ``np.minimum(y, 0.0)``, bit for bit, holding no
    array of the grid's size; ``lo`` and ``hi`` select the terms of one recursion step.

    np.trapezoid sums its terms d_k (y_k + y_{k+1}) / 2 as one array, by numpy's
    pairwise sum: halves of a multiple of 8 terms, down to 128.  Here the same halves
    go down to TRAPEZOID_BLOCK terms, each formed on its own and summed by ``np.sum``,
    which adds it as it would inside the whole array.
    """
    hi = y.size - 1 if hi is None else hi
    if hi - lo > TRAPEZOID_BLOCK:
        mid = (hi - lo) // 2
        mid -= mid % 8
        return (_trapezoid(y, x, negative_part, lo, lo + mid)
                + _trapezoid(y, x, negative_part, lo + mid, hi))
    part = y[lo:hi + 1]
    if negative_part:
        part = np.minimum(part, 0.0)
    return float(((x[lo + 1:hi + 1] - x[lo:hi]) * (part[1:] + part[:-1]) / 2.0).sum())


@dataclass(frozen=True)
class QuasiDistribution:
    """Real distribution on a uniform frequency grid plus legitimacy diagnostics.

    negativity = -int min(values, 0) dw.  realness_residual is the largest
    imaginary part of the spectrum, which ``inverse_ft`` leaves out of
    ``values``: (dt/2pi) max |transform of the series' anti-Hermitian part|.
    For a series the package builds it is the truncation term
    (dt/2pi) |Im phi(-t_max)| of the grid's unpaired edge sample; a series
    read from a file adds its own departure from phi(-t) = conj(phi(t)).
    """

    omega: np.ndarray
    values: np.ndarray
    norm: float
    min_value: float
    negativity: float
    realness_residual: float

    @classmethod
    def from_samples(cls, omega, values, realness_residual: float = 0.0):
        """The distribution of copies of ``omega`` and ``values``."""
        return cls._owning(np.array(omega, dtype=float), np.array(values, dtype=float),
                           realness_residual)

    @classmethod
    def _owning(cls, omega: np.ndarray, values: np.ndarray, realness_residual: float):
        """``from_samples`` of float arrays that no one else holds: it keeps them, read-only."""
        if omega.ndim != 1 or omega.size < 2 or values.shape != omega.shape:
            raise ValueError("omega grid and values must be matching 1-d arrays")
        omega.setflags(write=False)
        values.setflags(write=False)
        return cls(
            omega=omega,
            values=values,
            norm=_trapezoid(values, omega),
            min_value=float(np.min(values)),
            negativity=-_trapezoid(values, omega, negative_part=True),
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


def conjugate_frequency_grid(n: int, dt: float) -> np.ndarray:
    """The FFT conjugate frequencies of n times dt apart; a ValueError unless dt is finite
    and positive, or when it is so small that they overflow."""
    dt = float(dt)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"time step {dt!r} must be finite and positive")
    with np.errstate(over="ignore", invalid="ignore"):
        # 2 pi fftshift(fftfreq(n, dt)), point for point, in one array: k / (n dt) for
        # k = -(n // 2) .. n - n // 2 - 1
        omega = np.arange(-(n // 2), n - n // 2, dtype=float)
        omega *= 1.0 / (n * dt)
        omega *= 2.0 * np.pi
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"time step {dt!r} is too small: its conjugate frequencies "
                         "are not representable in floating point")
    return omega


def on_conjugate_grid(omega: np.ndarray, n: int, dt: float) -> bool:
    """True when omega is, point by point, the FFT conjugate of n times dt apart."""
    try:
        conjugate = conjugate_frequency_grid(n, dt)
    except ValueError:  # no finite omega is the conjugate of such a grid
        return False
    return bool(omega.shape == conjugate.shape
                and np.max(np.abs(omega - conjugate)) <= 1e-9 * abs(conjugate[0]))


def _distribution(dist) -> tuple[np.ndarray, np.ndarray]:
    """The pair (omega, weights) of a real distribution as float arrays; ValueError for
    complex weights, or unless both are finite and 1-d, of one size of at least 2."""
    omega, weights = dist
    if np.iscomplexobj(weights):
        raise ValueError("weights must be real")
    omega, weights = np.asarray(omega, dtype=float), np.asarray(weights, dtype=float)
    if not (omega.ndim == 1 and omega.size >= 2 and weights.shape == omega.shape
            and np.all(np.isfinite(omega)) and np.all(np.isfinite(weights))):
        raise ValueError("omega grid and weights must be matching finite 1-d arrays")
    return omega, weights


def forward_ft(dist, grid: np.ndarray) -> DephasingSeries:
    """Dephasing series phi(t) = int p(w) e^{i w t} dw of a real distribution.

    ``dist`` is the pair (omega, weights) of frequencies and real weights,
    matching finite 1-d arrays of two or more points; any other pair raises
    ValueError.  Uses the exact FFT pair when the input lives on the conjugate
    grid of ``grid``; off it, the series' half is one ``_coherence_factor`` call at
    0, dt, ..., t_max, for at most 2^28 (frequency, grid time) pairs.  The result
    is normalized by its t = 0 sample (the discrete mass of the input, required to
    be 1 within 1e-6) so the series invariants hold for any legal input.
    """
    omega, weights = _distribution(dist)
    t, dt = _half_grid(grid)
    n = 2 * (t.size - 1)
    if on_conjugate_grid(omega, n, dt):
        half = float(omega[1] - omega[0]) * n * np.fft.ihfft(np.fft.ifftshift(weights))
    else:
        if omega.size * n > 1 << 28:
            raise ValueError(
                "grids too large for direct summation; use conjugate grids for the FFT path"
            )
        t[-1] = -t[-1]  # t_max: its conjugate is the edge sample
        half = _coherence_factor(omega, weights, t)
    # phi(j dt) for j = 0 .. n/2; the last becomes the edge sample phi(-t_max)
    half[-1] = np.conj(half[-1])

    mass = float(np.real(half[0]))
    if abs(mass - 1.0) > 1e-6:
        raise ValueError("input mass differs from 1 beyond tolerance")
    half /= mass
    return DephasingSeries(dt, half)


def inverse_ft(series: DephasingSeries) -> QuasiDistribution:
    """Recover the simulating (quasi-)distribution of a dephasing series.

    wp(w_k) = (dt/2pi) sum_n phi(t_n) e^{-i w_k t_n} on the conjugate grid
    dw = 2pi/(N dt).  ``values`` is one ``np.fft.hfft`` of the series' half; the
    transform of the anti-Hermitian part is imaginary, and its largest modulus,
    the series' ``realness_residual``, is recorded, never silently lost.
    """
    # the spectrum first: it peaks at two arrays of the grid's size, the grid at one
    values = _half_spectrum(series.half, series.dt)
    return QuasiDistribution._owning(conjugate_frequency_grid(series.n, series.dt), values,
                                     series.realness_residual)


def roundtrip_error(dist) -> float:
    """L-infinity self-consistency of the transform pair on the grid of ``dist`` =
    (omega, weights), the pair ``forward_ft`` takes."""
    omega, weights = _distribution(dist)
    n = omega.size
    dt = 2.0 * np.pi / (n * float(omega[1] - omega[0]))
    back = inverse_ft(forward_ft((omega, weights), (np.arange(n) - n // 2) * dt))
    return float(np.max(np.abs(back.values - weights)))


def _gram_floors(half: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the Gram matrix [phi(t_j - t_l)] of each row of ``k``.

    ``half`` is a series' half layout and ``k`` an (R, s) stack of index sets, each
    index counted in grid steps from t = 0, whose differences d = k[r, j] - k[r, l]
    stay below n/2 in modulus.  Entry (j, l) of row r is ``half[d]``, or
    ``conj(half[-d])`` for d < 0, so each matrix is exactly Hermitian; the stack
    goes to ``eigvalsh`` at most GRAM_ENTRIES matrix entries at a time.
    """
    step = max(1, GRAM_ENTRIES // k.shape[1] ** 2)
    floors = np.empty(k.shape[0])
    for lo in range(0, k.shape[0], step):
        part = k[lo:lo + step]
        lag = part[:, :, None] - part[:, None, :]
        m = half[np.abs(lag)]
        np.conjugate(m, out=m, where=lag < 0)
        floors[lo:lo + step] = np.linalg.eigvalsh(m)[:, 0]
    return floors


def bochner_witness(series: DephasingSeries, times) -> BochnerReport:
    """Assemble the Hermitian Gram matrix phi(t_j - t_k) and report its floor.

    The times must be a nonempty 1-d array of grid points of the series whose
    pairwise differences are grid points too; the matrix entries are the
    series' own samples.  For a positive-definite dephasing factor the
    smallest eigenvalue is nonnegative; a clearly negative value certifies
    that no probability distribution generates the series.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not times.size:
        raise ValueError("times must be a nonempty 1-d array")
    n0 = series.n // 2
    k = np.rint(times / series.dt)
    if not (np.all((k >= -n0) & (k < n0)) and np.ptp(k) < n0):
        raise ValueError("time outside the series grid")
    k = k.astype(int)
    if np.max(np.abs(k * series.dt - times)) > 1e-9 * series.dt:
        raise ValueError("time off the series grid")
    return BochnerReport(
        times=times,
        min_eigenvalue=float(_gram_floors(series.half, k[None])[0]),
        matrix_dim=times.size,
    )


def _gram_bounds(moduli: np.ndarray, indices: np.ndarray,
                 sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gershgorin radius and largest off-diagonal modulus of each set's Gram matrix.

    The sets are the consecutive runs of ``indices`` with lengths ``sizes``, each of
    distinct indices counted in grid steps from t = 0.  ``moduli[d]`` is |phi(d dt)|
    for the lags d > 0 that the sets reach, and 0 at d = 0 and at its last entry.
    A stack of sets is padded to the largest size with the index 1 - moduli.size,
    whose lag to every index clips to that last entry, so padding adds exact
    zeros; column by column, the stack's moduli |G_jl| add into the row sums.  At
    most GRAM_ENTRIES padded indices are held at a time.  Returns, per set, the
    computed max_j sum_{l != j} |G_jl| and max_{j != l} |G_jl|.
    """
    width = int(sizes.max())
    step = max(1, GRAM_ENTRIES // width)
    ends = np.cumsum(sizes)
    radius, largest = np.empty(sizes.size), np.empty(sizes.size)
    for lo in range(0, sizes.size, step):
        part = sizes[lo:lo + step]
        # column j of the stack is row j here, so every reduction runs across rows
        padded = np.full((width, part.size), 1 - moduli.size)
        runs = indices[ends[lo] - part[0]:ends[lo + part.size - 1]]
        padded.T[np.arange(width) < part[:, None]] = runs
        lag, m, sums = np.empty_like(padded), np.empty(padded.shape), np.zeros(padded.shape)
        peak = largest[lo:lo + step]
        peak.fill(0.0)
        for j in range(width):
            np.subtract(padded, padded[j], out=lag)
            np.abs(lag, out=lag)
            moduli.take(lag, out=m, mode="clip")
            sums += m
            np.maximum(peak, m.max(axis=0), out=peak)
        np.max(sums, axis=0, out=radius[lo:lo + step])
    return radius, largest


def _distinct_draws(indices: np.ndarray, sizes: np.ndarray,
                    span: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets of ``sizes`` consecutive ``indices`` (each in [0, span)) on their distinct
    indices: a time drawn twice in one set adds a copy of its row, so each set keeps
    the first draw of each time.  Returns the kept indices and the sets' new sizes."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    first = np.unique(owner * span + indices, return_index=True)[1]
    first.sort()
    return indices[first], np.bincount(owner[first], minlength=sizes.size)


def bochner_search(series: DephasingSeries, restarts: int, seed: int,
                   max_size: int = 8, stop_below: float | None = None):
    """Randomized search for a Gram matrix with a negative floor.

    Time sets of size 2..max_size are drawn uniformly from the grid points j dt in
    [0, t_max / 4], j <= n/8, a quarter of the series span, and a time drawn twice in a set
    counts once: each set is evaluated on its distinct times, in the order of
    their first draws, so no report holds a time twice.  The set sizes come from the
    first child of ``np.random.SeedSequence(seed).spawn(2)`` and the indices
    from the second, each stream read in restart order.  The restarts are drawn
    WITNESS_BLOCK at a time, one ``integers`` call for a block's sizes and one
    for all its indices, so the draws do not depend on WITNESS_BLOCK.

    Only the floors that can decide the result are computed.  With a = Re phi(0),
    the diagonal ``eigvalsh`` reads, the floor of a restart's Gram matrix G of s
    times lies between L = a - max_j sum_{l != j} |G_jl| (Gershgorin's discs) and
    U = a - max_{j != l} |G_jl| (Cauchy interlacing with the 2 x 2 principal
    submatrix of that entry; Horn & Johnson, Matrix Analysis, 6.1 and 4.3), both
    read from the moduli alone (``_gram_bounds``).  In a block the cap is
    min(smallest U, best floor of the earlier blocks), raised to ``stop_below``
    when one is given, and only the restarts with L <= cap + M are grouped by size
    and eigensolved in stacks (``_gram_floors``).

    The margin M covers rounding.  With mu the largest of |phi(0)| and the moduli,
    ||G||_2 <= s mu.  ``eigvalsh`` returns the eigenvalues of G + E with
    ||E||_2 <= p(s) eps ||G||_2 (LAPACK Users' Guide, 4.7, where p(s) grows
    modestly with s; we take p(s) = 4 s^2), so by Weyl's inequality a computed
    floor is within 4 s^2 eps s mu of the exact one.  A computed row sum of s - 1
    moduli, each within one rounding of |G_jl|, is within (s - 1) eps of the exact
    sum relative to it, so within s eps s mu, and the subtraction from a rounds
    once more; U rounds twice.  So each computed floor lies within
    delta = (4 s^2 + s + 1) eps s mu <= 6 s^3 eps mu of the computed [L, U], and
    M = 32 s^3 eps mu, s the block's largest set, exceeds 2 delta and the rounding
    of cap + M.  A skipped restart's floor therefore exceeds cap + delta: it is
    above the floor of the restart with the smallest U (itself eigensolved, as
    L <= U), or above the best floor so far, and not below ``stop_below``.  So the
    skipped restarts neither hold a block's smallest floor, ties included, nor
    stop the search, and the result is that of one ``bochner_witness`` call per
    restart, bit for bit: the best report is the first restart that reaches the
    smallest floor, and with ``stop_below`` the search ends at the first restart
    whose floor is below it, counted in the restarts used.  At the defaults 452
    of the 10000 restarts of the extended series at phase pi/2 are eigensolved.
    Memory does not grow with ``restarts``.

    Returns (best report, restarts used).  Raises ValueError unless
    restarts >= 1 and max_size >= 2, or for a NaN ``stop_below``.
    """
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if stop_below is not None and np.isnan(stop_below):
        raise ValueError("stop_below must be a number or +-inf, not NaN")
    k_hi = series.n // 8
    size_rng, index_rng = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2))
    # |phi(d dt)| for the lags 0 < d <= k_hi, with 0 at d = 0 and at d = k_hi + 1 (padding)
    moduli = np.zeros(k_hi + 2)
    np.abs(series.half[1:k_hi + 1], out=moduli[1:-1])
    diagonal = float(series.half[0].real)
    mu = max(abs(complex(series.half[0])), float(moduli.max()))
    best_floor, best_k, used = np.inf, None, 0
    while used < restarts:
        sizes = size_rng.integers(2, max_size + 1, min(WITNESS_BLOCK, restarts - used))
        indices = index_rng.integers(0, k_hi + 1, int(sizes.sum()))
        indices, sizes = _distinct_draws(indices, sizes, k_hi + 1)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        radius, largest = _gram_bounds(moduli, indices, sizes)
        cap = min(float(np.min(diagonal - largest)), best_floor)
        if stop_below is not None:
            cap = max(cap, stop_below)
        cap += 32.0 * int(sizes.max()) ** 3 * np.finfo(float).eps * mu
        screened = np.flatnonzero(diagonal - radius <= cap)
        floors = np.full(sizes.size, np.inf)  # above every floor: a skipped restart's place
        for size in np.unique(sizes[screened]):
            at = screened[sizes[screened] == size]
            floors[at] = _gram_floors(series.half, indices[starts[at, None] + np.arange(size)])
        below = np.flatnonzero(floors < stop_below) if stop_below is not None else []
        if len(below):
            floors = floors[:below[0] + 1]
        i = int(np.argmin(floors))  # the first restart at the block's smallest floor
        if floors[i] < best_floor:
            best_floor, best_k = floors[i], indices[starts[i]:ends[i]]
        used += floors.size
        if len(below):
            break
    report = BochnerReport(times=best_k * series.dt, min_eigenvalue=float(best_floor),
                           matrix_dim=best_k.size)
    return report, used


def negativity_landscape(exponent, drift, phases, omega_window, dt: float):
    """Negative part of the recovered extended-model distribution over (w, phase).

    ``(exponent, drift)`` is the extended model's half pair on a grid of step dt
    (see ``extended_exponents``).  The pair, dt and phases are checked once; each column
    is then ``inverse_ft``'s spectrum of that phase's series, kept as min(wp, 0)
    on the requested frequency window.  Phase p + pi only flips the sign of
    theta, so its series is conj phi_p(t) and its distribution is wp(-w): a
    phase q whose distance (q - p) mod 2pi from an earlier phase p lies within
    8 ulp(2pi) (about 7.1e-15) of pi is not evaluated, and its column is p's
    spectrum read at -w: index (n - k) mod n of the fftshifted spectrum, where
    the Nyquist frequency maps onto itself by the DFT's periodicity.  Only
    evaluated phases are partners, and only window columns are kept.  Returns
    (omega, phases, matrix) with matrix shape (len(omega), len(phases)).
    Raises ValueError for a pair or phase ``extended_series`` rejects, no
    phases, or a window without grid frequencies.
    """
    exponent, drift = _extended_pair(exponent, drift)
    phases = np.asarray(phases, dtype=float)
    if phases.ndim != 1 or not phases.size:
        raise ValueError("phases must be a nonempty 1-d array")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    lo, hi = float(omega_window[0]), float(omega_window[1])
    n, dt = 2 * (exponent.size - 1), float(dt)
    omega_full = conjugate_frequency_grid(n, dt)
    mask = (omega_full >= lo) & (omega_full <= hi)
    omega = omega_full[mask]
    if not omega.size:
        span = [float(omega_full[0]), float(omega_full[-1])]
        raise ValueError(f"frequency window [{lo!r}, {hi!r}] holds no frequency of the grid, "
                         f"whose frequencies span {span}")
    window = np.flatnonzero(mask)
    mirror = (n - window) % n  # the index of -w on the fftshifted grid
    # partner[j]: the earlier evaluated phase that phase j mirrors, or -1 to evaluate j
    pair_tol = 8.0 * np.spacing(2.0 * np.pi)
    partner = np.full(phases.size, -1)
    for j in range(1, phases.size):
        earlier = np.flatnonzero(partner[:j] < 0)
        near = np.abs(np.mod(phases[j] - phases[earlier], 2.0 * np.pi) - np.pi) <= pair_tol
        if near.any():
            partner[j] = earlier[np.argmax(near)]
    cells = np.empty((window.size, phases.size))
    for j in np.flatnonzero(partner < 0):
        spectrum = _half_spectrum(_extended_values(exponent, drift, phases[j]), dt)
        cells[:, j] = np.minimum(spectrum[window], 0.0)
        cells[:, partner == j] = np.minimum(spectrum[mirror], 0.0)[:, None]
    return omega, phases, cells
