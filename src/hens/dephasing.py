"""Spectral densities, decoherence exponents, and dephasing-factor series.

The decoherence exponent is the oscillatory frequency integral

    Phi(t) = 4 * int_0^inf J(w)/w^2 * coth(w / 2T) * (1 - cos(w t)) dw

evaluated with composite Gauss-Legendre panels whose width respects the
oscillation bound pi / (4|t|).  ``_panel_nodes`` cuts every interval of the
base partition (the table knots, or [0, omega_max], split at 4T) into equal
panels in one vectorized pass, with the same edge arithmetic as one
``np.linspace`` per interval.  The extended two-qubit model adds an odd phase
angle built from the companion integrals int 4J/w^2 (w t - sin w t) dw and the
T=0 exponent; ``_knot_integrals`` returns the even (1 - cos) and the odd sine
integral of one time from one node set and one evaluation of 4J/w^2, so the
extended series and ``extended_phase`` share one evaluator.  Series on dense
symmetric time grids are produced by sampling the exponent at adaptively
refined knots and interpolating with a verified cubic spline; the knot
tolerance is weighted by e^{+Phi} because only e^{-Phi} * dPhi reaches the
series values.  The sine spline of the extended model reuses the odd integrals
of the Phi knots it shares.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.interpolate import CubicSpline

from .qdyn import PAULI_Z, DensityMatrix

SERIES_SYM_TOL = 1e-12
SERIES_UNIT_TOL = 1e-12
TAIL_EPS = 1e-12
MAX_PANELS = 1 << 18  # 4.2M nodes per integral, ~16x what the Ohmic model needs at t = 200

_GL_X, _GL_W = leggauss(16)


class CoefficientSingularityError(ValueError):
    """The dephasing factor vanishes where a log-derivative is required."""

    def __init__(self, t: float):
        super().__init__(f"coefficient singularity: dephasing factor vanishes near t = {t!r}")
        self.t = t


def _coth(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < 1e-4
    xs = np.where(small, x, 1.0)
    out[small] = (1.0 / xs + xs / 3.0)[small]
    out[~small] = 1.0 / np.tanh(x[~small])
    return out


@dataclass(frozen=True)
class SpectralDensityModel:
    """Environment descriptor J(w) plus temperature (0 means the T->0 limit).

    kind is "ohmic_exp_cutoff" (J = w exp(-w/omega_c)) or "tabulated"
    (linear interpolation between strictly increasing samples, zero outside).
    Temperature is in energy units with hbar = k_B = 1.
    """

    kind: str
    omega_c: float = 1.0
    table_omega: np.ndarray | None = None
    table_j: np.ndarray | None = None
    temperature: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be finite and nonnegative")
        if self.kind == "ohmic_exp_cutoff":
            if not (math.isfinite(self.omega_c) and self.omega_c > 0.0):
                raise ValueError("cutoff frequency must be finite and positive")
        elif self.kind == "tabulated":
            om = np.asarray(self.table_omega, dtype=float).copy()
            jv = np.asarray(self.table_j, dtype=float).copy()
            if om.ndim != 1 or om.size < 2 or jv.shape != om.shape:
                raise ValueError("tabulated model needs matching (omega, J) columns")
            if np.min(np.diff(om)) <= 0.0:
                raise ValueError("tabulated omega must be strictly increasing")
            if np.min(om) < 0.0:
                raise ValueError("tabulated omega must be nonnegative")
            if np.min(jv) < 0.0:
                raise ValueError("tabulated J must be nonnegative")
            om.setflags(write=False)
            jv.setflags(write=False)
            object.__setattr__(self, "table_omega", om)
            object.__setattr__(self, "table_j", jv)
        else:
            raise ValueError(f"unknown spectral density kind: {self.kind!r}")

    @classmethod
    def ohmic(cls, omega_c: float, temperature: float = 0.0) -> "SpectralDensityModel":
        return cls(kind="ohmic_exp_cutoff", omega_c=float(omega_c), temperature=float(temperature))

    @classmethod
    def tabulated(cls, omega, j, temperature: float = 0.0) -> "SpectralDensityModel":
        return cls(kind="tabulated", table_omega=omega, table_j=j, temperature=float(temperature))

    def density(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.kind == "ohmic_exp_cutoff":
            return omega * np.exp(-omega / self.omega_c)
        return np.interp(omega, self.table_omega, self.table_j, left=0.0, right=0.0)

    def omega_max(self) -> float:
        if self.kind == "ohmic_exp_cutoff":
            return self.omega_c * max(40.0, 10.0 + 2.0 * math.log(1.0 / TAIL_EPS))
        return float(self.table_omega[-1])

    def omega_scale(self) -> float:
        """Rough width of J, used to cap panel sizes."""
        if self.kind == "ohmic_exp_cutoff":
            return self.omega_c
        return float(self.table_omega[-1] - self.table_omega[0])


def _panel_nodes(model: SpectralDensityModel, t: float):
    """Gauss-Legendre nodes/weights on [0, omega_max] resolving J, coth and e^{i w t}.

    Every interval [a, b] of the base partition is cut into k equal panels, and
    all intervals are built in one pass with the arithmetic of
    ``np.linspace(a, b, k + 1)``: edge j is j * ((b - a) / k) + a, the last is b.
    """
    osc = np.pi / (4.0 * abs(t)) if t != 0.0 else np.inf
    cap = min(0.5 * model.omega_scale(), osc)
    if model.kind == "tabulated":
        base = np.unique(np.concatenate([[0.0], model.table_omega]))
    else:
        base = np.array([0.0, model.omega_max()])
    temp = model.temperature
    if temp > 0.0:
        base = np.unique(np.concatenate([base, [min(4.0 * temp, base[-1])]]))
    a, b = base[:-1], base[1:]
    width = np.full(a.size, cap)
    if temp > 0.0:
        width[a < 4.0 * temp] = min(cap, 0.5 * temp)
    span = b - a
    k = np.maximum(np.ceil(span / width), 1.0)
    if not k.sum() <= MAX_PANELS:
        raise ValueError(f"quadrature at t = {t!r} needs more than {MAX_PANELS} panels; "
                         "shorten the time grid")
    k = k.astype(np.int64)
    ends = np.cumsum(k)
    j = (np.arange(1, ends[-1] + 1) - np.repeat(ends - k, k)).astype(float)
    e = np.empty(ends[-1] + 1)
    e[0] = base[0]
    e[1:] = j * np.repeat(span / k, k) + np.repeat(a, k)
    e[ends] = b
    c = 0.5 * (e[1:] + e[:-1])
    h = 0.5 * (e[1:] - e[:-1])
    nodes = (c[:, None] + h[:, None] * _GL_X[None, :]).ravel()
    weights = (h[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def _one_minus_cos_integral(model: SpectralDensityModel, t: float, with_coth: bool) -> float:
    """int_0^inf 4 J/w^2 [coth(w/2T)] (1 - cos w t) dw, even in t."""
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    nodes, weights = _panel_nodes(model, t)
    f = 4.0 * model.density(nodes) / nodes**2 * (2.0 * np.sin(0.5 * nodes * t) ** 2)
    if with_coth and model.temperature > 0.0:
        f = f * _coth(nodes / (2.0 * model.temperature))
    return max(float(f @ weights), 0.0)


def _sine_integral(model: SpectralDensityModel, t: float) -> float:
    """int_0^inf 4 J/w^2 sin(w t) dw, odd in t."""
    s = math.copysign(1.0, t) if t != 0.0 else 0.0
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    nodes, weights = _panel_nodes(model, t)
    f = 4.0 * model.density(nodes) / nodes**2 * np.sin(nodes * t)
    return s * float(f @ weights)


def _knot_integrals(model: SpectralDensityModel, t: float) -> tuple[float, float]:
    """The T = 0 (1 - cos) and the sine integral at t, as (even, odd), from one node set.

    Bit-identical to ``_one_minus_cos_integral(model, t, with_coth=False)`` and
    ``_sine_integral(model, t)``: the nodes and the factor 4 J/w^2 are shared,
    the operation order is theirs.
    """
    s = math.copysign(1.0, t) if t != 0.0 else 0.0
    t = abs(float(t))
    if t == 0.0:
        return 0.0, 0.0
    nodes, weights = _panel_nodes(model, t)
    g = 4.0 * model.density(nodes) / nodes**2
    even = g * (2.0 * np.sin(0.5 * nodes * t) ** 2) @ weights
    odd = g * np.sin(nodes * t) @ weights
    return max(float(even), 0.0), s * float(odd)


def _inverse_frequency_mass(model: SpectralDensityModel) -> float:
    """int_0^inf 4 J/w dw (the linear-in-t part of the drift integral)."""
    nodes, weights = _panel_nodes(model, 0.0)
    f = 4.0 * model.density(nodes) / nodes
    return float(f @ weights)


def decoherence_exponent(model: SpectralDensityModel, t):
    """Nonnegative exponent controlling |phi(t)| = e^{-Phi(t)}; even, Phi(0) = 0."""
    ts = np.asarray(t, dtype=float)
    out = np.array([_one_minus_cos_integral(model, x, with_coth=True) for x in ts.ravel()])
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def extended_phase(model: SpectralDensityModel, phase: float, t):
    """Odd phase angle of the two-qubit extended model at T = 0.

    cos(phase) * int 4J/w^2 (w t - sin w t) dw
      + sign(t) * sin(phase) * int 4J/w^2 (1 - cos w t) dw
    """
    if model.temperature != 0.0:
        raise ValueError("extended model implemented at T=0 only")
    ts = np.asarray(t, dtype=float)
    c1 = _inverse_frequency_mass(model)
    vals = []
    for x in ts.ravel():
        even, odd = _knot_integrals(model, x)
        drift = c1 * x - odd
        vals.append(math.cos(phase) * drift + np.sign(x) * math.sin(phase) * even)
    out = np.array(vals)
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _adaptive_curve(f, t_hi: float, tol: float, weight=None, n0: int = 32,
                    max_depth: int = 36):
    """Cubic spline of f on [0, t_hi] from adaptively refined quadrature knots.

    Midpoints are verified against a local cubic through the four nearest
    knots (kept in a sorted list); intervals failing tol * weight(t, value)
    are split.
    """
    xs = np.unique(np.concatenate([
        np.linspace(0.0, t_hi, n0 + 1),
        np.geomspace(t_hi * 2.0 ** -12, t_hi, n0 + 1),
    ]))
    xs = np.concatenate([[0.0], xs[xs > 0.0]])
    vals = {float(x): f(float(x)) for x in xs}
    ks = sorted(vals)
    work = [(float(a), float(b)) for a, b in zip(xs[:-1], xs[1:])]
    floor = t_hi * 2.0 ** -max_depth
    while work:
        a, b = work.pop()
        m = 0.5 * (a + b)
        fm = f(m)
        i = bisect.bisect_left(ks, m)
        lo = max(0, i - 2)
        hi = min(len(ks), lo + 4)
        lo = max(0, hi - 4)
        sub = ks[lo:hi]
        est = float(CubicSpline(sub, [vals[k] for k in sub])(m))
        if m not in vals:
            ks.insert(i, m)
        vals[m] = fm
        tol_eff = tol * (weight(m, fm) if weight is not None else 1.0)
        if abs(est - fm) > tol_eff and (b - a) > floor:
            work.append((a, m))
            work.append((m, b))
    return CubicSpline(ks, [vals[k] for k in ks])


def _exponent_spline(exponent, t_hi: float, tol: float = 1e-9):
    """Adaptive spline of a decoherence exponent t -> Phi(t), tolerance weighted by e^{+Phi}."""
    w = lambda t, v: min(math.exp(min(v, 37.0)), 1e16)
    return _adaptive_curve(exponent, t_hi, tol, weight=w)


def time_grid(t_max: float, n: int) -> np.ndarray:
    """Symmetric uniform grid t_k = (k - n/2) * dt, dt = 2 t_max / n; n a power of two."""
    n = int(n)
    if n < 4 or n & (n - 1):
        raise ValueError("grid size must be a power of two, at least 4")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    dt = 2.0 * t_max / n
    return (np.arange(n) - n // 2) * dt


def symmetry_residual(values: np.ndarray) -> float:
    """max |v(-t) - conj(v(t))| over the grid's exact +-t index pairs."""
    tail = values[1:]
    return float(np.max(np.abs(tail - np.conj(tail[::-1]))))


@dataclass(frozen=True)
class DephasingSeries:
    """Complex dephasing factor phi(t) on a symmetric uniform time grid.

    Invariants: conjugate symmetry phi(-t) = conj(phi(t)), phi(0) = 1, and
    |phi(t)| <= 1 (the coherence can never exceed its initial value).
    """

    times: np.ndarray
    values: np.ndarray
    omega0: float = 0.0
    model_tag: str = "conventional"
    phase: float | None = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float).copy()
        v = np.asarray(self.values, dtype=complex).copy()
        n = t.size
        if n < 4 or n & (n - 1) or v.shape != t.shape:
            raise ValueError("times/values must be power-of-two grids of equal size")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("times and values must be finite")
        d = np.diff(t)
        if np.min(d) <= 0 or np.max(np.abs(d - d[0])) > 1e-9 * d[0]:
            raise ValueError("time grid must be uniform and increasing")
        if abs(t[n // 2]) > 1e-12 * max(abs(t[-1]), 1.0):
            raise ValueError("time grid must be centered on t = 0")
        if abs(v[n // 2] - 1.0) > SERIES_UNIT_TOL:
            raise ValueError("dephasing factor must equal 1 at t = 0")
        if float(np.max(np.abs(v))) > 1.0 + SERIES_UNIT_TOL:
            raise ValueError("dephasing factor exceeds unit modulus")
        if symmetry_residual(v) > SERIES_SYM_TOL:
            raise ValueError("series not conjugate-symmetric")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def t_max(self) -> float:
        return -float(self.times[0])


def dephasing_conventional(model: SpectralDensityModel, omega0: float,
                           grid: np.ndarray) -> DephasingSeries:
    """Series exp(i omega0 t - Phi(t)) on the given symmetric grid."""
    grid = np.asarray(grid, dtype=float)
    spline = _exponent_spline(lambda x: _one_minus_cos_integral(model, x, with_coth=True),
                              float(np.max(np.abs(grid))))
    exponent = np.clip(spline(np.abs(grid)), 0.0, None)
    values = np.exp(1j * omega0 * grid - exponent)
    return DephasingSeries(grid, values, omega0=omega0, model_tag="conventional")


def dephasing_extended(model: SpectralDensityModel, phase: float,
                       grid: np.ndarray) -> DephasingSeries:
    """Series exp(-i theta_phase(t) - Phi(t)) of the extended model (T = 0)."""
    if model.temperature != 0.0:
        raise ValueError("extended model implemented at T=0 only")
    grid = np.asarray(grid, dtype=float)
    t_hi = float(np.max(np.abs(grid)))
    odd = {}  # sine integrals of the Phi knots, reused by the sine spline

    def even_knot(x):
        even, odd[x] = _knot_integrals(model, x)
        return even

    phi_spline = _exponent_spline(even_knot, t_hi)
    w = lambda t, v: min(math.exp(min(float(phi_spline(t)), 37.0)), 1e16)
    sine_spline = _adaptive_curve(
        lambda x: odd[x] if x in odd else _sine_integral(model, x), t_hi, 1e-9, weight=w
    )
    c1 = _inverse_frequency_mass(model)
    a = np.abs(grid)
    s = np.sign(grid)
    exponent = np.clip(phi_spline(a), 0.0, None)
    drift = c1 * grid - s * sine_spline(a)
    theta = math.cos(phase) * drift + s * math.sin(phase) * exponent
    values = np.exp(-1j * theta - exponent)
    return DephasingSeries(grid, values, omega0=0.0, model_tag="extended", phase=float(phase))


def ohmic_series(omega_c: float, grid: np.ndarray, phase: float | None = None) -> DephasingSeries:
    """Closed-form Ohmic (T = 0) series, bypassing quadrature.

    Conventional: (1 + wc^2 t^2)^-2.  Extended (phase given):
    exp[-i 4 cos(phase) (wc t - arctan wc t)] * (1 + wc^2 t^2)^{-2(1 + i sign(t) sin(phase))}.
    """
    grid = np.asarray(grid, dtype=float)
    x = omega_c * grid
    log1p = np.log1p(x * x)
    modulus = np.exp(-2.0 * log1p)
    if phase is None:
        return DephasingSeries(grid, modulus.astype(complex), omega0=0.0,
                               model_tag="conventional")
    theta = 4.0 * math.cos(phase) * (x - np.arctan(x)) \
        + np.sign(grid) * math.sin(phase) * 2.0 * log1p
    return DephasingSeries(grid, np.exp(-1j * theta) * modulus, omega0=0.0,
                           model_tag="extended", phase=float(phase))


def master_coeffs(series: DephasingSeries, t_min: float | None = None,
                  t_max: float | None = None):
    """Effective-energy and decoherence-rate series from the log-derivative of phi.

    Returns (t, epsilon, gamma) on interior grid points of the requested
    window, with epsilon = Im[d/dt ln phi]/2 and gamma = -Re[d/dt ln phi]/2.
    Centered differences with phase unwrapping along the grid.
    """
    t = series.times
    v = series.values
    lo = 0 if t_min is None else int(np.searchsorted(t, t_min))
    hi = t.size if t_max is None else int(np.searchsorted(t, t_max, side="right"))
    if hi - lo < 3:
        raise ValueError("window too small for centered differences")
    t = t[lo:hi]
    v = v[lo:hi]
    mags = np.abs(v)
    if np.min(mags) <= 1e-14:
        raise CoefficientSingularityError(float(t[int(np.argmin(mags))]))
    logv = np.log(mags) + 1j * np.unwrap(np.angle(v))
    dlog = (logv[2:] - logv[:-2]) / (2.0 * series.dt)
    return t[1:-1], 0.5 * np.imag(dlog), -0.5 * np.real(dlog)


def propagate_master(rho0, times: np.ndarray, epsilon: np.ndarray, gamma: np.ndarray):
    """Integrate the dephasing master equation across a coefficient grid.

    d rho/dt = -i eps(t) [sigma_z, rho] + gamma(t) (sigma_z rho sigma_z - rho),
    classic RK4 with steps spanning two grid intervals so every stage lands on
    a grid point.  Returns (times[::2], list of DensityMatrix).
    """
    times = np.asarray(times, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if times.shape != epsilon.shape or times.shape != gamma.shape:
        raise ValueError("coefficient grids are misaligned")
    if times.size < 3:
        raise ValueError("need at least three grid points")
    d = np.diff(times)
    if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
        raise ValueError("coefficient grids are misaligned")
    rho = np.array(rho0.matrix if hasattr(rho0, "matrix") else rho0, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError("qubit state expected")
    sz = PAULI_Z
    h = 2.0 * float(d[0])

    def rhs(i, r):
        comm = sz @ r - r @ sz
        return -1j * epsilon[i] * comm + gamma[i] * (sz @ r @ sz - r)

    n_steps = (times.size - 1) // 2
    states = [DensityMatrix(rho)]
    for s in range(n_steps):
        i = 2 * s
        k1 = rhs(i, rho)
        k2 = rhs(i + 1, rho + 0.5 * h * k1)
        k3 = rhs(i + 1, rho + 0.5 * h * k2)
        k4 = rhs(i + 2, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        states.append(DensityMatrix(rho))
    return times[0 : 2 * n_steps + 1 : 2], states


def extended_coherence(coh0: complex, pops, series: DephasingSeries) -> np.ndarray:
    """System-qubit coherence when the second qubit starts with populations pops.

    coh(t) = coh0 * (p_up * phi(t) + p_down * conj(phi(t))).
    """
    p_up, p_down = float(pops[0]), float(pops[1])
    if abs(p_up + p_down - 1.0) > 1e-10 or p_up < -1e-12 or p_down < -1e-12:
        raise ValueError("invalid populations")
    return coh0 * (p_up * series.values + p_down * np.conj(series.values))
