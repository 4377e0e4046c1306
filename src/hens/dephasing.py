"""Spectral densities, decoherence exponents, and dephasing-factor series.

The decoherence exponent is the oscillatory frequency integral

    Phi(t) = 4 * int_0^inf J(w)/w^2 * coth(w / 2T) * (1 - cos(w t)) dw

evaluated by a Filon-type rule whose cost does not grow with t (Filon 1928;
Iserles & Norsett 2005).  ``_FilonRule`` samples g = 4 J/w^2 coth(w/2T) once
per model on a t-independent partition: the panels of ``_panel_edges(model,
0)`` (the table knots, or [0, omega_max], split at 4T and cut into equal
panels in one vectorized pass), graded geometrically near w = 0 so that each
panel lies at least two of its widths from the singularity of g.  At each t
every panel wider than the oscillation bound pi / (4t) integrates the
degree-15 Legendre interpolant of g against 1 - e^{i w t} exactly; the
narrower panels and the panel touching w = 0 keep Gauss-Legendre.  One complex
sum gives the even (1 - cos) integral and the odd sine integral, so the
conventional and extended series, ``decoherence_exponent`` and
``extended_phase`` share one evaluator.  The extended two-qubit model builds
its odd phase angle from int 4J/w^2 (w t - sin w t) dw and the T=0 exponent.
Every series on a dense symmetric time grid comes from one adaptive spline:
the exponent, or the extended model's (Phi, sine) pair as two columns of the
same knots, is sampled at adaptively refined times and interpolated with a
verified cubic spline.  The knot tolerance is weighted by e^{+Phi} because
only e^{-Phi} * dPhi (and e^{-Phi} * d theta) reaches the series values.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander
from scipy.interpolate import CubicSpline
from scipy.special import spherical_jn

from .qdyn import PAULI_Z, DensityMatrix

SERIES_SYM_TOL = 1e-12
SERIES_UNIT_TOL = 1e-12
TAIL_EPS = 1e-12
MAX_PANELS = 1 << 18  # panels of one partition, or of the w = 0 panel cut at one time
KNOT_TOL = 1e-9
PHI_NEGLIGIBLE = 37.0  # e^{-37} < 1e-16: the series no longer resolves Phi or the phase

GRADE = 1.5  # b / a <= 1.5: a panel [a, b] lies at least two of its widths from w = 0
ZERO_PANEL = 2.0 ** -10  # width of the w = 0 panel, as a fraction of the first panel's

_GL_X, _GL_W = leggauss(16)
_DEGREES = np.arange(16)
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j] * 4)  # i^n
# a_n = sum_k g(x_k) _LEGENDRE[k, n]: the Legendre coefficients of the degree-15
# interpolant of the values g(x_k) at the nodes
_LEGENDRE = legvander(_GL_X, 15) * _GL_W[:, None] * (_DEGREES + 0.5)


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


def _panel_edges(model: SpectralDensityModel, t: float) -> np.ndarray:
    """Panel edges on [0, omega_max] resolving J, coth and, for t != 0, e^{i w t}.

    Every interval of the base partition (the table knots, or [0, omega_max],
    split at 4T) gets panels no wider than half the model's width, 0.5 T
    below 4T and, for t != 0, the oscillation bound pi / (4|t|).
    """
    cap = 0.5 * model.omega_scale()
    if t != 0.0:
        cap = min(cap, np.pi / (4.0 * abs(t)))
    if model.kind == "tabulated":
        base = np.unique(np.concatenate([[0.0], model.table_omega]))
    else:
        base = np.array([0.0, model.omega_max()])
    temp = model.temperature
    if temp > 0.0:
        base = np.unique(np.concatenate([base, [min(4.0 * temp, base[-1])]]))
    width = np.full(base.size - 1, cap)
    if temp > 0.0:
        width[base[:-1] < 4.0 * temp] = min(cap, 0.5 * temp)
    return _cut(base, width, t)


def _cut(base: np.ndarray, width: np.ndarray, t: float) -> np.ndarray:
    """Edges cutting every interval [a, b] of base into k = ceil((b - a) / width) equal panels.

    All intervals are cut in one pass with the arithmetic of
    ``np.linspace(a, b, k + 1)``: edge j is j * ((b - a) / k) + a, the last is b.
    """
    a, b = base[:-1], base[1:]
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
    return e


def _gauss_legendre(e: np.ndarray):
    """16-point Gauss-Legendre nodes and weights, shape (panels, 16), on the panels of edges e."""
    c = 0.5 * (e[1:] + e[:-1])
    h = 0.5 * (e[1:] - e[:-1])
    return c[:, None] + h[:, None] * _GL_X, h[:, None] * _GL_W


def _panel_nodes(model: SpectralDensityModel, t: float):
    """Flat Gauss-Legendre nodes/weights on the panels of ``_panel_edges(model, t)``."""
    nodes, weights = _gauss_legendre(_panel_edges(model, t))
    return nodes.ravel(), weights.ravel()


def _graded(e: np.ndarray) -> np.ndarray:
    """Edges e from ZERO_PANEL * e[1] on, with every panel [a, b] that is nearer to
    w = 0 than two of its widths split geometrically into pieces with b / a <= GRADE."""
    a = np.concatenate([[ZERO_PANEL * e[1]], e[1:-1]])
    b = e[1:]
    n = np.ceil(np.log(b / a) / math.log(GRADE)).astype(np.int64)
    ends = np.cumsum(n)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - n, n)
    out = np.empty(ends[-1] + 1)
    out[0] = a[0]
    out[1:] = np.repeat(a, n) * np.repeat(b / a, n) ** (j / np.repeat(n, n))
    out[ends] = b
    return out


@contextlib.contextmanager
def _representable(t: float | None):
    """Turn an overflow, a division by zero or a NaN into a ValueError naming the exponent."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        where = "" if t is None else f" at t = {t!r}"
        raise ValueError(f"decoherence exponent{where} is not representable "
                         f"in floating point ({exc})") from None


class _FilonRule:
    """The frequency integrals of one model, from one sampling of g = 4 J/w^2 coth(w/2T).

    ``integrals(t)`` returns (even, odd) = (int g (1 - cos w t) dw,
    int g sin(w t) dw); coth = 1 at T = 0, where odd is the extended model's
    sine integral.  g is sampled once at the 16 Gauss-Legendre nodes of every
    panel of ``_graded(_panel_edges(model, 0))``.  On a panel [c - h, c + h],
    int g (1 - e^{iwt}) dw = h [(1 - e^{ict}) (G - B) + B], where G = int g dx
    and B = int g (1 - e^{ihtx}) dx over x in [-1, 1] is a weighted sum of the
    16 samples whose weights depend only on ht.  For a panel wider than the
    oscillation bound pi / (4t) they integrate the degree-15 interpolant of g
    exactly, through the Legendre moments int P_n(x) e^{ihtx} dx = 2 i^n j_n(ht)
    (a Filon-type rule, so the cost of a time does not grow with t); a
    narrower panel takes its Gauss-Legendre weights.  Weights are computed
    once per distinct half-width.  g is singular at w = 0, so the panel
    touching it is never integrated through moments: once it is wider than
    the oscillation bound it is cut into Gauss-Legendre panels under the bound.
    """

    def __init__(self, model: SpectralDensityModel):
        self.model = model
        with _representable(None):
            e = np.concatenate([[0.0], _graded(_panel_edges(model, 0.0))])
            self.zero = e[1]  # the panel touching w = 0 is [0, zero]
            self.c = 0.5 * (e[1:] + e[:-1])
            self.h = 0.5 * (e[1:] - e[:-1])
            self.widths, self.width_of = np.unique(self.h, return_inverse=True)
            nodes, weights = _gauss_legendre(e)
            self.g = self._g(nodes)
            self.g_sum = self.g @ _GL_W  # G of every panel
            # int 4 J/w dw at T = 0, the linear-in-t part of the drift integral
            self.inverse_frequency_mass = float(np.sum(self.g * nodes * weights))

    def _g(self, w: np.ndarray) -> np.ndarray:
        g = 4.0 * self.model.density(w) / w**2
        if self.model.temperature > 0.0:
            g = g * _coth(w / (2.0 * self.model.temperature))
        return g

    def integrals(self, t: float) -> tuple[float, float]:
        s = math.copysign(1.0, t) if t != 0.0 else 0.0
        t = abs(float(t))
        if t == 0.0:
            return 0.0, 0.0
        cap = np.pi / (4.0 * t)
        with _representable(t):
            even = odd = 0.0
            p = 0  # the first panel of the sum below
            if self.zero > cap:
                w, weights = _gauss_legendre(_cut(np.array([0.0, self.zero]),
                                                  np.array([cap]), t))
                gw = self._g(w) * weights
                even = np.sum(gw * (2.0 * np.sin(0.5 * w * t) ** 2))
                odd = np.sum(gw * np.sin(w * t))
                p = 1
            # the weights of B, one row per distinct half-width
            x = self.widths * t
            n = int(np.searchsorted(x, np.pi / 8.0, side="right"))
            v = np.empty((x.size, 16), dtype=complex)
            xk = x[:n, None] * _GL_X
            v[:n] = _GL_W * (2.0 * np.sin(0.5 * xk) ** 2 - 1j * np.sin(xk))
            if n < x.size:
                x = x[n:]
                mu = -2.0 * _I_POWERS * spherical_jn(_DEGREES, x[:, None])
                mu[:, 0] = 2.0 * (1.0 - np.sin(x) / x)  # x > pi/8: no cancellation
                v[n:] = mu @ _LEGENDRE.T
            b = np.einsum("pk,pk->p", self.g[p:], v[self.width_of[p:]])
            ct = self.c[p:] * t
            z = (2.0 * np.sin(0.5 * ct) ** 2 - 1j * np.sin(ct)) * (self.g_sum[p:] - b) + b
            total = self.h[p:] @ z
        return max(float(even + total.real), 0.0), s * float(odd - total.imag)


def decoherence_exponent(model: SpectralDensityModel, t):
    """Nonnegative exponent controlling |phi(t)| = e^{-Phi(t)}; even, Phi(0) = 0."""
    ts = np.asarray(t, dtype=float)
    rule = _FilonRule(model)
    out = np.array([rule.integrals(x)[0] for x in ts.ravel()])
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def extended_phase(model: SpectralDensityModel, phase: float, t):
    """Odd phase angle of the two-qubit extended model at T = 0.

    cos(phase) * int 4J/w^2 (w t - sin w t) dw
      + sign(t) * sin(phase) * int 4J/w^2 (1 - cos w t) dw
    """
    if model.temperature != 0.0:
        raise ValueError("extended model implemented at T=0 only")
    ts = np.asarray(t, dtype=float)
    rule = _FilonRule(model)
    vals = []
    for x in ts.ravel():
        even, odd = rule.integrals(x)
        drift = rule.inverse_frequency_mass * x - odd
        vals.append(math.cos(phase) * drift + np.sign(x) * math.sin(phase) * even)
    out = np.array(vals)
    return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def _adaptive_curve(f, t_hi: float) -> CubicSpline:
    """Cubic spline of f on [0, t_hi] from adaptively refined knots.

    f(t) is the exponent Phi(t), or a tuple (Phi(t), ...) whose further
    entries become further columns of the same knots and spline.  The base
    knots are 32 uniform and 32 geometric intervals, without knots closer than
    1e-9 t_hi to the previous one.  Every midpoint is checked against the
    cubic through the four nearest knots (kept in a sorted list; the closed
    Lagrange form of what a not-a-knot spline through them gives), and its
    interval is split when any column misses KNOT_TOL * e^{+Phi} (Phi at the
    midpoint, the weight capped at 1e16).  An interval is accepted without
    that check once Phi and its local estimate at the midpoint both reach
    PHI_NEGLIGIBLE, or once it is no longer than t_hi * 2^-36.
    """
    xs = np.unique(np.concatenate([
        np.linspace(0.0, t_hi, 33),
        np.geomspace(t_hi * 2.0 ** -12, t_hi, 33),
    ]))
    xs = xs[np.concatenate([[True], np.diff(xs) > 1e-9 * t_hi])]
    xs = np.concatenate([[0.0], xs[xs > 0.0]])
    vals = {float(x): np.asarray(f(float(x))) for x in xs}
    ks = sorted(vals)
    work = [(float(a), float(b)) for a, b in zip(xs[:-1], xs[1:])]
    floor = t_hi * 2.0 ** -36
    while work:
        a, b = work.pop()
        m = 0.5 * (a + b)
        fm = np.asarray(f(m))
        i = bisect.bisect_left(ks, m)
        lo = max(0, i - 2)
        hi = min(len(ks), lo + 4)
        lo = max(0, hi - 4)
        # Lagrange form in u = (x - x0) / (x3 - x0), whose products cannot underflow
        x0, x1, x2, x3 = ks[lo:hi]
        span = x3 - x0
        u1, u2, s = (x1 - x0) / span, (x2 - x0) / span, (m - x0) / span
        est = (vals[x0] * ((s - u1) * (s - u2) * (1.0 - s) / (u1 * u2))
               + vals[x1] * (s * (s - u2) * (s - 1.0) / (u1 * (u1 - u2) * (u1 - 1.0)))
               + vals[x2] * (s * (s - u1) * (s - 1.0) / (u2 * (u2 - u1) * (u2 - 1.0)))
               + vals[x3] * (s * (s - u1) * (s - u2) / ((1.0 - u1) * (1.0 - u2))))
        if m not in vals:
            ks.insert(i, m)
        vals[m] = fm
        phi = fm.flat[0]
        if min(phi, est.flat[0]) >= PHI_NEGLIGIBLE or (b - a) <= floor:
            continue
        tol = KNOT_TOL * min(math.exp(min(phi, PHI_NEGLIGIBLE)), 1e16)
        if abs(est - fm).max() > tol:
            work.append((a, m))
            work.append((m, b))
    return _knot_spline(ks, vals)


def _knot_spline(ks: list[float], vals: dict) -> CubicSpline:
    """Cubic spline through the knots ks; a ValueError names the exponent when it fails."""
    try:
        # slopes between knot values near the float limit overflow, and so do
        # the cubic coefficients (~ values / spacing^3) of knots spaced below ~1e-160
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return CubicSpline(ks, [vals[k] for k in ks])
    except (ValueError, FloatingPointError) as exc:
        raise ValueError(f"decoherence exponent on [{ks[0]!r}, {ks[-1]!r}] is not "
                         f"representable in floating point ({exc})") from None


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
    rule = _FilonRule(model)
    spline = _adaptive_curve(lambda x: rule.integrals(x)[0], float(np.max(np.abs(grid))))
    exponent = np.clip(spline(np.abs(grid)), 0.0, None)
    values = np.exp(1j * omega0 * grid - exponent)
    return DephasingSeries(grid, values, omega0=omega0)


def dephasing_extended(model: SpectralDensityModel, phase: float,
                       grid: np.ndarray) -> DephasingSeries:
    """Series exp(-i theta_phase(t) - Phi(t)) of the extended model (T = 0)."""
    if model.temperature != 0.0:
        raise ValueError("extended model implemented at T=0 only")
    grid = np.asarray(grid, dtype=float)
    rule = _FilonRule(model)
    spline = _adaptive_curve(rule.integrals, float(np.max(np.abs(grid))))
    s = np.sign(grid)
    even, odd = spline(np.abs(grid)).T
    exponent = np.clip(even, 0.0, None)
    drift = rule.inverse_frequency_mass * grid - s * odd
    theta = math.cos(phase) * drift + s * math.sin(phase) * exponent
    values = np.exp(-1j * theta - exponent)
    return DephasingSeries(grid, values)


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
        return DephasingSeries(grid, modulus.astype(complex))
    theta = 4.0 * math.cos(phase) * (x - np.arctan(x)) \
        + np.sign(grid) * math.sin(phase) * 2.0 * log1p
    return DephasingSeries(grid, np.exp(-1j * theta) * modulus)


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
