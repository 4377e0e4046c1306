"""Spectral densities, decoherence exponents, and dephasing-factor series.

The decoherence exponent is the oscillatory frequency integral

    Phi(t) = 4 * int_0^inf J(w)/w^2 * coth(w / 2T) * (1 - cos(w t)) dw

evaluated by a Filon-type rule whose cost does not grow with t (Filon 1928;
Iserles & Norsett 2005).  ``_FilonRule`` samples g = 4 J/w^2 coth(w/2T) once
per model on a t-independent partition: the panels of ``_panel_edges(model)``
(the table knots, or [0, omega_max], split at 4T and cut into equal panels in
one vectorized pass), graded geometrically near w = 0 so that each
panel lies at least two of its widths from the singularity of g.  At each t
every panel wider than the oscillation bound pi / (4t) integrates the
degree-15 Legendre interpolant of g against 1 - e^{i w t} exactly; the
narrower panels and the panel touching w = 0 keep Gauss-Legendre.  The exact
integrals take spherical Bessel functions from one three-term recurrence
(``_spherical_j``).  One complex sum gives the even (1 - cos) integral and the
odd sine integral, so the conventional and extended series and
``decoherence_exponent`` share one evaluator, which takes an array of times
and works through them in blocks of (time, panel) pairs.  The extended
two-qubit model builds its odd phase angle from int 4J/w^2 (w t - sin w t) dw
and the T=0 exponent, a pair (``extended_exponents``) that serves every
phase (``extended_series``, and the landscape's columns through the same
values helper).
Every series holds the t >= 0 half of a symmetric grid (``DephasingSeries``), from
one set of knots that are grid times (``_on_grid``): the exponent, or the
extended model's (Phi, sine) pair as two rows of the same knots, is evaluated at
the half's |t| that adaptive refinement picks (level by level, one batched
evaluation per level, each |t| at most once).  One interpolant both checks each
new knot and fills the other |t|: on each interval between knots, the quintic
through the KNOT_STENCIL = 6 knots nearest it, in integer grid positions
(``_local_quintic``).  The knot tolerance is weighted by e^{+Phi} because only e^{-Phi} * dPhi (and
e^{-Phi} * d theta) reaches the series values.  Both kernels, the rule and the
interpolant, are numpy code, so the module imports nothing beyond numpy.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

SERIES_SYM_TOL = 1e-12
SERIES_UNIT_TOL = 1e-12
TAIL_EPS = 1e-12
MAX_PANELS = 1 << 18  # panels of one partition, or of the w = 0 panel cut at one time
BLOCK_PAIRS = 1 << 12  # (time, panel) pairs per block of the Filon rule: 64 KiB of complex128
BLOCK_WEIGHTS = 1 << 14  # weights of B per block, 16 per (time, half-width): 256 KiB
SHARED_PAIRS = 64  # (time, panel) pairs of one half-width in a block that get their own product
KNOT_TOL = 1e-9
KNOT_STENCIL = 6  # knots of each interval's interpolant in the series fill: a local quintic
FILL_BLOCK = 1 << 13  # grid positions per interpolant call of the series fill
PHI_NEGLIGIBLE = 37.0  # e^{-37} < 1e-16: the series no longer resolves Phi or the phase

GRADE = 1.5  # b / a <= 1.5: a panel [a, b] lies at least two of its widths from w = 0
ZERO_PANEL = 2.0 ** -10  # width of the w = 0 panel, as a fraction of the first panel's

_GL_X, _GL_W = leggauss(16)
_DEGREES = np.arange(16)
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j] * 4)  # i^n
# a_n = sum_k g(x_k) _LEGENDRE[k, n]: the Legendre coefficients of the degree-15
# interpolant of the values g(x_k) at the nodes
_LEGENDRE = legvander(_GL_X, 15) * _GL_W[:, None] * (_DEGREES + 0.5)
# _spherical_j's recurrence: the degree it starts down from, and the x above which it
# runs upward instead; step k has the factor 2n + 1 at n = k + 1 (up) or n = 32 - k (down)
MILLER_START = 32
UPWARD_X = 16.0
_UP_ODD = 2.0 * np.arange(1, MILLER_START + 1)[:, None] + 1.0
_DOWN_ODD = _UP_ODD[::-1]


class NumericalError(ValueError):
    """A valid input on which a numerical precondition fails (the CLI exits 3)."""


class CoefficientSingularityError(NumericalError):
    """The dephasing factor vanishes where a log-derivative is required."""

    def __init__(self, t: float):
        super().__init__(f"coefficient singularity: dephasing factor vanishes near t = {t!r}")
        self.t = t


def _spherical_j(x: np.ndarray) -> np.ndarray:
    """Spherical Bessel functions j_0 .. j_15 at every x > pi/8, shape (x.size, 16).

    Every x runs one three-term recurrence f_{n-1} + f_{n+1} = (2n + 1)/x f_n.  Above
    UPWARD_X it runs upward from j_0 = sin x / x and j_1 = (j_0 - cos x) / x, stable
    while n < x.  Below, it runs downward from f_33 = 0, f_32 = 1 (Miller's algorithm,
    Gautschi 1967), and f_0 .. f_15 are scaled by the least-squares fit of (f_0, f_1)
    to (j_0, j_1), which stays accurate where either one vanishes.  Starting at degree
    28 instead of 32 misses by ~7e-12 near x = 16.
    """
    up = x > UPWARD_X
    j0 = np.sin(x) / x
    j1 = (j0 - np.cos(x)) / x
    factors = list(np.where(up, _UP_ODD, _DOWN_ODD) / x)
    f = np.empty((MILLER_START + 2, x.size))
    f[0] = np.where(up, j0, 0.0)
    f[1] = np.where(up, j1, 1.0)
    rows = list(f)
    for k, factor in enumerate(factors):
        np.multiply(factor, rows[k + 1], out=rows[k + 2])
        np.subtract(rows[k + 2], rows[k], out=rows[k + 2])
    down = f[: MILLER_START - 15 : -1]  # f_0 .. f_15 of the downward recurrence
    scale = (j0 * down[0] + j1 * down[1]) / (down[0] ** 2 + down[1] ** 2)
    return np.where(up, f[:16], down * scale).T


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


def _panel_edges(model: SpectralDensityModel) -> np.ndarray:
    """Panel edges on [0, omega_max] resolving J and coth.

    Every interval of the base partition (the table knots, or [0, omega_max],
    split at 4T) gets panels no wider than half the model's width, and 0.5 T
    below 4T.
    """
    cap = 0.5 * model.omega_scale()
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
    return _cut(base, width, 0.0)


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
def _representable(where: str = ""):
    """Turn an overflow, a division by zero or a NaN into a ValueError naming the
    exponent and, when given, where it fails (" at t = ...", " on [a, b]")."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"decoherence exponent{where} is not representable "
                         f"in floating point ({exc})") from None


class _FilonRule:
    """The frequency integrals of one model, from one sampling of g = 4 J/w^2 coth(w/2T).

    ``integrals(ts)`` returns the arrays (even, odd) = (int g (1 - cos w t) dw,
    int g sin(w t) dw) at every time of ts; coth = 1 at T = 0, where odd is the
    extended model's sine integral.  g is sampled once at the 16 Gauss-Legendre
    nodes of every panel of ``_graded(_panel_edges(model))``.  On a panel
    [c - h, c + h], int g (1 - e^{iwt}) dw = h [(1 - e^{ict}) (G - B) + B], where
    G = int g dx and B = int g (1 - e^{ihtx}) dx over x in [-1, 1] is a weighted
    sum of the 16 samples whose weights depend only on ht.  For a panel wider than
    the oscillation bound pi / (4t) they integrate the degree-15 interpolant of g
    exactly, through the Legendre moments int P_n(x) e^{ihtx} dx = 2 i^n j_n(ht)
    (a Filon-type rule, so the cost of a time does not grow with t); a narrower
    panel takes its Gauss-Legendre weights.  ``_on_grid`` passes all the
    times of one refinement level at once (refined level by level, one batched
    evaluation per level).  The times are evaluated together in blocks of at
    most BLOCK_PAIRS (time, panel) pairs and BLOCK_WEIGHTS weights, which are
    built once per (time, distinct half-width) of a block.  A half-width whose
    panels make at least SHARED_PAIRS pairs of a block gives them one matrix
    product of its weights with their samples; the panels of the other
    half-widths (all of them on an irregular table, where every half-width has
    one panel) take one product of their gathered weights.  g is singular at
    w = 0, so the panel touching it is never integrated through moments: at a
    time past its oscillation bound it is cut into Gauss-Legendre panels under
    the bound, one time at a time.
    """

    def __init__(self, model: SpectralDensityModel):
        self.model = model
        with _representable():
            e = np.concatenate([[0.0], _graded(_panel_edges(model))])
            self.zero = e[1]  # the panel touching w = 0 is [0, zero]
            nodes, weights = _gauss_legendre(e)
            g = self._g(nodes)
            # int 4 J/w dw at T = 0, the linear-in-t part of the drift integral
            self.inverse_frequency_mass = float(np.sum(g * nodes * weights))
            c, h = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
            self.widths, width_of, counts = np.unique(h, return_inverse=True,
                                                      return_counts=True)
            self.step = max(1, min(BLOCK_PAIRS // h.size,  # times per block
                                   BLOCK_WEIGHTS // (16 * self.widths.size)))
            shared = counts[width_of] * self.step >= SHARED_PAIRS
            # the panels of the half-widths that few panels have first, then the
            # panels of each shared half-width as one slice
            order = np.lexsort((h, shared))
            self.c, self.h, width_of = c[order], h[order], width_of[order]
            self.g = g[order].astype(complex)  # for the products with B's weights
            self.g_sum = self.g.real @ _GL_W  # G of every panel
            self.n_unshared = r = int(np.count_nonzero(~shared))
            self.unshared = width_of[:r]  # their columns of B's weights
            if r and np.all(np.diff(self.unshared) == 1):
                # one run of consecutive half-widths (every irregular table): read as a
                # view, not gathered into a copy of all the weights
                self.unshared = slice(int(self.unshared[0]), int(self.unshared[0]) + r)
            starts = np.flatnonzero(np.diff(width_of, prepend=-1))
            ends = [*starts[1:], h.size]
            self.products = [(width_of[a], slice(a, b)) for a, b in zip(starts, ends) if a >= r]
            self.zero_at = int(np.flatnonzero(order == 0)[0])

    def _g(self, w: np.ndarray) -> np.ndarray:
        g = 4.0 * self.model.density(w) / w**2
        if self.model.temperature > 0.0:
            g = g * _coth(w / (2.0 * self.model.temperature))
        return g

    def integrals(self, ts) -> tuple[np.ndarray, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        # each distinct |t| once, so that +-t get the same values
        t, back = np.unique(np.abs(ts).ravel(), return_inverse=True)
        even, odd = np.empty(t.size), np.empty(t.size)
        for lo in range(0, t.size, self.step):
            part = slice(lo, lo + self.step)
            try:
                with _representable():
                    even[part], odd[part] = self._block(t[part])
            except ValueError:
                # one time at a time, so that the error names the time that fails
                for i in range(t.size)[part]:
                    with _representable(f" at t = {float(t[i])!r}"):
                        self._block(t[i : i + 1])
                raise
        return (np.maximum(even, 0.0)[back].reshape(ts.shape),
                np.sign(ts) * odd[back].reshape(ts.shape))

    def _block(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(even, odd) at the times t >= 0 of one block."""
        # the weights of B, one row per (time, half-width)
        x = t[:, None] * self.widths
        moments = x > np.pi / 8.0
        v = np.empty(x.shape + (16,), dtype=complex)
        xk = x[~moments][:, None] * _GL_X
        gl = np.empty(xk.shape, dtype=complex)  # _GL_W (1 - e^{i xk}), part by part
        gl.real = 2.0 * _GL_W * np.sin(0.5 * xk) ** 2
        gl.imag = -_GL_W * np.sin(xk)
        v[~moments] = gl
        if moments.any():
            xm = x[moments]
            mu = -2.0 * _I_POWERS * _spherical_j(xm)
            mu[:, 0] = 2.0 * (1.0 - np.sin(xm) / xm)  # x > pi/8: no cancellation
            v[moments] = mu @ _LEGENDRE.T
        b = np.empty((t.size, self.h.size), dtype=complex)
        r = self.n_unshared
        b[:, :r] = np.einsum("tpk,pk->tp", v[:, self.unshared], self.g[:r])
        for j, panels in self.products:
            b[:, panels] = v[:, j] @ self.g[panels].T
        ct = t[:, None] * self.c
        z = (2.0 * np.sin(0.5 * ct) ** 2 - 1j * np.sin(ct)) * (self.g_sum - b) + b
        # the panel touching w = 0 at the times past its bound: from its own cut
        past = np.flatnonzero(t * self.h[self.zero_at] > np.pi / 8.0)
        z[past, self.zero_at] = 0.0
        total = z @ self.h
        even, odd = total.real, -total.imag
        for i in past:
            e, o = self._zero_panel(t[i])
            even[i] += e
            odd[i] += o
        return even, odd

    def _zero_panel(self, t: float) -> tuple[float, float]:
        """(even, odd) of the panel [0, zero] at one time t past its oscillation bound."""
        w, weights = _gauss_legendre(_cut(np.array([0.0, self.zero]),
                                          np.array([np.pi / (4.0 * t)]), t))
        gw = self._g(w) * weights
        return np.sum(gw * (2.0 * np.sin(0.5 * w * t) ** 2)), np.sum(gw * np.sin(w * t))


def decoherence_exponent(model: SpectralDensityModel, t):
    """Nonnegative exponent controlling |phi(t)| = e^{-Phi(t)}; even, Phi(0) = 0."""
    ts = np.asarray(t, dtype=float)
    even = _FilonRule(model).integrals(ts)[0]
    return float(even) if ts.ndim == 0 else even


def _on_grid(f, t: np.ndarray) -> np.ndarray:
    """f(|t|) at every time t of a series' half layout, from knots that are grid times.

    f(ts) returns a sequence of arrays at the times ts: the exponent Phi, then any
    further quantities taken at the same knots.  The result holds one row per
    array, with one value per time of t (``_half_grid``), whose |t| are j dt,
    j = 0 .. n/2.  The knots are a subset of these positions j: at first those
    nearest to 33 uniform and 33 geometric points on [0, n/2].  Level by level,
    one batched evaluation of f takes the middle position (i + j) // 2 of every
    interval (i, j) with a grid time strictly inside it.  Each middle value is
    checked against ``_local_quintic`` through the knots known at the start of its
    level, and its interval is split for the next level when any row misses
    KNOT_TOL * e^{+Phi} (Phi at the middle time, the weight capped at 1e16) while
    Phi or its estimate there is below PHI_NEGLIGIBLE.  So f sees each |t| at most
    once.  The positions that are not knots (none on grids of up to 64 times) are
    read from the same interpolant through all the knots, FILL_BLOCK positions
    at a time, so the fill's temporaries do not grow with the grid.
    """
    half = t.size - 1
    base = np.concatenate([np.linspace(0.0, half, 33), np.geomspace(half * 2.0 ** -12, half, 33)])
    ks = np.unique(np.rint(base).astype(np.int64))
    first = np.asarray(f(np.abs(t[ks])))  # |t[j]| = j dt
    y = np.empty((first.shape[0], t.size))
    y[:, ks] = first
    known = np.zeros(t.size, dtype=bool)
    known[ks] = True
    a, b = ks[:-1], ks[1:]
    while (inside := b - a > 1).any():
        a, b = a[inside], b[inside]
        m = (a + b) // 2
        ks = np.flatnonzero(known)
        est = _local_quintic(ks, y[:, ks], m)
        got = np.asarray(f(np.abs(t[m])))
        phi = got[0]
        tol = KNOT_TOL * np.minimum(np.exp(np.minimum(phi, PHI_NEGLIGIBLE)), 1e16)
        split = ((np.minimum(phi, est[0]) < PHI_NEGLIGIBLE)
                 & (np.abs(est - got).max(axis=0) > tol))
        y[:, m] = got
        known[m] = True
        a, b = np.concatenate([a[split], m[split]]), np.concatenate([m[split], b[split]])
    ks = np.flatnonzero(known)
    for lo in range(0, t.size, FILL_BLOCK):
        rest = lo + np.flatnonzero(~known[lo:lo + FILL_BLOCK])
        if rest.size:
            y[:, rest] = _local_quintic(ks, y[:, ks], rest)
    return y


def _local_quintic(ks: np.ndarray, ys: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values at the integer positions ``at`` of the local interpolant through the
    rows of ys, one column per knot of the increasing integer knots ks (at least
    KNOT_STENCIL of them); a ValueError names the exponent when it fails.

    On each interval between knots it is the polynomial through the KNOT_STENCIL
    knots nearest the interval, a quintic through its two ends and the two knots
    beyond each end, shifted inward at the ends of ks (local Lagrange interpolation;
    Berrut & Trefethen, SIAM Review 2004).  The Newton coefficients (divided
    differences) of every stencil are computed once, and each position takes one
    Horner pass of its stencil's Newton form.  Knots are integers, so no spacing is
    below 1 and no divided difference exceeds twice the largest value: nothing
    needs rescaling.
    """
    with _representable():
        stencils = np.arange(KNOT_STENCIL)[:, None] + np.arange(ks.size - KNOT_STENCIL + 1)
        x = ks[stencils]  # (KNOT_STENCIL, stencils)
        # (KNOT_STENCIL, rows, stencils), turned into the divided differences in place
        c = np.ascontiguousarray(ys[:, stencils].swapaxes(0, 1))
        for j in range(1, KNOT_STENCIL):
            c[j:] = (c[j:] - c[j - 1 : -1]) / (x[j:] - x[:-j])[:, None]
        s = np.clip(np.searchsorted(ks, at) - KNOT_STENCIL // 2, 0, ks.size - KNOT_STENCIL)
        out = c[-1].take(s, axis=1)
        for j in range(KNOT_STENCIL - 2, -1, -1):
            out *= at - x[j].take(s)
            out += c[j].take(s, axis=1)
    return out


def time_grid(t_max: float, n: int) -> np.ndarray:
    """Symmetric uniform grid t_k = (k - n/2) * dt, dt = 2 t_max / n; n a power of two."""
    n, size = int(n), n
    if n != size or n < 4 or n & (n - 1):
        raise ValueError("grid size must be a power of two, at least 4")
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive")
    dt = 2.0 * t_max / n
    return (np.arange(n) - n // 2) * dt


def uniform_step(grid: np.ndarray, message: str) -> float:
    """The step d_0 of a uniform, increasing grid of two or more points; ValueError(message)
    unless every spacing d is positive with |d - d_0| <= 1e-9 |d_0| + 2 ulp(max |t|).  The
    one rule of uniformity for series times, spectral tables and master coefficients:
    relative, so it holds a step of any size to the same standard, plus the rounding no
    float grid avoids (each point is off by up to half an ulp of the largest |t|, so two
    spacings differ by up to two: 2e-9 to 4e-9 of the step at 2^24 points)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a spacing past the float range fails
        d = np.diff(grid)
        if not (d.size and np.min(d) > 0):
            raise ValueError(message)
        slack = 2.0 * np.spacing(max(abs(grid[0]), abs(grid[-1])))
        if not np.max(np.abs(d - d[0])) <= 1e-9 * d[0] + slack:
            raise ValueError(message)
    return float(d[0])


def _require_series_grid(t: np.ndarray) -> None:
    """ValueError unless t is a finite, uniform, increasing 2^k >= 4 grid centered on t = 0."""
    n = t.size
    if t.ndim != 1 or n < 4 or n & (n - 1):
        raise ValueError("times must be a power-of-two grid")
    if not np.all(np.isfinite(t)):
        raise ValueError("times must be finite")
    uniform_step(t, "time grid must be uniform and increasing")
    if abs(t[n // 2]) > 1e-12 * max(abs(t[-1]), 1.0):
        raise ValueError("time grid must be centered on t = 0")


def _half_grid(grid) -> tuple[np.ndarray, float]:
    """The times grid[n/2:] and grid[0] = -t_max of a series grid's half layout, and the
    grid's own step grid[1] - grid[0]; ValueError unless ``_require_series_grid`` passes."""
    grid = np.asarray(grid, dtype=float)
    _require_series_grid(grid)
    return np.append(grid[grid.size // 2:], grid[0]), float(grid[1] - grid[0])


def _series_size(half: np.ndarray) -> None:
    """ValueError unless the half layout is 1-d, of n/2 + 1 samples, n a power of two >= 4."""
    n = 2 * (half.size - 1)
    if half.ndim != 1 or n < 4 or n & (n - 1):
        raise ValueError("a series holds n/2 + 1 samples of a power-of-two grid of n >= 4")


def _half_spectrum(half: np.ndarray, dt: float) -> np.ndarray:
    """(dt/2pi) sum_n phi(t_n) e^{-i w_k t_n} on the conjugate grid, for the Hermitian
    series of a half layout, of which only the real parts of phi(0) and phi(-t_max)
    count: one ``np.fft.hfft`` of length n, so the spectrum is real."""
    spectrum = np.fft.fftshift(np.fft.hfft(half, 2 * (half.size - 1)))
    spectrum *= dt / (2.0 * np.pi)
    return spectrum


@dataclass(frozen=True)
class DephasingSeries:
    """Complex dephasing factor phi(t) on the grid t_k = (k - n/2) dt, k < n, held as
    ``half``: phi(j dt) for j < n/2, then the unpaired edge sample phi(-t_max); every
    other t < 0 reads phi(-t) = conj(phi(t)).  Invariants: phi(0) = 1 and |phi| <= 1 (the
    coherence can never exceed its initial value).  ``realness_residual`` is the largest
    modulus of the transform of the anti-Hermitian part: by default the half's,
    (dt/2pi)(|Im phi(0)| + |Im phi(-t_max)|); ``from_samples`` stores its samples'.
    """

    dt: float
    half: np.ndarray
    realness_residual: float | None = None

    def __post_init__(self):
        dt, half = float(self.dt), np.array(self.half, dtype=complex)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("time step must be finite and positive")
        _series_size(half)
        if not np.all(np.isfinite(half)):
            raise ValueError("dephasing factor values must be finite")
        if abs(half[0] - 1.0) > SERIES_UNIT_TOL:
            raise ValueError("dephasing factor must equal 1 at t = 0")
        if float(np.max(np.abs(half))) > 1.0 + SERIES_UNIT_TOL:
            raise ValueError("dephasing factor exceeds unit modulus")
        residual = self.realness_residual
        if residual is None:
            residual = dt / (2.0 * np.pi) * (abs(half[0].imag) + abs(half[-1].imag))
        half.setflags(write=False)
        for name, value in (("dt", dt), ("half", half), ("realness_residual", float(residual))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_samples(cls, times, values) -> "DephasingSeries":
        """The series of finite samples on a whole symmetric grid, the one check of their
        symmetry: max |v(-t) - conj(v(t))| <= SERIES_SYM_TOL.  Over the FFT's index pairs
        (j, -j), t = -t_max pairing with itself, they split into a Hermitian part, which
        the series keeps, and an anti-Hermitian A, whose transform is i ``_half_spectrum``
        of -iA."""
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=complex)
        _require_series_grid(t)
        if v.shape != t.shape or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite, one per time")
        if float(np.max(np.abs(v))) > 1.0 + SERIES_UNIT_TOL:  # H drops the edge's Im
            raise ValueError("dephasing factor exceeds unit modulus")
        n0, dt = t.size // 2, float(t[1] - t[0])
        x = np.append(v[n0:], v[0])  # phi(j dt), j < n/2, then phi(-t_max)
        y = np.conj(v[n0::-1])  # conj phi(-j dt), j = 0 .. n/2
        if np.max(np.abs(x[:-1] - y[:-1])) > SERIES_SYM_TOL:
            raise ValueError("series not conjugate-symmetric")
        residual = float(np.max(np.abs(_half_spectrum(-0.5j * (x - y), dt))))
        return cls(dt, 0.5 * (x + y), residual)

    @property
    def n(self) -> int:
        return 2 * (self.half.size - 1)

    def full(self) -> np.ndarray:
        """The n values in grid order; the conjugate's Im is 0 - Im, so a real value keeps +0."""
        n0 = self.n // 2
        v = np.concatenate([self.half[n0:], self.half[1:n0][::-1], self.half[:n0]])
        np.subtract(0.0, v.imag[1:n0], out=v.imag[1:n0])
        return v


def dephasing_conventional(model: SpectralDensityModel, omega0: float,
                           grid: np.ndarray) -> DephasingSeries:
    """Series exp(i omega0 t - Phi(t)) on the given symmetric grid."""
    t, dt = _half_grid(grid)
    rule = _FilonRule(model)
    exponent = np.clip(_on_grid(lambda x: rule.integrals(x)[:1], t)[0], 0.0, None)
    return DephasingSeries(dt, np.exp(1j * omega0 * t - exponent))


def extended_exponents(model: SpectralDensityModel, grid: np.ndarray):
    """(Phi, drift) of the extended model (T = 0) on the grid's half layout, from one set of
    knots: the decoherence exponent and int 4J/w^2 (w t - sin w t) dw."""
    if model.temperature != 0.0:
        raise ValueError("extended model implemented at T=0 only")
    t, _ = _half_grid(grid)
    rule = _FilonRule(model)
    even, odd = _on_grid(rule.integrals, t)
    return np.clip(even, 0.0, None), rule.inverse_frequency_mass * t - np.sign(t) * odd


def _extended_values(exponent, drift, phase: float) -> np.ndarray:
    """exp(-i theta - Phi), theta = cos(phase) drift + sign(t) sin(phase) Phi, on a half,
    in one complex array.  For finite inputs these are the bits of
    ``np.exp(-1j * theta - exponent)``, signed zeros included: theta is formed with that
    expression's products, (sign(t) sin(phase)) Phi, and Re is 0 - Phi, not -Phi.  An
    infinite Phi gives exp(-inf) = 0 here, not NaN, so callers check finiteness."""
    sin = math.sin(phase)
    values = np.empty(exponent.size, dtype=complex)
    theta = values.imag
    np.multiply(exponent, sin, out=theta)  # t > 0
    theta[0] = 0.0 * sin * exponent[0]
    theta[-1] = -sin * exponent[-1]  # the edge, t = -t_max
    np.multiply(drift, math.cos(phase), out=values.real)
    np.add(values.real, theta, out=theta)
    np.negative(theta, out=theta)
    np.subtract(0.0, exponent, out=values.real)
    return np.exp(values, out=values)


def extended_series(dt: float, exponent, drift, phase: float) -> DephasingSeries:
    """Series exp(-i theta - Phi), theta = cos(phase) drift + sign(t) sin(phase) Phi, of
    array-likes on a half.  ValueError unless exponent and drift are finite float
    arrays of one 1-d shape."""
    exponent, drift = (np.asarray(a, dtype=float) for a in (exponent, drift))
    if exponent.ndim != 1 or drift.shape != exponent.shape:
        raise ValueError("exponent and drift must match the time grid, and each other")
    if not (np.all(np.isfinite(exponent)) and np.all(np.isfinite(drift))):
        raise ValueError("exponent and drift must be finite")
    return DephasingSeries(dt, _extended_values(exponent, drift, phase))


def _extended_pair(exponent, drift):
    """(Phi, drift) of a half layout as float arrays that ``extended_series`` accepts at every
    finite phase.  ValueError unless the half layouts match and, within the series'
    tolerances, Phi >= 0 and both are 0 at t = 0; both must be finite, with a finite sum
    of their largest magnitudes, which bounds theta."""
    exponent, drift = (np.asarray(a, dtype=float) for a in (exponent, drift))
    if drift.shape != exponent.shape:
        raise ValueError("exponent and drift must match the time grid, and each other")
    _series_size(exponent)
    if not math.isfinite(float(np.max(np.abs(exponent))) + float(np.max(np.abs(drift)))):
        raise ValueError("exponent and drift must be finite")
    if float(np.min(exponent)) < -SERIES_UNIT_TOL:
        raise ValueError("exponent must be nonnegative")
    if abs(complex(exponent[0], drift[0])) > SERIES_UNIT_TOL:
        raise ValueError("exponent and drift must vanish at t = 0")
    return exponent, drift


def dephasing_extended(model: SpectralDensityModel, phase: float,
                       grid: np.ndarray) -> DephasingSeries:
    """Series exp(-i theta_phase(t) - Phi(t)) of the extended model (T = 0)."""
    return extended_series(_half_grid(grid)[1], *extended_exponents(model, grid), phase)


def ohmic_series(omega_c: float, grid: np.ndarray, phase: float | None = None) -> DephasingSeries:
    """Closed-form Ohmic (T = 0) series, bypassing quadrature.

    Conventional: (1 + wc^2 t^2)^-2.  Extended (phase given):
    exp[-i 4 cos(phase) (wc t - arctan wc t)] * (1 + wc^2 t^2)^{-2(1 + i sign(t) sin(phase))}.
    """
    t, dt = _half_grid(grid)
    x = omega_c * t
    log1p = np.log1p(x * x)
    if phase is None:
        return DephasingSeries(dt, np.exp(-2.0 * log1p).astype(complex))
    return extended_series(dt, 2.0 * log1p, 4.0 * (x - np.arctan(x)), phase)


def master_coeffs(series: DephasingSeries, t_max: float | None = None):
    """Effective-energy and decoherence-rate series from the log-derivative of phi.

    Returns (t, epsilon, gamma) at t = j dt for j = 0 .. min(n/2 - 2, t_max / dt),
    with epsilon = Im[d/dt ln phi]/2 and gamma = -Re[d/dt ln phi]/2.  Centered
    differences with phase unwrapping along the samples from t = -dt, conj phi(dt).
    A sample with |phi| <= 1e-14 raises CoefficientSingularityError at the first such t.
    """
    n0 = series.n // 2
    m = n0 - 2 if t_max is None else math.floor(min(n0 - 2, t_max / series.dt))
    if m < 0:
        raise ValueError("window too small for centered differences")
    v = np.concatenate([np.conj(series.half[1:2]), series.half[:m + 2]])
    t = np.arange(-1, m + 2) * series.dt
    mags = np.abs(v)
    vanishing = mags <= 1e-14
    if vanishing.any():  # the first such time: past it |phi| may be rounding noise
        raise CoefficientSingularityError(float(t[int(np.argmax(vanishing))]))
    logv = np.log(mags) + 1j * np.unwrap(np.angle(v))
    dlog = (logv[2:] - logv[:-2]) / (2.0 * series.dt)
    return t[1:-1], 0.5 * np.imag(dlog), -0.5 * np.real(dlog)


def propagate_master(times: np.ndarray, epsilon: np.ndarray, gamma: np.ndarray):
    """Integrate the dephasing master equation's coherence across a coefficient grid.

    d rho/dt = -i eps(t) [sigma_z, rho] + gamma(t) (sigma_z rho sigma_z - rho) by classic
    RK4, steps spanning two grid intervals so every stage lands on a grid point.  The
    populations stay fixed and c = rho[1,0] obeys c' = (2i eps - 2 gamma) c, so each
    step scales c by one factor.  Returns (times[::2], factors): factors[k] = c(t_k)/c(0),
    with factors[0] = 1, for ``dephase_qubit`` to apply to a state.  A factor past unit
    modulus (coefficients the grid does not resolve, as where phi crosses zero between
    grid points) raises NumericalError naming the first such time.
    """
    times = np.asarray(times, dtype=float)
    epsilon = np.asarray(epsilon, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if times.shape != epsilon.shape or times.shape != gamma.shape:
        raise ValueError("coefficient grids are misaligned")
    if times.size < 3:
        raise ValueError("need at least three grid points")
    h = 2.0 * uniform_step(times, "coefficient grids are misaligned")
    end = (times.size - 1) // 2 * 2  # the grid index of the last step's end
    # coefficients far past the grid's resolution overflow to inf or NaN factors,
    # which fail the modulus test below like any other factor past 1
    with np.errstate(over="ignore", invalid="ignore"):
        a = 2j * epsilon - 2.0 * gamma
        a0, a1, a2 = a[0:end:2], a[1:end:2], a[2:end + 1:2]  # each step's start, middle, end
        k2 = a1 * (1.0 + 0.5 * h * a0)
        k3 = a1 * (1.0 + 0.5 * h * k2)
        k4 = a2 * (1.0 + h * k3)
        step = 1.0 + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
        factors = np.cumprod(np.concatenate([[1.0], step]))
        grown = ~(np.abs(factors) <= 1.0 + SERIES_UNIT_TOL)  # NaN too
    steps = times[0 : end + 1 : 2]
    if grown.any():
        raise NumericalError("master-equation coherence factor exceeds unit modulus at t = %r"
                             % float(steps[int(np.argmax(grown))]))
    return steps, factors
