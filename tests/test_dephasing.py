import functools
import math
import tracemalloc

import numpy as np
import pytest

from hens.dephasing import (
    _GL_W,
    _GL_X,
    CoefficientSingularityError,
    DephasingSeries,
    SpectralDensityModel,
    decoherence_exponent,
    dephasing_conventional,
    dephasing_extended,
    extended_exponents,
    extended_series,
    master_coeffs,
    ohmic_series,
    propagate_master,
    time_grid,
    UPWARD_X,
    _FilonRule,
    _coth,
    _cut,
    _gauss_legendre,
    _knot_spline,
    _panel_edges,
    _spherical_j,
)
from hens import dephasing
from hens.ensemble import dephase_qubit
from hens.qdyn import PAULI_Z, DensityMatrix, maximally_mixed, pure_state

OHMIC1 = SpectralDensityModel.ohmic(1.0)


def phi_t0_analytic(t, omega_c=1.0):
    return 2.0 * np.log1p((omega_c * t) ** 2)


class TestSpectralDensityModel:
    def test_ohmic_density(self):
        om = np.array([0.5, 1.0, 3.0])
        assert np.allclose(OHMIC1.density(om), om * np.exp(-om), atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            SpectralDensityModel.ohmic(-1.0)
        with pytest.raises(ValueError):
            SpectralDensityModel.ohmic(1.0, temperature=-0.2)
        with pytest.raises(ValueError):
            SpectralDensityModel.tabulated([0.0, 1.0], [0.5, -0.1])
        with pytest.raises(ValueError):
            SpectralDensityModel.tabulated([1.0, 0.5], [0.1, 0.1])
        with pytest.raises(ValueError):
            SpectralDensityModel(kind="lorentzian")
        with pytest.raises(ValueError):
            SpectralDensityModel.ohmic(np.inf)
        with pytest.raises(ValueError):
            SpectralDensityModel.ohmic(1.0, temperature=np.nan)


class TestDecoherenceExponent:
    def test_zero_time(self):
        assert decoherence_exponent(OHMIC1, 0.0) == 0.0

    def test_ohmic_reference_value(self):
        # 4 int e^{-w}(1-cos wt)/w dw = 2 ln(1 + t^2) -> 2 ln 2 at t = 1
        assert abs(decoherence_exponent(OHMIC1, 1.0) - 2.0 * np.log(2.0)) < 1e-10

    @pytest.mark.parametrize("omega_c", [1.0, 3.0])
    def test_matches_analytic_form(self, omega_c):
        model = SpectralDensityModel.ohmic(omega_c)
        ts = np.linspace(0.0, 50.0, 41)
        got = decoherence_exponent(model, ts)
        assert np.max(np.abs(got - phi_t0_analytic(ts, omega_c))) < 1e-8

    def test_even_and_nonnegative(self):
        rng = np.random.default_rng(2)
        for t in rng.uniform(-20, 20, 8):
            a = decoherence_exponent(OHMIC1, t)
            assert a >= 0.0
            assert a == decoherence_exponent(OHMIC1, -t)
        ts = rng.uniform(-20, 20, 40)
        both = decoherence_exponent(OHMIC1, np.concatenate([ts, -ts]))
        assert np.array_equal(both[:40], both[40:])

    def test_finite_temperature_against_mpmath(self):
        # independent oracle: arbitrary-precision quadrature of the same integrand
        mp = pytest.importorskip("mpmath")
        temp = 0.7
        model = SpectralDensityModel.ohmic(1.0, temperature=temp)
        for t in (0.5, 2.0):
            f = lambda w: (4.0 * mp.exp(-w) / w) * mp.coth(w / (2 * temp)) \
                * (1 - mp.cos(w * t))
            pts = [0] + [k * np.pi / (2 * t) for k in range(1, int(80 * t / np.pi) + 1)] \
                + [40, mp.inf]
            exact = float(mp.quad(f, pts))
            assert abs(decoherence_exponent(model, t) - exact) < 1e-8

    def test_low_temperature_against_mpmath(self):
        # coth(w/2T) - 1 ~ 2 e^{-w/T} falls off within a few T: at T = 1e-3 the
        # panel just above 4T is half a unit wide and needs the grading near 0
        mp = pytest.importorskip("mpmath")
        temp = 1e-3
        model = SpectralDensityModel.ohmic(1.0, temperature=temp)
        for t in (1.0, 5.0):
            f = lambda w: (4.0 * mp.exp(-w) / w) * mp.coth(w / (2 * temp)) \
                * (1 - mp.cos(w * t))
            pts = [0] + [temp * 2**k for k in range(7)] + [k * 0.5 for k in range(1, 81)] \
                + [mp.inf]
            exact = float(mp.quad(f, pts))
            assert abs(decoherence_exponent(model, t) - exact) < 1e-10

    def test_tabulated_tracks_ohmic(self):
        om = np.linspace(0.0, 40.0, 16001)
        model = SpectralDensityModel.tabulated(om, om * np.exp(-om))
        for t in (0.5, 2.0, 7.0):
            # linear-interpolation bias of the table, not quadrature error
            assert abs(decoherence_exponent(model, t) - phi_t0_analytic(t)) < 1e-4


def panel_base(model):
    """The base partition (the table knots, or [0, omega_max], split at 4T) and the
    largest panel width on each of its intervals: half the model's width, 0.5 T below 4T."""
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
    return base, width


def _panel_nodes(model, t):
    """Flat Gauss-Legendre nodes/weights of the capped rule: the library's partition
    ``_panel_edges(model)`` at t = 0; for t != 0 every base interval cut by ``_cut``
    into panels also under the oscillation bound pi/(4|t|)."""
    if t == 0.0:
        edges = _panel_edges(model)
    else:
        base, width = panel_base(model)
        edges = _cut(base, np.minimum(width, np.pi / (4.0 * abs(t))), t)
    nodes, weights = _gauss_legendre(edges)
    return nodes.ravel(), weights.ravel()


def loop_panel_nodes(model, t):
    """Reference panel builder: one np.linspace per base interval."""
    osc = np.pi / (4.0 * abs(t)) if t != 0.0 else np.inf
    cap = min(0.5 * model.omega_scale(), osc)
    if model.kind == "tabulated":
        base = np.unique(np.concatenate([[0.0], model.table_omega]))
    else:
        base = np.array([0.0, model.omega_max()])
    temp = model.temperature
    if temp > 0.0:
        base = np.unique(np.concatenate([base, [min(4.0 * temp, base[-1])]]))
    edges = [np.array([base[0]])]
    for a, b in zip(base[:-1], base[1:]):
        w = cap
        if temp > 0.0 and a < 4.0 * temp:
            w = min(w, 0.5 * temp)
        k = max(1, int(np.ceil((b - a) / w)))
        edges.append(np.linspace(a, b, k + 1)[1:])
    e = np.concatenate(edges)
    c = 0.5 * (e[1:] + e[:-1])
    h = 0.5 * (e[1:] - e[:-1])
    nodes = (c[:, None] + h[:, None] * _GL_X[None, :]).ravel()
    weights = (h[:, None] * _GL_W[None, :]).ravel()
    return nodes, weights


def uneven_table(temperature):
    rng = np.random.default_rng(5)
    om = np.concatenate([[0.0, 0.1, 0.3], np.sort(rng.uniform(0.5, 20.0, 150))])
    return SpectralDensityModel.tabulated(om, om * np.exp(-om), temperature=temperature)


def panel_models():
    om = np.linspace(0.0, 40.0, 401)
    models = []
    # at T = 100, 4T = 400 lies beyond both frequency ranges and is clipped to their ends
    for temp in (0.0, 0.05, 0.5, 3.0, 100.0):
        models.append(SpectralDensityModel.tabulated(om, om * np.exp(-om), temperature=temp))
        models.append(SpectralDensityModel.ohmic(2.0, temperature=temp))
    # 4T = 0.2 falls inside the table interval [0.1, 0.3]
    models.append(uneven_table(0.05))
    models.append(uneven_table(0.0))
    return models


def sine_integral(model, t):
    """Reference odd integral: int_0^inf 4 J/w^2 sin(w t) dw on its own node set."""
    s = math.copysign(1.0, t) if t != 0.0 else 0.0
    t = abs(float(t))
    if t == 0.0:
        return 0.0
    nodes, weights = _panel_nodes(model, t)
    f = 4.0 * model.density(nodes) / nodes**2 * np.sin(nodes * t)
    return s * float(f @ weights)


def gl_integrals(model, t):
    """Reference (even, odd) pair: Gauss-Legendre panels under the oscillation bound pi/(4t).

    even = int 4 J/w^2 coth(w/2T) (1 - cos w t) dw (coth = 1 at T = 0) and
    odd = int 4 J/w^2 sin(w t) dw, each on the nodes of ``_panel_nodes(model, t)``.
    """
    if t == 0.0:
        return 0.0, 0.0
    nodes, weights = _panel_nodes(model, t)
    f = 4.0 * model.density(nodes) / nodes**2 * (2.0 * np.sin(0.5 * nodes * t) ** 2)
    if model.temperature > 0.0:
        f = f * _coth(nodes / (2.0 * model.temperature))
    return max(float(f @ weights), 0.0), sine_integral(model, t)


def oracle_models():
    om = np.linspace(0.0, 40.0, 401)
    models = [SpectralDensityModel.ohmic(omega_c, temperature=temp)
              for omega_c in (1.0, 3.0) for temp in (0.0, 0.7)]
    models += [SpectralDensityModel.tabulated(om, om * np.exp(-om), temperature=temp)
               for temp in (0.0, 0.5)]
    # without the grading near w = 0 this table misses the reference by 1.8e-9 at T = 0
    return models + [uneven_table(0.0), uneven_table(0.05)]


MIXED_TIMES = np.array([0.0, 1e-3, -1e-3, 0.37, -2.5, 9.0, 50.0, 200.0, 2e3, 1e4])


class TestPanelNodes:
    @pytest.mark.parametrize("model", panel_models(), ids=lambda m: f"{m.kind}-T{m.temperature}")
    def test_matches_loop_reference(self, model):
        for t in (0.0, 1e-3, np.pi / (2.0 * model.omega_scale()), 5.0, 200.0):
            nodes, weights = _panel_nodes(model, t)
            ref_nodes, ref_weights = loop_panel_nodes(model, t)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(weights, ref_weights)

    @pytest.mark.parametrize("model", oracle_models(), ids=lambda m: (
        f"ohmic{m.omega_c:g}" if m.table_omega is None else f"table{m.table_omega.size}")
        + f"-T{m.temperature:g}")
    def test_filon_rule_matches_gauss_legendre(self, model):
        # one time per call, then every time in one call, with two more past the w = 0
        # panel's bound (t > 1.6e3 for Ohmic at omega_c = 1) that no reference reaches
        rule = _FilonRule(model)
        batch = rule.integrals(MIXED_TIMES)
        assert batch[0].shape == batch[1].shape == MIXED_TIMES.shape
        for k, t in enumerate(MIXED_TIMES[:-2]):
            ref_even, ref_odd = gl_integrals(model, t)
            for even, odd in (rule.integrals(t), (batch[0][k], batch[1][k])):
                assert abs(even - ref_even) < 1e-10
                # at T > 0, coth makes int g sin(w t) dw diverge at w = 0: no reference
                if model.temperature == 0.0:
                    assert abs(odd - ref_odd) < 1e-10

    def test_filon_rule_matches_closed_forms(self):
        # 4 int e^{-w/wc} sin(w t)/w dw = 4 arctan(wc t)
        for omega_c in (1.0, 3.0):
            rule = _FilonRule(SpectralDensityModel.ohmic(omega_c))
            for t in (0.37, -2.5, 9.0, 200.0):
                assert abs(rule.integrals(t)[1] - 4.0 * np.arctan(omega_c * t)) < 1e-9
        # and 4 int e^{-w} (1 - cos w t)/w dw = 2 ln(1 + t^2), far out in t
        rule = _FilonRule(OHMIC1)
        for t in (200.0, 1000.0):
            even, odd = rule.integrals(t)
            assert abs(even - 2.0 * np.log1p(t * t)) < 1e-11
            assert abs(odd - 4.0 * np.arctan(t)) < 1e-11
        assert np.max(MIXED_TIMES) > np.pi / (4.0 * rule.zero)
        even, odd = rule.integrals(MIXED_TIMES)
        assert np.max(np.abs(even - 2.0 * np.log1p(MIXED_TIMES**2))) < 1e-11
        assert np.max(np.abs(odd - 4.0 * np.arctan(MIXED_TIMES))) < 1e-11

    @pytest.mark.parametrize("model", [OHMIC1, uneven_table(0.05)],
                             ids=["ohmic", "table-T0.05"])
    def test_values_do_not_depend_on_blocks(self, model):
        # more than three blocks, then each half alone; sums may only change order
        # where BLAS meets another row count
        rule = _FilonRule(model)
        ts = np.concatenate([np.linspace(0.0, 300.0, 3 * rule.step + 7), [2e3, 1e4]])
        whole = np.array(rule.integrals(ts))
        half = ts.size // 2
        parts = np.concatenate([rule.integrals(ts[:half]), rule.integrals(ts[half:])], axis=1)
        assert np.max(np.abs(parts - whole)) <= 1e-14 * np.max(np.abs(whole))

    @pytest.mark.parametrize(("model", "shared"),
                             [(OHMIC1, True), (panel_models()[0], True), (uneven_table(0.05), False)],
                             ids=["ohmic", "table", "uneven-T0.05"])
    def test_shared_and_gathered_products_agree(self, monkeypatch, model, shared):
        # every half-width its own product, then every panel's weights gathered
        # into one product; the uneven table, whose half-widths hold one panel each,
        # takes only the gathered one, so its panels make no Python-level loop
        assert bool(_FilonRule(model).products) == shared
        ts = np.concatenate([np.linspace(0.0, 300.0, 97), [2e3, 1e4]])
        values = []
        for pairs in (1, 1 << 62):
            monkeypatch.setattr(dephasing, "SHARED_PAIRS", pairs)
            values.append(np.array(_FilonRule(model).integrals(ts)))
        assert np.max(np.abs(values[0] - values[1])) <= 1e-14 * np.max(np.abs(values[1]))

    def test_one_run_of_half_widths_is_read_as_a_view(self):
        # the uneven table's half-widths are all distinct: its weights are sliced, not
        # gathered, and the values are the gathered product's bit for bit
        rule = _FilonRule(uneven_table(0.0))
        assert isinstance(rule.unshared, slice)
        ts = np.concatenate([np.linspace(0.0, 300.0, 97), [2e3, 1e4]])
        view = np.array(rule.integrals(ts))
        rule.unshared = np.arange(rule.unshared.start, rule.unshared.stop)
        assert np.array_equal(np.array(rule.integrals(ts)), view)

    def test_error_names_the_time_that_fails(self, monkeypatch):
        # 2e3 and 1e4 share a block, and only 2e3 overflows
        rule = _FilonRule(OHMIC1)
        zero_panel = rule._zero_panel
        monkeypatch.setattr(rule, "_zero_panel", lambda t: (
            (np.float64(1e308) * 10.0, 0.0) if t == 2e3 else zero_panel(t)))
        with pytest.raises(ValueError, match=r"exponent at t = 2000\.0 is not representable"):
            rule.integrals(np.array([1.0, 2e3, 1e4]))

    def test_panel_count_is_bounded(self):
        # refused before any node array is allocated
        with pytest.raises(ValueError, match="panels"):
            decoherence_exponent(OHMIC1, 1e12)


def spherical_j_reference(mp, x):
    """j_0 .. j_15 at x from mpmath's sin and cos by the upward recurrence at 80 digits,
    enough for the ~47 digits it loses at x = pi/8."""
    with mp.workdps(80):
        x = mp.mpf(float(x))
        row = [mp.sin(x) / x, mp.sin(x) / x**2 - mp.cos(x) / x]
        for n in range(1, 15):
            row.append((2 * n + 1) / x * row[-1] - row[-2])
        return [float(v) for v in row]


def recorded_knots(monkeypatch, build):
    """The (knots, values, exponent) that ``build()`` passes to ``_knot_spline``."""
    calls = []

    def record(ks, ys, e):
        calls.append((ks.copy(), ys.copy(), e))
        return _knot_spline(ks, ys, e)

    monkeypatch.setattr(dephasing, "_knot_spline", record)
    build()
    (call,) = calls
    return call


def geometric_knot_sets():
    """Random knot sets of 4 to 1000 knots, each spacing a fixed ratio (at most 1.5,
    and at most 1e6 over the set) times the previous one, with 1 or 2 value columns."""
    rng = np.random.default_rng(11)
    for n in [4, 5, 6, 7, 1000, *rng.integers(8, 1000, 60).tolist()]:
        ratio = np.exp(rng.uniform(-1.0, 1.0) * min(math.log(1.5), math.log(1e6) / (n - 2)))
        x = np.concatenate([[0.0], np.cumsum(ratio ** np.arange(n - 1))])
        x *= rng.uniform(0.5, 1.0) / x[-1]
        columns = int(rng.integers(1, 3))
        if rng.random() < 0.5:
            y = rng.standard_normal((n, columns))
        else:
            y = np.sin(np.outer(x, rng.uniform(1.0, 20.0, columns)))
        yield x, (y[:, 0] if columns == 1 else y)


class TestKernels:
    """The numpy kernels of the quadrature against mpmath and scipy."""

    def test_spherical_j_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        edge = [np.nextafter(UPWARD_X, 0.0), UPWARD_X, np.nextafter(UPWARD_X, 100.0)]
        x = np.concatenate([np.geomspace(np.pi / 8.0, 1e4, 200), edge, [12.0]])
        ref = np.array([spherical_j_reference(mp, v) for v in x])
        assert np.max(np.abs(_spherical_j(x) - ref)) <= 4e-15
        with mp.workdps(30):  # the reference is mpmath's Bessel function
            for v in (np.pi / 8.0, 3.0, 12.0, UPWARD_X, 70.0):
                ref = spherical_j_reference(mp, v)
                for n in (0, 7, 15):
                    exact = mp.sqrt(mp.pi / (2 * mp.mpf(v))) * mp.besselj(n + 0.5, v)
                    assert abs(ref[n] - float(exact)) <= 1e-17 * max(1.0, abs(ref[n]))

    @pytest.mark.parametrize("mode", ["extended", "conventional"])
    def test_knot_spline_matches_scipy_on_recorded_knots(self, monkeypatch, mode):
        interpolate = pytest.importorskip("scipy.interpolate")
        grid = time_grid(200.0, 1 << 16)
        build = ((lambda: extended_exponents(OHMIC1, grid)) if mode == "extended"
                 else (lambda: dephasing_conventional(OHMIC1, 0.0, grid)))
        ks, y, e = recorded_knots(monkeypatch, build)
        x = np.ldexp(ks, -e)
        assert y.ndim == (2 if mode == "extended" else 1)
        u = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), np.ldexp(np.abs(grid), -e)])
        got = _knot_spline(ks, y, e)(u)
        assert got.shape == u.shape + y.shape[1:]
        ref = interpolate.CubicSpline(x, y)(u)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(y))

    def test_knot_spline_matches_scipy_on_geometric_knots(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        for x, y in geometric_knot_sets():
            u = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), np.linspace(0.0, x[-1], 999)])
            got = _knot_spline(x, y, 0)(u)
            ref = interpolate.CubicSpline(x, y)(u)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(y)), x.size


PHASE_GRID = time_grid(64.0, 1 << 12)  # dt = 1/32: t = 1 is a grid point
PHASE_T0 = PHASE_GRID.size // 2
PHASE_T1 = PHASE_T0 + 32


@functools.cache
def ohmic_phase_pair():
    return extended_exponents(OHMIC1, PHASE_GRID)


def pointwise_phase(model, phase, t):
    """Reference: the extended phase angle at one time, straight from the Filon rule,
    cos(phase) int 4J/w^2 (w t - sin w t) dw + sign(t) sin(phase) int 4J/w^2 (1 - cos w t) dw."""
    rule = _FilonRule(model)
    even, odd = rule.integrals(t)
    drift = rule.inverse_frequency_mass * t - odd
    return math.cos(phase) * drift + np.sign(t) * math.sin(phase) * even


def table_401(temperature):
    """An Ohmic J tabulated at 401 knots on [0, 40]."""
    om = np.linspace(0.0, 40.0, 401)
    return SpectralDensityModel.tabulated(om, om * np.exp(-om), temperature)


def test_series_memory_is_bounded():
    # the Filon rule's blocks of (time, panel) pairs set this peak: 0.55 MiB
    # at 2^12 pairs (0.38 MiB with one time per call), 0.98 MiB at 2^13, 1.73 MiB at 2^14
    model = table_401(0.0)
    grid = time_grid(5.0, 256)
    dephasing_conventional(model, 0.0, grid)  # one-time allocations of a first call
    tracemalloc.start()
    try:
        dephasing_conventional(model, 0.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * 2**20


NARROW_TABLE = SpectralDensityModel.tabulated(np.array([4.07, 4.32]), np.array([1.0, 1.0]))
NARROW_GRID = time_grid(200.0 / 0.25, 64)  # the CLI's default t_max = 200 / table width


def filon_times(monkeypatch):
    """The times that ``_FilonRule.integrals`` receives, one array per call."""
    calls = []
    integrals = _FilonRule.integrals

    def record(self, ts):
        calls.append(np.array(ts, dtype=float).ravel())
        return integrals(self, ts)

    monkeypatch.setattr(_FilonRule, "integrals", record)
    return calls


def conventional(model, grid):
    return dephasing_conventional(model, 0.0, grid)


class TestGridKnots:
    """The series' knots are grid times, each evaluated at most once."""

    @pytest.mark.parametrize("build,model,grid", [
        # 401 table knots on a grid of 129 distinct |t|, and a narrow band far from w = 0
        pytest.param(conventional, table_401(0.0), time_grid(5.0, 256), id="table"),
        pytest.param(conventional, table_401(0.5), time_grid(5.0, 256), id="table-warm"),
        pytest.param(conventional, NARROW_TABLE, NARROW_GRID, id="narrow-conventional"),
        pytest.param(extended_exponents, NARROW_TABLE, NARROW_GRID, id="narrow-extended"),
    ])
    def test_each_grid_time_at_most_once(self, monkeypatch, build, model, grid):
        calls = filon_times(monkeypatch)
        build(model, grid)
        times = np.concatenate(calls)
        distinct = np.unique(np.abs(grid))
        assert np.isin(times, distinct).all()
        assert np.unique(times).size == times.size <= distinct.size

    @pytest.mark.parametrize("model", [OHMIC1, NARROW_TABLE], ids=["ohmic", "narrow"])
    @pytest.mark.parametrize("n", [4, 64])
    def test_small_grids_hold_the_filon_values(self, model, n):
        # every |t| is a knot: the series are the rule's values, bit for bit
        grid = NARROW_GRID if n == 64 and model is NARROW_TABLE else time_grid(3.0, n)
        rule = _FilonRule(model)
        even, odd = rule.integrals(np.abs(grid))
        series = dephasing_conventional(model, 0.7, grid)
        assert np.array_equal(series.values, np.exp(1j * 0.7 * grid - even))
        exponent, drift = extended_exponents(model, grid)
        assert np.array_equal(exponent, even)
        assert np.array_equal(drift, rule.inverse_frequency_mass * grid - np.sign(grid) * odd)


class TestExtendedPhase:
    """The phase angle theta of ``extended_series`` on the pair of ``extended_exponents``,
    read off the series as -arg phi."""

    def test_zero_time(self):
        exponent, drift = ohmic_phase_pair()
        assert exponent[PHASE_T0] == 0.0 and drift[PHASE_T0] == 0.0
        assert extended_series(PHASE_GRID, exponent, drift, 0.3).values[PHASE_T0] == 1.0

    def test_cosine_part_reference(self):
        # 4 (wc t - arctan wc t) at wc = t = 1
        s = extended_series(PHASE_GRID, *ohmic_phase_pair(), 0.0)
        assert abs(-np.angle(s.values[PHASE_T1]) - (4.0 - np.pi)) < 1e-9

    def test_sine_part_equals_zero_temperature_exponent(self):
        s = extended_series(PHASE_GRID, *ohmic_phase_pair(), np.pi / 2)
        assert abs(-np.angle(s.values[PHASE_T1]) - 2.0 * np.log(2.0)) < 1e-9

    def test_odd(self):
        # arg phi(t) + arg phi(-t) = -(theta(t) + theta(-t)) modulo 2 pi
        v = extended_series(PHASE_GRID, *ohmic_phase_pair(), 0.9).values
        rng = np.random.default_rng(7)
        for k in rng.integers(4, 321, 5):  # t in [0.125, 10]
            assert abs(np.angle(v[PHASE_T0 + k] * v[PHASE_T0 - k])) < 1e-12

    def test_finite_temperature_rejected(self):
        warm = SpectralDensityModel.ohmic(1.0, temperature=0.5)
        with pytest.raises(ValueError, match="T=0"):
            dephasing_extended(warm, 0.1, time_grid(10.0, 1 << 8))
        with pytest.raises(ValueError, match="T=0"):
            extended_exponents(warm, time_grid(10.0, 1 << 8))


class TestSeriesConstruction:
    def test_grid_shape(self):
        g = time_grid(50.0, 1 << 10)
        assert g.size == 1 << 10
        assert g[g.size // 2] == 0.0
        assert np.allclose(np.diff(g), 100.0 / (1 << 10))
        with pytest.raises(ValueError):
            time_grid(50.0, 1000)  # not a power of two

    def test_invariants_enforced(self):
        g = time_grid(10.0, 64)
        good = np.exp(-np.abs(g))
        DephasingSeries(g, good)
        with pytest.raises(ValueError, match="conjugate"):
            DephasingSeries(g, good * np.exp(0.01j * g**2))  # even phase breaks symmetry
        bumped = good.copy()
        bumped[10] = bumped[g.size - 10] = 1.2  # symmetric pair above unit modulus
        with pytest.raises(ValueError, match="modulus"):
            DephasingSeries(g, bumped)
        with pytest.raises(ValueError, match="t = 0"):
            DephasingSeries(g, 0.9 * good)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                DephasingSeries(g, np.where(g == 0.0, 1.0, bad))

    def test_conventional_series_paper_values(self):
        # t = 1 lands on the grid: dt = 1/32
        g = time_grid(64.0, 1 << 12)
        s1 = dephasing_conventional(OHMIC1, 0.0, g)
        i = np.argmin(np.abs(g - 1.0))
        assert g[i] == 1.0
        assert abs(abs(s1.values[i]) - 0.25) < 1e-8
        s3 = dephasing_conventional(SpectralDensityModel.ohmic(3.0), 0.0, g)
        assert abs(abs(s3.values[i]) - 0.01) < 1e-8
        assert s1.values[g.size // 2] == 1.0

    def test_conventional_series_with_splitting(self):
        omega0 = 2.0
        g = time_grid(32.0, 1 << 11)
        s = dephasing_conventional(OHMIC1, omega0, g)
        expected = np.exp(1j * omega0 * g) * (1 + g**2) ** -2.0
        assert np.max(np.abs(s.values - expected)) < 1e-8

    def test_extended_series_closed_form(self):
        g = time_grid(50.0, 1 << 12)
        s = dephasing_extended(OHMIC1, np.pi / 2, g)
        expected = (1 + g**2) ** (-2.0 * (1 + 1j * np.sign(g)))
        assert np.max(np.abs(s.values - expected)) < 1e-8

    def test_extended_modulus_is_phase_independent(self):
        g = time_grid(20.0, 1 << 10)
        conv = dephasing_conventional(OHMIC1, 0.0, g)
        for phase in (0.0, np.pi / 4, 1.9):
            ext = dephasing_extended(OHMIC1, phase, g)
            assert np.max(np.abs(np.abs(ext.values) - np.abs(conv.values))) < 1e-9
            assert ext.values[g.size // 2] == 1.0

    def test_tabulated_extended_matches_pointwise_phase(self):
        # many table intervals: Phi and the sine integral are two columns of one spline
        om = np.linspace(0.0, 20.0, 201)
        model = SpectralDensityModel.tabulated(om, om * np.exp(-om))
        g = time_grid(10.0, 256)
        s = dephasing_extended(model, 0.7, g)
        for k in (3, 64, 128, 160, 250):
            t = g[k]
            exact = np.exp(-1j * pointwise_phase(model, 0.7, t) - _FilonRule(model).integrals(t)[0])
            assert abs(s.values[k] - exact) < 1e-9

    def test_tiny_time_grid(self):
        # knots ~1e-152 apart: the spline's cubic coefficients must stay representable
        g = time_grid(1e-150, 256)
        for s in (dephasing_conventional(OHMIC1, 0.0, g), dephasing_extended(OHMIC1, 0.3, g)):
            assert np.max(np.abs(s.values - 1.0)) < 1e-12

    @pytest.mark.parametrize("phase", [None, np.pi / 4])
    def test_default_grid_matches_closed_form(self, phase):
        # 2^16 points on [-200, 200): base knots at t = 25 once nearly coincided,
        # and the spline through that pair set the series' worst error (~1.5e-9)
        g = time_grid(200.0, 1 << 16)
        exact = ohmic_series(1.0, g, phase=phase)
        quad = (dephasing_conventional(OHMIC1, 0.0, g) if phase is None
                else dephasing_extended(OHMIC1, phase, g))
        assert np.max(np.abs(exact.values - quad.values)) < 1e-10

    @pytest.mark.parametrize("phase", [None, np.pi / 4])
    def test_closed_form_matches_quadrature(self, phase):
        g = time_grid(50.0, 1 << 12)
        exact = ohmic_series(1.0, g, phase=phase)
        quad = (dephasing_conventional(OHMIC1, 0.0, g) if phase is None
                else dephasing_extended(OHMIC1, phase, g))
        assert np.max(np.abs(exact.values - quad.values)) < 1e-8

    def test_quadrature_pair_matches_closed_pair_at_every_phase(self, ohmic_pair):
        # the landscape builds all 64 phases from one quadrature of (Phi, drift)
        g = time_grid(200.0, 1 << 16)
        quad, exact = extended_exponents(OHMIC1, g), ohmic_pair(g)
        for phase in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            err = extended_series(g, *quad, phase).values - extended_series(g, *exact, phase).values
            assert np.max(np.abs(err)) <= 1e-10


class TestMasterCoefficients:
    def test_ohmic_rate_and_drift(self):
        g = time_grid(20.0, 1 << 14)
        t, eps, gam = master_coeffs(ohmic_series(1.0, g))
        expected = 2.0 * t / (1.0 + t**2)
        assert np.max(np.abs(gam - expected)) < 1e-5
        assert np.max(np.abs(eps)) < 1e-10
        i0 = np.argmin(np.abs(t))
        assert abs(gam[i0]) < 1e-8

    def test_pure_rotation_coefficients(self):
        omega0 = 1.3
        g = time_grid(10.0, 1 << 10)
        s = DephasingSeries(g, np.exp(1j * omega0 * g))
        t, eps, gam = master_coeffs(s)
        assert np.max(np.abs(eps - omega0 / 2.0)) < 1e-10
        assert np.max(np.abs(gam)) < 1e-12

    def test_vanishing_factor_raises(self):
        g = time_grid(10.0, 1 << 10)
        # place an exact zero of cos on a grid point
        a = 0.5 * np.pi / g[700]
        s = DephasingSeries(g, np.cos(a * g).astype(complex))
        with pytest.raises(CoefficientSingularityError) as err:
            master_coeffs(s)
        assert abs(abs(err.value.t) - g[700]) < 1e-12

    def test_window_selects_subgrid(self):
        g = time_grid(10.0, 1 << 10)
        s = DephasingSeries(g, np.cos(g).astype(complex))
        t, eps, gam = master_coeffs(s, t_min=-1.0, t_max=1.0)
        assert t[0] >= -1.0 and t[-1] <= 1.0


def rk4_propagate_master(rho0, times, epsilon, gamma):
    """Reference: classic RK4 on the 2 x 2 matrix equation, steps of two grid intervals."""
    rho = np.array(rho0.matrix, dtype=complex)
    h = 2.0 * float(times[1] - times[0])

    def rhs(i, r):
        comm = PAULI_Z @ r - r @ PAULI_Z
        return -1j * epsilon[i] * comm + gamma[i] * (PAULI_Z @ r @ PAULI_Z - r)

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


PLUS = pure_state([1.0, 1.0])


def master_case(name):
    """(times, epsilon, gamma) of a propagation case."""
    if name == "constant-drift":
        t = np.linspace(0.0, 5.0, 2001)
        return t, np.full(t.size, 0.4), np.zeros(t.size)
    if name == "ohmic":
        series = ohmic_series(1.0, time_grid(20.0, 1 << 14))
        t_all, eps, gam = master_coeffs(series)
        i0 = int(np.searchsorted(t_all, 0.0))
        sub = slice(i0, i0 + 2 * 4096 + 1)
        return t_all[sub], eps[sub], gam[sub]
    t = np.linspace(0.0, 5.0, 501)  # maximally mixed
    return t, np.sin(t), 0.1 + 0.05 * np.cos(t)


class TestPropagateMaster:
    def test_constant_drift_is_rotation(self):
        t, eps, gam = master_case("constant-drift")
        omega0 = 2.0 * eps[0]
        t_out, factors = propagate_master(t, eps, gam)
        assert abs(factors[-1] - np.exp(1j * omega0 * t_out[-1])) < 1e-10

    def test_reproduces_ohmic_coherence(self):
        t_out, factors = propagate_master(*master_case("ohmic"))
        exact = (1.0 + t_out**2) ** -2.0
        assert np.max(np.abs(factors - exact) / exact) < 1e-5
        pops = np.array([s.matrix[0, 0].real for s in dephase_qubit(PLUS, factors)])
        assert np.max(np.abs(pops - 0.5)) < 1e-12

    def test_maximally_mixed_is_stationary(self):
        _, factors = propagate_master(*master_case("maximally-mixed"))
        mixed = maximally_mixed(2)
        assert all(np.array_equal(s.matrix, mixed.matrix)
                   for s in dephase_qubit(mixed, factors))

    @pytest.mark.parametrize("name", ["constant-drift", "ohmic", "maximally-mixed"])
    def test_matches_matrix_rk4(self, name):
        case = master_case(name)
        t_out, factors = propagate_master(*case)
        t_ref, ref = rk4_propagate_master(PLUS, *case)
        assert np.array_equal(t_out, t_ref) and factors.size == len(ref)
        assert factors[0] == 1.0
        ratio = np.array([s.matrix[1, 0] for s in ref]) / PLUS.matrix[1, 0]
        assert np.max(np.abs(factors - ratio)) <= 1e-12

    def test_factor_past_unit_modulus_raises_at_its_time(self):
        # a negative rate amplifies the coherence: the first step already grows it
        t = np.linspace(0.0, 5.0, 11)
        with pytest.raises(ValueError, match=r"exceeds unit modulus at t = 1\.0$"):
            propagate_master(t, np.zeros(11), np.full(11, -0.1))

    def test_misaligned_grids_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="misaligned"):
            propagate_master(t, np.zeros(11), np.zeros(10))
        bad_t = t.copy()
        bad_t[5] += 0.01
        with pytest.raises(ValueError, match="misaligned"):
            propagate_master(bad_t, np.zeros(11), np.zeros(11))


def extended_coherence(coh0: complex, pops, series: DephasingSeries) -> np.ndarray:
    """System-qubit coherence when the second qubit starts with populations pops.

    coh(t) = coh0 * (p_up * phi(t) + p_down * conj(phi(t))).
    """
    p_up, p_down = float(pops[0]), float(pops[1])
    if abs(p_up + p_down - 1.0) > 1e-10 or p_up < -1e-12 or p_down < -1e-12:
        raise ValueError("invalid populations")
    return coh0 * (p_up * series.values + p_down * np.conj(series.values))


class TestExtendedCoherence:
    def setup_method(self):
        self.grid = time_grid(10.0, 1 << 8)
        self.series = ohmic_series(1.0, self.grid, phase=np.pi / 4)

    def test_aligned_population_passes_factor_through(self):
        coh = extended_coherence(0.5j, (1.0, 0.0), self.series)
        assert np.max(np.abs(coh - 0.5j * self.series.values)) < 1e-14

    def test_balanced_populations_take_real_part(self):
        coh = extended_coherence(0.5, (0.5, 0.5), self.series)
        assert np.max(np.abs(coh - 0.5 * self.series.values.real)) < 1e-14

    def test_initial_value_unchanged(self):
        coh = extended_coherence(0.3 + 0.1j, (0.7, 0.3), self.series)
        assert abs(coh[self.grid.size // 2] - (0.3 + 0.1j)) < 1e-14

    def test_invalid_populations(self):
        with pytest.raises(ValueError, match="population"):
            extended_coherence(0.5, (0.7, 0.6), self.series)
