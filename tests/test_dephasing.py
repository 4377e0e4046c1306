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
    extended_coherence,
    extended_phase,
    master_coeffs,
    ohmic_series,
    propagate_master,
    time_grid,
    _knot_integrals,
    _one_minus_cos_integral,
    _panel_nodes,
    _sine_integral,
)
from hens.qdyn import maximally_mixed, pure_state, trace_distance

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

    def test_tabulated_tracks_ohmic(self):
        om = np.linspace(0.0, 40.0, 16001)
        model = SpectralDensityModel.tabulated(om, om * np.exp(-om))
        for t in (0.5, 2.0, 7.0):
            # linear-interpolation bias of the table, not quadrature error
            assert abs(decoherence_exponent(model, t) - phi_t0_analytic(t)) < 1e-4


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


def panel_models():
    om = np.linspace(0.0, 40.0, 401)
    rng = np.random.default_rng(5)
    uneven = np.concatenate([[0.0, 0.1, 0.3], np.sort(rng.uniform(0.5, 20.0, 150))])
    models = []
    # at T = 100, 4T = 400 lies beyond both frequency ranges and is clipped to their ends
    for temp in (0.0, 0.05, 0.5, 3.0, 100.0):
        models.append(SpectralDensityModel.tabulated(om, om * np.exp(-om), temperature=temp))
        models.append(SpectralDensityModel.ohmic(2.0, temperature=temp))
    # 4T = 0.2 falls inside the table interval [0.1, 0.3]
    models.append(SpectralDensityModel.tabulated(uneven, uneven * np.exp(-uneven),
                                                 temperature=0.05))
    models.append(SpectralDensityModel.tabulated(uneven, uneven * np.exp(-uneven)))
    return models


class TestPanelNodes:
    @pytest.mark.parametrize("model", panel_models(), ids=lambda m: f"{m.kind}-T{m.temperature}")
    def test_matches_loop_reference(self, model):
        for t in (0.0, 1e-3, np.pi / (2.0 * model.omega_scale()), 5.0, 200.0):
            nodes, weights = _panel_nodes(model, t)
            ref_nodes, ref_weights = loop_panel_nodes(model, t)
            assert np.array_equal(nodes, ref_nodes)
            assert np.array_equal(weights, ref_weights)

    def test_knot_integrals_share_nodes_bit_for_bit(self):
        om = np.linspace(0.0, 20.0, 201)
        for model in (OHMIC1, SpectralDensityModel.tabulated(om, om * np.exp(-om))):
            for t in (0.0, 0.37, -2.5, 9.0):
                assert _knot_integrals(model, t) == (
                    _one_minus_cos_integral(model, t, with_coth=False),
                    _sine_integral(model, t),
                )

    def test_panel_count_is_bounded(self):
        # refused before any node array is allocated
        with pytest.raises(ValueError, match="panels"):
            decoherence_exponent(OHMIC1, 1e12)


class TestExtendedPhase:
    def test_zero_time(self):
        assert extended_phase(OHMIC1, 0.3, 0.0) == 0.0

    def test_cosine_part_reference(self):
        # 4 (wc t - arctan wc t) at wc = t = 1
        assert abs(extended_phase(OHMIC1, 0.0, 1.0) - (4.0 - np.pi)) < 1e-9

    def test_sine_part_equals_zero_temperature_exponent(self):
        assert abs(extended_phase(OHMIC1, np.pi / 2, 1.0) - 2.0 * np.log(2.0)) < 1e-9

    def test_odd(self):
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.1, 10, 5):
            fwd = extended_phase(OHMIC1, 0.9, t)
            bwd = extended_phase(OHMIC1, 0.9, -t)
            assert abs(fwd + bwd) < 1e-12

    def test_finite_temperature_rejected(self):
        warm = SpectralDensityModel.ohmic(1.0, temperature=0.5)
        with pytest.raises(ValueError, match="T=0"):
            extended_phase(warm, 0.1, 1.0)


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
        assert s.omega0 == omega0

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
        # many table intervals: the Phi and sine splines share their knot integrals
        om = np.linspace(0.0, 20.0, 201)
        model = SpectralDensityModel.tabulated(om, om * np.exp(-om))
        g = time_grid(10.0, 256)
        s = dephasing_extended(model, 0.7, g)
        for k in (3, 64, 128, 160, 250):
            t = g[k]
            exact = np.exp(-1j * extended_phase(model, 0.7, t) - decoherence_exponent(model, t))
            assert abs(s.values[k] - exact) < 1e-9

    @pytest.mark.parametrize("phase", [None, np.pi / 4])
    def test_closed_form_matches_quadrature(self, phase):
        g = time_grid(50.0, 1 << 12)
        exact = ohmic_series(1.0, g, phase=phase)
        quad = (dephasing_conventional(OHMIC1, 0.0, g) if phase is None
                else dephasing_extended(OHMIC1, phase, g))
        assert np.max(np.abs(exact.values - quad.values)) < 1e-8


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
        s = DephasingSeries(g, np.exp(1j * omega0 * g), omega0=omega0)
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


class TestPropagateMaster:
    def test_constant_drift_is_rotation(self):
        omega0 = 0.8
        n = 2001
        t = np.linspace(0.0, 5.0, n)
        eps = np.full(n, omega0 / 2.0)
        gam = np.zeros(n)
        rho0 = pure_state([1.0, 1.0])
        t_out, states = propagate_master(rho0, t, eps, gam)
        ratio = states[-1].matrix[1, 0] / rho0.matrix[1, 0]
        assert abs(ratio - np.exp(1j * omega0 * t_out[-1])) < 1e-10

    def test_reproduces_ohmic_coherence(self):
        g = time_grid(20.0, 1 << 14)
        series = ohmic_series(1.0, g)
        t_all, eps, gam = master_coeffs(series)
        i0 = int(np.searchsorted(t_all, 0.0))
        sub = slice(i0, i0 + 2 * 4096 + 1)
        rho0 = pure_state([1.0, 1.0])
        t_out, states = propagate_master(rho0, t_all[sub], eps[sub], gam[sub])
        coh = np.array([s.matrix[1, 0] for s in states]) / rho0.matrix[1, 0]
        exact = (1.0 + t_out**2) ** -2.0
        assert np.max(np.abs(coh - exact) / exact) < 1e-5
        pops = np.array([s.matrix[0, 0].real for s in states])
        assert np.max(np.abs(pops - 0.5)) < 1e-12

    def test_maximally_mixed_is_stationary(self):
        n = 501
        t = np.linspace(0.0, 5.0, n)
        eps = np.sin(t)
        gam = 0.1 + 0.05 * np.cos(t)
        _, states = propagate_master(maximally_mixed(2), t, eps, gam)
        assert trace_distance(states[-1], maximally_mixed(2)) < 1e-12

    def test_misaligned_grids_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="misaligned"):
            propagate_master(maximally_mixed(2), t, np.zeros(11), np.zeros(10))
        bad_t = t.copy()
        bad_t[5] += 0.01
        with pytest.raises(ValueError, match="misaligned"):
            propagate_master(maximally_mixed(2), bad_t, np.zeros(11), np.zeros(11))


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
