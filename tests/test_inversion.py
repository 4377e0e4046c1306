import functools
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from hens.cli import build_series, load_config, main, make_parser
from hens.dephasing import (
    DephasingSeries,
    SpectralDensityModel,
    extended_exponents,
    dephasing_extended,
    extended_series,
    ohmic_series,
    time_grid,
)
from hens.ensemble import RESTEP, _coherence_factor
import hens.inversion
from hens.inversion import (
    TRAPEZOID_BLOCK,
    WITNESS_BLOCK,
    QuasiDistribution,
    _trapezoid,
    _gram_bounds,
    _gram_floors,
    bochner_search,
    bochner_witness,
    conjugate_frequency_grid,
    forward_ft,
    inverse_ft,
    negativity_landscape,
    roundtrip_error,
)

GRID = time_grid(200.0, 1 << 16)
DT = GRID[1] - GRID[0]
OMEGA = conjugate_frequency_grid(GRID.size, DT)


def wp_ohmic(omega, omega_c=1.0):
    a = np.abs(omega)
    return (omega_c + a) * np.exp(-a / omega_c) / (4.0 * omega_c**2)


def gaussian(omega, sigma=1.0):
    return np.exp(-0.5 * (omega / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))


def chunked_direct_sum(omega, weights, grid):
    """Reference: the trapezoid sum off the conjugate grid as one chunked matrix product."""
    domega = omega[1] - omega[0]
    tw = np.full(omega.size, domega)
    tw[0] *= 0.5
    tw[-1] *= 0.5
    values = np.empty(grid.size, dtype=complex)
    step = max(1, (1 << 22) // omega.size)
    for lo in range(0, grid.size, step):
        hi = min(lo + step, grid.size)
        values[lo:hi] = np.exp(1j * np.outer(grid[lo:hi], omega)) @ (weights * tw)
    return values / values[grid.size // 2].real


class TestForward:
    @pytest.mark.parametrize("rows, n", [(257, 64), (4001, 2048)])
    def test_direct_summation_matches_chunked_reference(self, rows, n):
        omega = np.linspace(-8.0, 8.0, rows)
        p = gaussian(omega)
        p /= np.trapezoid(p, omega)
        grid = time_grid(20.0, n)
        s = forward_ft((omega, p), grid)
        assert np.max(np.abs(s.full() - chunked_direct_sum(omega, p, grid))) < 1e-13

    def test_non_uniform_table_is_summed_directly(self):
        # a conjugate-grid table whose peak point is then moved 0.3 dw: its first
        # step, size, centre and mass still match, but the FFT would put the peak
        # back on the grid
        grid = time_grid(20.0, 256)
        omega = conjugate_frequency_grid(grid.size, grid[1] - grid[0])
        k = omega.size // 2 + 6
        p = gaussian(omega - omega[k])
        p /= np.trapezoid(p, omega)
        omega[k] += 0.3 * (omega[1] - omega[0])
        s = forward_ft((omega, p), grid)
        direct = np.array([_coherence_factor(omega, p, [t])[0] for t in grid])
        assert np.max(np.abs(s.full() - direct)) < 1e-13

    def test_direct_summation_walks_the_half(self, exp_sizes):
        # the n/2 + 1 evenly spaced times of the half: one exponential per frequency for
        # the first step, then one per restart of the walk
        omega = np.linspace(-20.0, 20.0, 4001)
        p = gaussian(omega)
        p /= np.trapezoid(p, omega)
        grid = time_grid(40.0, 4096)
        exp_sizes.clear()
        forward_ft((omega, p), grid)
        assert sum(exp_sizes) == (1 + grid.size // 2 // RESTEP) * omega.size

    def test_delta_spike_gives_pure_phase(self):
        w = np.zeros_like(OMEGA)
        k = OMEGA.size // 2 + 40
        w[k] = 1.0 / (OMEGA[1] - OMEGA[0])
        s = forward_ft((OMEGA, w), GRID)
        assert np.max(np.abs(s.full() - np.exp(1j * OMEGA[k] * GRID))) < 1e-9

    def test_ohmic_pair(self):
        s = forward_ft((OMEGA, wp_ohmic(OMEGA)), GRID)
        exact = (1.0 + GRID**2) ** -2.0
        assert np.max(np.abs(s.full() - exact)) < 1e-3

    def test_lorentzian_pair(self):
        lam = 1.0
        p = lam / np.pi / (lam**2 + OMEGA**2)
        p /= np.trapezoid(p, OMEGA)  # renormalize the truncated tails
        s = forward_ft((OMEGA, p), GRID)
        values = s.full()
        # oracle 1: direct trapezoid summation at exact grid times
        dw = OMEGA[1] - OMEGA[0]
        tw = np.full(OMEGA.size, dw)
        tw[0] = tw[-1] = 0.5 * dw
        for k in (GRID.size // 2 + 49, GRID.size // 2 + 164, GRID.size // 2 + 655):
            direct = np.sum(p * tw * np.exp(1j * OMEGA * GRID[k]))
            direct /= np.sum(p * tw)
            assert abs(values[k] - direct) < 1e-7
        # oracle 2: the known continuum transform, up to tail truncation
        i = np.abs(GRID) < 20
        assert np.max(np.abs(np.abs(values[i]) - np.exp(-lam * np.abs(GRID[i])))) < 5e-3

    def test_conjugate_grid_series_is_exactly_symmetric(self):
        p = wp_ohmic(OMEGA)
        s = forward_ft((OMEGA, p), GRID)
        n0 = GRID.size // 2
        assert np.array_equal(s.full()[n0 - 1:0:-1], np.conj(s.half[1:n0]))
        assert s.half[0] == 1.0
        # oracle: the full complex inverse FFT of the shifted weights
        full = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(p)))
        full /= full[GRID.size // 2].real
        assert np.max(np.abs(s.full() - full)) < 1e-14

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="mass"):
            forward_ft((OMEGA, 2.0 * gaussian(OMEGA)), GRID)

    def test_complex_weights_rejected(self):
        # the check must see the weights before a cast to float drops their imaginary part
        weights = gaussian(OMEGA) * (1.0 + 1e-3j)
        with pytest.raises(ValueError, match="weights must be real"):
            forward_ft((OMEGA, weights), GRID)
        with pytest.raises(ValueError, match="weights must be real"):
            roundtrip_error((OMEGA, weights))

    @pytest.mark.parametrize("case", ["one-point", "nan-weights", "inf-omega", "rows"])
    def test_malformed_pair_rejected(self, case):
        omega, weights = OMEGA.copy(), gaussian(OMEGA)
        if case == "one-point":
            omega, weights = omega[:1], weights[:1]
        elif case == "nan-weights":
            weights[3] = np.nan
        elif case == "inf-omega":
            omega[-1] = np.inf
        else:
            omega, weights = omega[None], weights[None]
        for transform in (lambda: forward_ft((omega, weights), GRID),
                          lambda: roundtrip_error((omega, weights))):
            with pytest.raises(ValueError, match="matching finite 1-d arrays"):
                transform()


class TestInverse:
    def test_ohmic_distribution_values(self):
        dist = inverse_ft(ohmic_series(1.0, GRID))
        k0 = dist.omega.size // 2
        assert dist.omega[k0] == 0.0
        assert abs(dist.values[k0] - 0.25) < 1e-6
        assert abs(dist.norm - 1.0) < 1e-6
        assert dist.min_value > -1e-4
        assert dist.negativity < 1e-6
        assert dist.realness_residual < 1e-8

    def test_extended_distribution_goes_negative(self):
        dist = inverse_ft(ohmic_series(1.0, GRID, phase=np.pi / 4))
        assert dist.min_value < -1e-3
        assert dist.negativity > 1e-3
        assert abs(dist.norm - 1.0) < 1e-6
        assert dist.realness_residual < 1e-8

    def test_frequency_grid_spacing(self):
        dist = inverse_ft(ohmic_series(1.0, GRID))
        dt = GRID[1] - GRID[0]
        assert abs(dist.domega - 2.0 * np.pi / (GRID.size * dt)) < 1e-12


    @pytest.mark.parametrize("phase", [None, np.pi / 4], ids=["conventional", "extended"])
    def test_distribution_is_the_parents_arithmetic(self, phase):
        # the grid, the spectrum and the diagnostics as whole-array numpy expressions
        series = ohmic_series(1.0, GRID, phase=phase)
        dist = inverse_ft(series)
        omega = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(series.n, d=series.dt))
        values = series.dt / (2.0 * np.pi) * np.fft.fftshift(np.fft.hfft(series.half, series.n))
        bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
        assert np.array_equal(bits(dist.omega), bits(omega))
        assert np.array_equal(bits(dist.values), bits(values))
        assert bits(dist.norm) == bits(np.trapezoid(values, omega))
        assert bits(dist.negativity) == bits(-np.trapezoid(np.minimum(values, 0.0), omega))
        assert not (dist.omega.flags.writeable or dist.values.flags.writeable)

    @pytest.mark.parametrize("k", [16, 18])
    def test_memory_per_point(self, k):
        # the two returned arrays hold 16 B a grid point; copying them into the
        # distribution and its np.trapezoid temporaries took the peak to 40 B
        series = ohmic_series(1.0, time_grid(200.0, 1 << k), phase=np.pi / 4)
        inverse_ft(series)  # one-time allocations of a first call
        tracemalloc.start()
        try:
            inverse_ft(series)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * (1 << k)

    def test_arrays_are_freed_without_the_collector(self):
        # nothing in inverse_ft may keep its arrays in a reference cycle: they would
        # outlive the distribution until the next collection, as a recursive closure
        # over them did
        series = ohmic_series(1.0, GRID)
        gc.disable()
        try:
            dist = inverse_ft(series)
            refs = [weakref.ref(dist.omega), weakref.ref(dist.values)]
            del dist
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_from_samples_copies_its_inputs(self):
        omega, values = np.linspace(-1.0, 1.0, 5), np.array([0.0, 0.5, 1.0, 0.5, 0.0])
        dist = QuasiDistribution.from_samples(omega, values)
        omega[2] = values[2] = 7.0
        assert dist.omega[2] == 0.0 and dist.values[2] == 1.0
        assert omega.flags.writeable and values.flags.writeable
        again = QuasiDistribution.from_samples(list(dist.omega), list(dist.values))
        assert np.array_equal(again.values, dist.values) and again.norm == dist.norm
        with pytest.raises(ValueError, match="matching 1-d"):
            QuasiDistribution.from_samples(omega, values[:4])


@pytest.mark.parametrize("size", [2, 3, 9, 129, TRAPEZOID_BLOCK, TRAPEZOID_BLOCK + 1,
                                  TRAPEZOID_BLOCK + 2, 3 * TRAPEZOID_BLOCK + 17, (1 << 16) + 1])
def test_trapezoid_is_numpys_bit_for_bit(size):
    # signed values of many magnitudes on an uneven grid, so that the order of the sum
    # shows in its last bits
    rng = np.random.default_rng(size)
    x = np.cumsum(rng.uniform(0.5, 1.5, size))
    y = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    for got, want in ((_trapezoid(y, x), np.trapezoid(y, x)),
                      (_trapezoid(y, x, negative_part=True),
                       np.trapezoid(np.minimum(y, 0.0), x))):
        assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def oracle_spectrum(values, dt):
    """Reference: the full complex FFT of the ifftshifted series."""
    return dt / (2.0 * np.pi) * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(values)))


def test_series_spectrum_matches_the_full_fft():
    # a table split by DephasingSeries.from_samples: the spectrum of the Hermitian part
    # it keeps, and the realness residual it stores for the anti-Hermitian part
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(k=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
                      part=st.sampled_from(["none", "edge", "interior"]),
                      scale=st.sampled_from([1e-12, 1e-3, 1.0]), dt=st.floats(1e-3, 1e3))
    def check(k, seed, part, scale, dt):
        n = 1 << k
        rng = np.random.default_rng(seed)
        z, w = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        # in FFT order, conj of the entry at index -j; the parts are then put in time order
        z_mirror, w_mirror = np.conj(np.roll(z[::-1], 1)), np.conj(np.roll(w[::-1], 1))
        values = np.fft.fftshift(0.5 * (z + z_mirror))  # exactly Hermitian
        values /= np.max(np.abs(values))  # within unit modulus, and phi(0) = 1
        values[n // 2] = 1.0
        if part == "edge":  # as for a package series: only phi(-t_max) breaks the symmetry
            values[0] = 0.5 * (values[0].real + 1j * scale)  # still within the unit disc
        elif part == "interior":  # as large as the symmetry tolerance of 1e-12 lets through
            a = np.fft.fftshift(0.5 * (w - w_mirror))
            values += 4e-13 * a / np.max(np.abs(a))
        series = DephasingSeries.from_samples((np.arange(n) - n // 2) * dt, values)
        spectrum, residual = inverse_ft(series).values, series.realness_residual
        oracle = oracle_spectrum(values, dt)
        tol = 1e-13 * np.sum(np.abs(values)) * dt / (2.0 * np.pi)
        assert np.max(np.abs(spectrum - oracle.real)) <= tol
        assert abs(residual - np.max(np.abs(oracle.imag))) <= tol
        if part == "none":
            assert residual == 0.0

    check()


@pytest.mark.parametrize("series", [
    pytest.param(lambda: ohmic_series(1.0, GRID), id="ohmic"),
    pytest.param(lambda: ohmic_series(1.0, GRID, phase=np.pi / 4), id="ohmic-extended"),
    pytest.param(lambda: dephasing_extended(SpectralDensityModel.ohmic(1.0), 0.0,
                                            time_grid(50.0, 1 << 12)), id="quadrature-extended")])
def test_residual_is_the_edge_truncation_term(series):
    s = series()
    edge = s.dt / (2.0 * np.pi) * abs(s.half[-1].imag)
    assert inverse_ft(s).realness_residual == pytest.approx(edge, rel=1e-14, abs=0.0)


def test_spectra_take_one_half_length_transform(monkeypatch, ohmic_pair):
    grid = time_grid(20.0, 1 << 10)
    exponent, drift = ohmic_pair(grid)
    dt = grid[1] - grid[0]
    phases = [0.0, 0.3, np.pi / 4]
    series = extended_series(dt, exponent, drift, 0.3)
    omega = conjugate_frequency_grid(grid.size, dt)
    calls = {"evaluated": [], "full": 0}
    evaluate, fft, ifft = hens.inversion._extended_values, np.fft.fft, np.fft.ifft

    def recording(e, *args):
        calls["evaluated"].append(np.asarray(e).size)
        return evaluate(e, *args)

    def full(transform):
        def recorded(*args, **kwargs):
            calls["full"] += 1
            return transform(*args, **kwargs)
        return recorded

    monkeypatch.setattr(hens.inversion, "_extended_values", recording)
    monkeypatch.setattr(np.fft, "fft", full(fft))
    monkeypatch.setattr(np.fft, "ifft", full(ifft))
    negativity_landscape(exponent, drift, phases, (-10.0, 10.0), dt)
    assert calls["evaluated"] == [grid.size // 2 + 1] * len(phases)
    inverse_ft(series)
    forward_ft((omega, wp_ohmic(omega)), grid)
    assert calls["full"] == 0


class TestRoundtrip:
    def test_gaussian(self):
        assert roundtrip_error((OMEGA, gaussian(OMEGA))) < 1e-6

    def test_ohmic(self):
        assert roundtrip_error((OMEGA, wp_ohmic(OMEGA))) < 1e-4

    def test_narrow_spike_bounded_by_resolution(self):
        w = np.zeros_like(OMEGA)
        w[OMEGA.size // 2 + 7] = 1.0 / (OMEGA[1] - OMEGA[0])
        assert roundtrip_error((OMEGA, w)) < 1.0 / (OMEGA[1] - OMEGA[0])

    def test_plancherel(self):
        p = gaussian(OMEGA)
        s = forward_ft((OMEGA, p), GRID)
        lhs = np.trapezoid(p**2, OMEGA)
        rhs = np.trapezoid(np.abs(s.full()) ** 2, GRID) / (2.0 * np.pi)
        assert abs(lhs - rhs) < 1e-4

    def test_shift_covariance(self):
        base = ohmic_series(1.0, GRID)
        dist0 = inverse_ft(base)
        m = 25
        omega0 = m * dist0.domega
        shifted = DephasingSeries.from_samples(GRID, np.exp(1j * omega0 * GRID) * base.full())
        dist1 = inverse_ft(shifted)
        assert np.max(np.abs(dist1.values - np.roll(dist0.values, m))) < 1e-8


class TestBochner:
    def test_two_point_eigenvalues(self):
        s = ohmic_series(1.0, GRID)
        k = 205
        rep = bochner_witness(s, [0.0, GRID[GRID.size // 2 + k]])
        expected_min = 1.0 - abs(s.half[k])
        assert abs(rep.min_eigenvalue - expected_min) < 1e-12
        assert rep.matrix_dim == 2
        # 1.25 = 204.8 dt lies between grid points, where the series has no sample
        with pytest.raises(ValueError, match="off the series grid"):
            bochner_witness(s, [0.0, 1.25])

    def test_conventional_stays_positive(self):
        s = ohmic_series(1.0, GRID)
        rng = np.random.default_rng(100)
        worst = np.inf
        for _ in range(100):
            size = int(rng.integers(2, 9))
            times = GRID[GRID.size // 2 + rng.integers(0, int(50.0 / s.dt) + 1, size)]
            worst = min(worst, bochner_witness(s, times).min_eigenvalue)
        assert worst >= -1e-10

    def test_extended_search_finds_violation(self):
        s = ohmic_series(1.0, GRID, phase=np.pi / 2)
        report, used = bochner_search(s, restarts=10000, seed=1234, stop_below=-1e-3)
        assert report.min_eigenvalue < -1e-3
        assert used <= 10000

    def test_search_is_reproducible(self):
        s = ohmic_series(1.0, GRID, phase=np.pi / 2)
        a, _ = bochner_search(s, restarts=300, seed=9)
        b, _ = bochner_search(s, restarts=300, seed=9)
        assert a.min_eigenvalue == b.min_eigenvalue
        assert np.array_equal(a.times, b.times)

    # a NaN stop_below is below no floor: the search would never stop
    @pytest.mark.parametrize("bad, match", [({"restarts": 0}, "at least"),
                                            ({"max_size": 1}, "at least"),
                                            ({"stop_below": float("nan")}, "NaN")],
                             ids=["restarts-0", "max-size-1", "stop-below-nan"])
    def test_search_bounds_rejected(self, bad, match):
        s = ohmic_series(1.0, time_grid(10.0, 1 << 8))
        with pytest.raises(ValueError, match=match):
            bochner_search(s, **{"restarts": 10, "seed": 0, **bad})

    @pytest.mark.parametrize("stop_below", [-np.inf, np.inf], ids=["-inf", "+inf"])
    def test_infinite_stop_below_keeps_its_meaning(self, stop_below):
        # -inf is below every floor, so the search runs out; +inf is above every
        # floor, so the first restart stops it
        s = extended_ohmic()
        got = bochner_search(s, 300, 3, stop_below=stop_below)
        assert_same_search(got, list(loop_search(s, 300, 3, 8, stop_below))[-1])
        assert got[1] == (300 if stop_below < 0 else 1)

    @pytest.mark.parametrize("phase", [None, np.pi / 2], ids=["conventional", "extended"])
    def test_times_straddling_zero_match_the_closed_form(self, phase):
        # negative times and lags: a lag d < 0 reads conj(phi(|d|)) from the half, and the
        # oracle evaluates the closed form of ``ohmic_series`` at every lag t_j - t_l itself
        s = ohmic_series(1.0, GRID, phase=phase)
        rng = np.random.default_rng(31)
        for _ in range(20):
            times = GRID[GRID.size // 2 + rng.integers(-int(20.0 / DT), int(20.0 / DT), 6)]
            lag = times[:, None] - times[None, :]
            m = (1.0 + lag**2) ** -2.0 + 0j
            if phase is not None:
                m = (np.exp(-4j * np.cos(phase) * (lag - np.arctan(lag)))
                     * (1.0 + lag**2) ** (-2.0 * (1.0 + 1j * np.sign(lag) * np.sin(phase))))
            want = np.linalg.eigvalsh(m)[0]
            assert times.min() < 0.0 < times.max()
            assert abs(bochner_witness(s, times).min_eigenvalue - want) < 1e-12

    def test_out_of_range_times_rejected(self):
        s = ohmic_series(1.0, time_grid(10.0, 1 << 8))
        with pytest.raises(ValueError, match="outside"):
            bochner_witness(s, [0.0, 11.0])


@functools.cache
def extended_ohmic():
    return ohmic_series(1.0, GRID, phase=np.pi / 2)


def loop_restarts(series, restarts, seed, max_size):
    """Reference: one ``bochner_witness`` report per restart, on the distinct times of
    its draw in the order of their first draws."""
    k_hi = int(0.25 * (series.n // 2))  # the grid points j dt in [0, t_max / 4]
    size_rng, index_rng = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(2))
    for _ in range(restarts):
        size = int(size_rng.integers(2, max_size + 1))
        drawn = index_rng.integers(0, k_hi + 1, size)
        yield bochner_witness(series, np.array(list(dict.fromkeys(drawn.tolist()))) * series.dt)


def loop_search(series, restarts, seed, max_size, stop_below):
    """Reference: the per-restart search over ``loop_restarts``.

    Yields (best report, restarts used) after each restart it runs, so a search
    of R restarts returns the R-th pair, or the last one if the loop stopped
    before R.
    """
    best = None
    for used, rep in enumerate(loop_restarts(series, restarts, seed, max_size), 1):
        if best is None or rep.min_eigenvalue < best.min_eigenvalue:
            best = rep
        yield best, used
        if stop_below is not None and best.min_eigenvalue < stop_below:
            break


def assert_same_search(got, want):
    (a, used_a), (b, used_b) = got, want
    assert used_a == used_b
    assert np.array_equal(a.times, b.times)
    assert np.float64(a.min_eigenvalue).tobytes() == np.float64(b.min_eigenvalue).tobytes()
    assert a.matrix_dim == b.matrix_dim


class TestStackedSearch:
    # a block less one, a block, one more, and a partial fourth block
    RESTARTS = [1, WITNESS_BLOCK - 1, WITNESS_BLOCK, WITNESS_BLOCK + 1, 3 * WITNESS_BLOCK + 7]

    # -1.0 lies below every floor the search meets, so it never stops
    @pytest.mark.parametrize("stop_below", [None, -1e-3, 0.5, -1.0],
                             ids=["no-stop", "stop-1e-3", "stop+0.5", "never-reached"])
    @pytest.mark.parametrize("max_size", [2, 3, 8, 17])
    def test_matches_per_restart_loop(self, max_size, stop_below):
        series = extended_ohmic()
        seed = 40 + max_size
        ref = list(loop_search(series, max(self.RESTARTS), seed, max_size, stop_below))
        for restarts in self.RESTARTS:
            got = bochner_search(series, restarts, seed, max_size=max_size,
                                 stop_below=stop_below)
            assert_same_search(got, ref[min(restarts, len(ref)) - 1])
        if stop_below == -1.0:
            assert len(ref) == max(self.RESTARTS)

    def test_acceptance_seeds_keep_their_restart_counts(self):
        # criterion 5 (seed 1234) and demo 02 (seed 7)
        series = extended_ohmic()
        for seed, used in ((1234, 361), (7, 126)):
            report, got = bochner_search(series, 10000, seed, stop_below=-1e-3)
            assert got == used
            assert report.min_eigenvalue < -1e-3

    @pytest.mark.parametrize("stop_below", [None, -1e-3], ids=["no-stop", "stop-1e-3"])
    def test_draws_do_not_depend_on_the_block(self, monkeypatch, stop_below):
        series = extended_ohmic()
        want = bochner_search(series, 1000, 5, stop_below=stop_below)
        for block in (1, 7, 256, 10000):
            monkeypatch.setattr(hens.inversion, "WITNESS_BLOCK", block)
            assert_same_search(bochner_search(series, 1000, 5, stop_below=stop_below), want)

    def test_reported_sets_hold_each_time_once(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # nine grid points in the search window: most sets of four or more draw a
        # time twice, and every set of ten or more does
        series = ohmic_series(1.0, time_grid(10.0, 64))

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(seed=st.integers(0, 2**32 - 1), max_size=st.integers(2, 12),
                          restarts=st.integers(1, 40))
        def check(seed, max_size, restarts):
            got = bochner_search(series, restarts, seed, max_size=max_size)
            report = got[0]
            assert np.unique(report.times).size == report.times.size == report.matrix_dim
            assert_same_search(got, list(loop_search(series, restarts, seed, max_size, None))[-1])

        check()

    def test_cli_writes_the_per_restart_result(self, tmp_path):
        args = ["witness", "--mode", "extended", "--phase", str(np.pi / 2),
                "--witness-restarts", "3000"]
        assert main([*args, "--output-dir", str(tmp_path)]) == 0
        rep = json.loads((tmp_path / "bochner.json").read_text())
        cfg = load_config(make_parser().parse_args(args))
        grid, series = build_series(cfg)
        want, used = list(loop_search(series, 3000, cfg["seed"], 8, None))[-1]
        assert rep["restarts_used"] == used == 3000
        assert rep["times"] == list(grid[series.n // 2 + np.rint(want.times / series.dt).astype(int)])
        assert rep["min_eigenvalue"] == want.min_eigenvalue
        assert rep["matrix_dim"] == want.matrix_dim


def eigensolved(monkeypatch):
    """The number of matrices ``np.linalg.eigvalsh`` receives while this patch holds."""
    count = [0]
    eigvalsh = np.linalg.eigvalsh

    def counting(m):
        count[0] += int(np.prod(np.shape(m)[:-2]))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return count


class TestScreenedSearch:
    """Only restarts whose Gershgorin bound reaches the cap are eigensolved, and the
    result is that of the per-restart loop, bit for bit."""

    @pytest.mark.parametrize("stop_below", [None, -1e-3, 0.0], ids=["no-stop", "stop-1e-3",
                                                                   "stop-0"])
    def test_conventional_floors_near_zero(self, stop_below):
        # a positive definite factor: every floor is 0 up to rounding, so the cap,
        # the rounding margin and the stop threshold all sit in the same few ulps
        series = ohmic_series(1.0, GRID)
        for seed in (2, 12345):
            want = list(loop_search(series, 600, seed, 8, stop_below))[-1]
            assert_same_search(bochner_search(series, 600, seed, stop_below=stop_below), want)

    @pytest.mark.parametrize("phase", [None, np.pi / 2], ids=["conventional", "extended"])
    def test_slowly_decaying_series(self, monkeypatch, phase):
        # at w_c = 0.05 the factor hardly decays over the search window, so the
        # Gershgorin discs are wide and few restarts are skipped
        series = ohmic_series(0.05, GRID, phase=phase)
        want = list(loop_search(series, 600, 99, 8, None))[-1]
        count = eigensolved(monkeypatch)
        assert_same_search(bochner_search(series, 600, 99), want)
        assert count[0] >= 300

    @pytest.mark.parametrize("max_size", [2, 3])
    @pytest.mark.parametrize("stop_below", [None, 0.5], ids=["no-stop", "stop+0.5"])
    def test_tied_floors(self, max_size, stop_below):
        # nine grid points in the window: sets of two or three times share their lags,
        # so many restarts tie at the smallest floor, and the first of them is reported
        series = ohmic_series(1.0, time_grid(10.0, 64), phase=np.pi / 2)
        for seed in range(4):
            got = bochner_search(series, 400, seed, max_size=max_size, stop_below=stop_below)
            assert_same_search(got, list(loop_search(series, 400, seed, max_size,
                                                     stop_below))[-1])
            floors = [r.min_eigenvalue for r in loop_restarts(series, 400, seed, max_size)]
            assert floors.count(min(floors)) > 1

    def test_floors_apart_by_ulps(self):
        # moduli 0.5 + k ulp, k in -3..3, at random phases: sets of two times have
        # floors and bounds a few ulps apart, where eigvalsh's rounding decides the
        # order; without the rounding margin the search reports the wrong restart
        rng = np.random.default_rng(0)
        j = np.arange(33)
        for _ in range(40):
            half = ((0.5 + rng.integers(-3, 4, j.size) * np.spacing(0.5))
                    * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, j.size)))
            half[0] = 1.0
            series = DephasingSeries(0.1, half)
            for max_size in (2, 3):
                seed = int(rng.integers(1 << 30))
                want = list(loop_search(series, 200, seed, max_size, None))[-1]
                assert_same_search(bochner_search(series, 200, seed, max_size=max_size), want)

    @pytest.mark.parametrize("phase, omega_c", [(None, 1.0), (np.pi / 2, 1.0), (0.3, 1.0),
                                                (np.pi / 2, 0.05)])
    def test_bounds_hold_the_floor(self, phase, omega_c):
        # L_r <= floor <= U_r, up to the rounding the search's margin covers
        series = ohmic_series(omega_c, GRID, phase=phase)
        k_hi = series.n // 8
        moduli = np.zeros(k_hi + 2)
        moduli[1:-1] = np.abs(series.half[1:k_hi + 1])
        a = series.half[0].real
        rng = np.random.default_rng(8)
        for width in (2, 3, 8, 17):
            sizes = rng.integers(2, width + 1, 200)
            sets = [rng.choice(k_hi + 1, size, replace=False) for size in sizes]
            radius, largest = _gram_bounds(moduli, np.concatenate(sets), sizes)
            floors = np.array([_gram_floors(series.half, k[None])[0] for k in sets])
            slack = 16.0 * width**3 * np.finfo(float).eps
            assert np.all(a - radius <= floors + slack)
            assert np.all(floors <= a - largest + slack)
            # and each bound is the matrix's own: a Gershgorin row sum and a largest entry
            for k, r, m in zip(sets[:20], radius, largest):
                g = np.abs(series.half[np.abs(k[:, None] - k[None, :])])
                np.fill_diagonal(g, 0.0)
                assert r == pytest.approx(g.sum(axis=1).max(), rel=1e-14)
                assert m == g.max()

    def test_defaults_eigensolve_a_tenth_of_the_matrices(self, monkeypatch, tmp_path):
        # the CLI defaults (extended, phase pi/2, seed 12345): 452 of the 10000 restarts
        # reach the eigensolver
        args = ["witness", "--mode", "extended", "--phase", str(np.pi / 2)]
        cfg = load_config(make_parser().parse_args(args))
        _, series = build_series(cfg)
        count = eigensolved(monkeypatch)
        assert main([*args, "--output-dir", str(tmp_path)]) == 0
        restarts = json.loads((tmp_path / "bochner.json").read_text())["restarts_used"]
        assert restarts == cfg["witness.restarts"] == 10000
        assert count[0] <= 0.1 * restarts


def symbol_floor(series, step, m_max, points=1 << 16):
    """Lower bound on the floor of every Gram matrix of a uniform set {0, D, ..., (s-1) D},
    s <= m_max + 1, D = step grid steps, without an eigensolver (Grenander-Szego).

    With c_m the Hermitian part of phi(m D), such a matrix is a section of the
    Toeplitz matrix of the symbol f(theta) = sum_{|m| <= m_max} c_m e^{-i m theta},
    so its eigenvalues are >= min f.  f is sampled on ``points`` angles by one FFT;
    |f'| <= sum 2 m |c_m| bounds how far it dips between them.
    """
    n0, values = series.n // 2, series.full()
    m = np.arange(m_max + 1)
    c = 0.5 * (values[n0 + m * step] + np.conj(values[n0 - m * step]))
    coef = np.zeros(points, dtype=complex)
    coef[0] = c[0].real
    coef[1:m_max + 1] = 2.0 * c[1:]
    f = np.fft.fft(coef).real  # c_0 + 2 Re sum_{m >= 1} c_m e^{-i m theta}
    return float(f.min()) - np.sum(2.0 * m * np.abs(c)) * np.pi / points


class TestGramFloorOracle:
    @pytest.mark.parametrize("phase", [None, np.pi / 2], ids=["conventional", "extended"])
    @pytest.mark.parametrize("step", [1, 8, 30, 200])
    def test_uniform_sets_stay_above_the_symbol_minimum(self, phase, step):
        series = ohmic_series(1.0, GRID) if phase is None else extended_ohmic()
        for size in (2, 3, 8, 17, 64):
            # a stack of shifted copies of one uniform set: one Toeplitz matrix
            k = np.arange(4)[:, None] + step * np.arange(size)
            floors = _gram_floors(series.half, k)
            assert np.all(floors == floors[0])
            assert floors[0] >= symbol_floor(series, step, size - 1) - 1e-12

    def test_bound_is_attained_as_the_set_grows(self):
        # at D = 30 dt the extended symbol dips to about -0.24; 64 points come within 0.01
        series = extended_ohmic()
        floor = _gram_floors(series.half, 30 * np.arange(64)[None])[0]
        bound = symbol_floor(series, 30, 63)
        assert bound < -0.2
        assert bound <= floor < bound + 0.01
        # at D = 200 dt the conventional symbol is positive: the floor is certified positive
        conv = ohmic_series(1.0, GRID)
        assert symbol_floor(conv, 200, 63) > 0.7


def series_columns(dt, exponent, drift, phases, window):
    """Reference landscape: invert each phase's full ``extended_series``."""
    omega = conjugate_frequency_grid(2 * (np.size(exponent) - 1), dt)
    mask = (omega >= window[0]) & (omega <= window[1])
    return np.column_stack([
        np.minimum(inverse_ft(extended_series(dt, exponent, drift, p)).values[mask], 0.0)
        for p in phases])


def tabulated_pair(grid):
    """(exponent, drift) of a 201-knot tabulated Ohmic bath at T = 0."""
    om = np.linspace(0.0, 20.0, 201)
    return extended_exponents(SpectralDensityModel.tabulated(om, om * np.exp(-om)), grid)


# 0, pi/2, pi and 3 pi/2 among them
LANDSCAPE_PHASES = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
                                   [0.3, 2.5, -1.0, 9.0]])
# column -> the column whose phase is pi less, whose spectrum it mirrors
MIRRORED = {4: 0, 5: 1, 6: 2, 7: 3}


def corrupted(case, dt, exponent, drift):
    """A copy of a legal half layout (dt, exponent, drift) with one rule broken.  The
    layout holds t >= 0 and the edge only, so the exponent is even and the drift odd
    by construction."""
    exponent, drift, k = exponent.copy(), drift.copy(), 5
    if case in ("nan-exponent", "inf-exponent", "nan-drift", "inf-drift"):
        target = exponent if case.endswith("exponent") else drift
        target[k] = np.nan if case.startswith("nan") else np.inf
    elif case == "negative-exponent":
        exponent[k] = -0.1
    elif case == "exponent-at-zero":
        exponent += 1e-6  # still nonnegative
    elif case == "huge-pair":  # theta overflows at phase pi/4
        exponent[k] = drift[k] = 1.5e308
    elif case == "short-exponent":
        exponent = exponent[1:]
    elif case == "bad-step":
        dt = -dt
    return dt, exponent, drift


class TestLandscape:
    @pytest.mark.parametrize("pair", ["ohmic", "tabulated"])
    def test_columns_equal_series_inversions(self, ohmic_pair, pair):
        if pair == "ohmic":
            grid = GRID
            exponent, drift = ohmic_pair(grid)
        else:
            grid = time_grid(50.0, 1 << 12)
            exponent, drift = tabulated_pair(grid)
        window = (-10.0, 10.0)
        dt = grid[1] - grid[0]
        _, _, cells = negativity_landscape(exponent, drift, LANDSCAPE_PHASES, window, dt)
        want = series_columns(dt, exponent, drift, LANDSCAPE_PHASES, window)
        direct = [j for j in range(LANDSCAPE_PHASES.size) if j not in MIRRORED]
        assert np.array_equal(cells[:, direct], want[:, direct])
        # phase p + pi reads p's spectrum at -omega, index (n - k) mod n
        omega = conjugate_frequency_grid(grid.size, dt)
        at = (grid.size - np.flatnonzero((omega >= window[0]) & (omega <= window[1]))) % grid.size
        for q, p in MIRRORED.items():
            partner = inverse_ft(extended_series(dt, exponent, drift, LANDSCAPE_PHASES[p]))
            assert np.array_equal(cells[:, q], np.minimum(partner.values[at], 0.0))
            assert np.max(np.abs(cells[:, q] - want[:, q])) <= 1e-15

    def test_mirrored_phases_are_not_evaluated(self, monkeypatch, ohmic_pair):
        grid = time_grid(20.0, 1 << 10)
        pair = ohmic_pair(grid)
        evaluate, calls = hens.inversion._extended_values, []

        def recording(*args):
            calls.append(args[-1])  # the phase
            return evaluate(*args)

        monkeypatch.setattr(hens.inversion, "_extended_values", recording)
        for phases, evaluated in (
                (np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False), 32),
                (LANDSCAPE_PHASES, 8),
                (np.linspace(0.0, 2.0 * np.pi, 63, endpoint=False), 63)):
            calls.clear()
            negativity_landscape(*pair, phases, (-10.0, 10.0), grid[1] - grid[0])
            assert len(calls) == evaluated

    def test_mirrored_column_matches_the_closed_form(self):
        # the window is asymmetric, so pi/4's column at -omega lies outside it
        window = (-3.0, 7.0)
        exponent, drift = extended_exponents(SpectralDensityModel.ohmic(1.0), GRID)
        _, _, cells = negativity_landscape(exponent, drift, [np.pi / 4, 5 * np.pi / 4],
                                           window, DT)
        dist = inverse_ft(ohmic_series(1.0, GRID, phase=5 * np.pi / 4))
        expected = np.minimum(dist.values[(dist.omega >= -3.0) & (dist.omega <= 7.0)], 0.0)
        assert np.min(expected) < -1e-3
        assert np.max(np.abs(cells[:, 1] - expected)) <= 1e-9

    @pytest.mark.parametrize("case, match", [
        ("nan-exponent", "finite"), ("inf-exponent", "finite"), ("nan-drift", "finite"),
        ("inf-drift", "finite"), ("nan-phase", "phases must be finite"),
        ("negative-exponent", "nonnegative"), ("exponent-at-zero", "vanish at t = 0"),
        ("huge-pair", "finite"), ("short-exponent", "match the time grid"),
        ("bad-step", "time step")])
    def test_inputs_the_series_rejects_are_rejected(self, ohmic_pair, case, match):
        grid = time_grid(10.0, 256)
        dt, exponent, drift = corrupted(case, grid[1] - grid[0], *ohmic_pair(grid))
        phases = [0.0, np.nan] if case == "nan-phase" else [0.0, np.pi / 4]
        # an infinite theta warns before the series rejects the NaN it gives
        with pytest.raises(ValueError), np.errstate(invalid="ignore", over="ignore"):
            series_columns(dt, exponent, drift, phases, (-10.0, 10.0))
        with pytest.raises(ValueError, match=match):
            negativity_landscape(exponent, drift, phases, (-10.0, 10.0), dt)

    def test_columns_match_individual_inversions(self, ohmic_pair):
        phases = np.array([0.1, np.pi / 4, 2.5])
        omega, got_phases, cells = negativity_landscape(*ohmic_pair(GRID), phases,
                                                        (-10.0, 10.0), DT)
        assert cells.shape == (omega.size, 3)
        dist = inverse_ft(ohmic_series(1.0, GRID, phase=np.pi / 4))
        mask = (dist.omega >= -10.0) & (dist.omega <= 10.0)
        expected = np.minimum(dist.values[mask], 0.0)
        assert np.max(np.abs(cells[:, 1] - expected)) < 1e-14

    def test_empty_window_rejected(self, ohmic_pair):
        # GRID's frequencies end near |omega| = 514
        with pytest.raises(ValueError, match="holds no frequency of the grid"):
            negativity_landscape(*ohmic_pair(GRID), [0.0], (1000.0, 2000.0), DT)

    def test_no_phases_rejected(self, ohmic_pair):
        with pytest.raises(ValueError, match="phases must be a nonempty"):
            negativity_landscape(*ohmic_pair(GRID), [], (-10.0, 10.0), DT)

    def test_two_pi_periodic(self, ohmic_pair):
        phases = np.array([np.pi / 4, np.pi / 4 + 2.0 * np.pi])
        _, _, cells = negativity_landscape(*ohmic_pair(GRID), phases, (-10.0, 10.0), DT)
        assert np.max(np.abs(cells[:, 0] - cells[:, 1])) < 1e-10

    def test_cells_nonpositive_and_zero_only_when_positive(self, ohmic_pair):
        phases = np.array([0.0, np.pi / 4])
        _, _, cells = negativity_landscape(*ohmic_pair(GRID), phases, (-10.0, 10.0), DT)
        assert np.max(cells) <= 0.0
        # phase pi/4 has genuine negativity, so its column cannot vanish
        assert np.min(cells[:, 1]) < -1e-3
        # whenever a column is all zero the full distribution must be nonnegative
        for j, phase in enumerate(phases):
            if np.all(cells[:, j] == 0.0):
                dist = inverse_ft(ohmic_series(1.0, GRID, phase=phase))
                assert dist.min_value >= 0.0
