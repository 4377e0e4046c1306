import numpy as np
import pytest

from hens.dephasing import DephasingSeries, ohmic_series, time_grid
from hens.inversion import (
    SeriesSymmetryError,
    bochner_search,
    bochner_witness,
    conjugate_frequency_grid,
    forward_ft,
    inverse_ft,
    negativity_landscape,
    roundtrip_error,
)

GRID = time_grid(200.0, 1 << 16)
OMEGA = conjugate_frequency_grid(GRID)


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
        assert np.max(np.abs(s.values - chunked_direct_sum(omega, p, grid))) < 1e-13

    def test_delta_spike_gives_pure_phase(self):
        w = np.zeros_like(OMEGA)
        k = OMEGA.size // 2 + 40
        w[k] = 1.0 / (OMEGA[1] - OMEGA[0])
        s = forward_ft((OMEGA, w), GRID)
        assert np.max(np.abs(s.values - np.exp(1j * OMEGA[k] * GRID))) < 1e-9

    def test_ohmic_pair(self):
        s = forward_ft((OMEGA, wp_ohmic(OMEGA)), GRID)
        exact = (1.0 + GRID**2) ** -2.0
        assert np.max(np.abs(s.values - exact)) < 1e-3

    def test_lorentzian_pair(self):
        lam = 1.0
        p = lam / np.pi / (lam**2 + OMEGA**2)
        p /= np.trapezoid(p, OMEGA)  # renormalize the truncated tails
        s = forward_ft((OMEGA, p), GRID)
        # oracle 1: direct trapezoid summation at exact grid times
        dw = OMEGA[1] - OMEGA[0]
        tw = np.full(OMEGA.size, dw)
        tw[0] = tw[-1] = 0.5 * dw
        for k in (GRID.size // 2 + 49, GRID.size // 2 + 164, GRID.size // 2 + 655):
            direct = np.sum(p * tw * np.exp(1j * OMEGA * GRID[k]))
            direct /= np.sum(p * tw)
            assert abs(s.values[k] - direct) < 1e-7
        # oracle 2: the known continuum transform, up to tail truncation
        i = np.abs(GRID) < 20
        assert np.max(np.abs(np.abs(s.values[i]) - np.exp(-lam * np.abs(GRID[i])))) < 5e-3

    def test_mass_validation(self):
        with pytest.raises(ValueError, match="mass"):
            forward_ft((OMEGA, 2.0 * gaussian(OMEGA)), GRID)


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

    def test_symmetry_violation_rejected(self):
        s = ohmic_series(1.0, time_grid(50.0, 1 << 10))
        broken = s.values.copy()
        broken[3] += 1e-5
        object.__setattr__(s, "values", broken)  # bypass the constructor on purpose
        with pytest.raises(SeriesSymmetryError):
            inverse_ft(s)

    def test_frequency_grid_spacing(self):
        dist = inverse_ft(ohmic_series(1.0, GRID))
        dt = GRID[1] - GRID[0]
        assert abs(dist.domega - 2.0 * np.pi / (GRID.size * dt)) < 1e-12


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
        rhs = np.trapezoid(np.abs(s.values) ** 2, GRID) / (2.0 * np.pi)
        assert abs(lhs - rhs) < 1e-4

    def test_shift_covariance(self):
        base = ohmic_series(1.0, GRID)
        dist0 = inverse_ft(base)
        m = 25
        omega0 = m * dist0.domega
        shifted = DephasingSeries(GRID, np.exp(1j * omega0 * GRID) * base.values,
                                  omega0=omega0)
        dist1 = inverse_ft(shifted)
        assert np.max(np.abs(dist1.values - np.roll(dist0.values, m))) < 1e-8


class TestBochner:
    def test_two_point_eigenvalues(self):
        s = ohmic_series(1.0, GRID)
        k = 205
        rep = bochner_witness(s, [0.0, GRID[GRID.size // 2 + k]])
        expected_min = 1.0 - abs(s.values[GRID.size // 2 + k])
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

    @pytest.mark.parametrize("bad", [{"restarts": 0}, {"max_size": 1}],
                             ids=["restarts-0", "max-size-1"])
    def test_search_bounds_rejected(self, bad):
        s = ohmic_series(1.0, time_grid(10.0, 1 << 8))
        with pytest.raises(ValueError, match="at least"):
            bochner_search(s, **{"restarts": 10, "seed": 0, **bad})

    def test_out_of_range_times_rejected(self):
        s = ohmic_series(1.0, time_grid(10.0, 1 << 8))
        with pytest.raises(ValueError, match="outside"):
            bochner_witness(s, [0.0, 11.0])


class TestLandscape:
    def test_columns_match_individual_inversions(self):
        phases = np.array([0.1, np.pi / 4, 2.5])
        omega, got_phases, cells = negativity_landscape(1.0, phases, (-10.0, 10.0), GRID)
        assert cells.shape == (omega.size, 3)
        dist = inverse_ft(ohmic_series(1.0, GRID, phase=np.pi / 4))
        mask = (dist.omega >= -10.0) & (dist.omega <= 10.0)
        expected = np.minimum(dist.values[mask], 0.0)
        assert np.max(np.abs(cells[:, 1] - expected)) < 1e-14

    def test_two_pi_periodic(self):
        phases = np.array([np.pi / 4, np.pi / 4 + 2.0 * np.pi])
        _, _, cells = negativity_landscape(1.0, phases, (-10.0, 10.0), GRID)
        assert np.max(np.abs(cells[:, 0] - cells[:, 1])) < 1e-10

    def test_cells_nonpositive_and_zero_only_when_positive(self):
        phases = np.array([0.0, np.pi / 4])
        _, _, cells = negativity_landscape(1.0, phases, (-10.0, 10.0), GRID)
        assert np.max(cells) <= 0.0
        # phase pi/4 has genuine negativity, so its column cannot vanish
        assert np.min(cells[:, 1]) < -1e-3
        # whenever a column is all zero the full distribution must be nonnegative
        for j, phase in enumerate(phases):
            if np.all(cells[:, j] == 0.0):
                dist = inverse_ft(ohmic_series(1.0, GRID, phase=phase))
                assert dist.min_value >= 0.0
