"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import time

import numpy as np

from hens.cli import main as cli_main
from hens.dephasing import SpectralDensityModel, decoherence_exponent, master_coeffs, \
    ohmic_series, propagate_master, time_grid
from hens.ensemble import HamiltonianEnsemble, SpectralEnsemble, dilate, he_average, \
    joint_evolve_reduce, mc_coherence, sample_frequencies
from hens.inversion import bochner_search, bochner_witness, conjugate_frequency_grid, \
    inverse_ft, negativity_landscape, roundtrip_error
from hens.qdyn import HermitianOperator, PAULI_X, pure_state, trace_distance

PLUS = pure_state([1.0, 1.0])


def check(n, conditions, detail):
    ok = all(bool(c) for c in conditions)
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def wp_ohmic(omega, omega_c=1.0):
    a = np.abs(omega)
    return (omega_c + a) * np.exp(-a / omega_c) / (4.0 * omega_c**2)


def test_criterion_1_exponent_quadrature_matches_analytic():
    start = time.monotonic()
    worst = 0.0
    ts = np.linspace(0.0, 50.0, 101)
    for omega_c in (1.0, 3.0):
        model = SpectralDensityModel.ohmic(omega_c)
        got = decoherence_exponent(model, ts)
        worst = max(worst, float(np.max(np.abs(got - 2.0 * np.log1p((omega_c * ts) ** 2)))))
    elapsed = time.monotonic() - start
    check(1, [worst <= 1e-8, elapsed < 5.0],
          f"Linf(quadrature vs analytic) = {worst:.3e} <= 1e-8, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_conventional_distribution_recovery():
    start = time.monotonic()
    conds, details = [], []
    for omega_c in (1.0, 3.0):
        grid = time_grid(200.0 / omega_c, 1 << 16)
        dist = inverse_ft(ohmic_series(omega_c, grid))
        mask = np.abs(dist.omega) <= 10.0 * omega_c
        linf = float(np.max(np.abs(dist.values - wp_ohmic(dist.omega, omega_c))[mask]))
        conds += [linf <= 1e-3, abs(dist.norm - 1.0) <= 1e-6, dist.min_value >= -1e-4]
        details.append(f"wc={omega_c}: Linf={linf:.2e}, norm err={abs(dist.norm-1):.1e}, "
                       f"min={dist.min_value:.1e}")
    elapsed = time.monotonic() - start
    conds.append(elapsed < 10.0)
    check(2, conds, "; ".join(details) + f"; runtime {elapsed:.2f}s < 10s")


def test_criterion_3_extended_distribution_negativity():
    grid = time_grid(200.0, 1 << 16)
    d1 = inverse_ft(ohmic_series(1.0, grid, phase=np.pi / 4))
    d2 = inverse_ft(ohmic_series(1.0, grid, phase=5 * np.pi / 4))
    diff = float(np.max(np.abs(d1.values - d2.values)))
    check(3, [d1.min_value < -1e-3, d2.min_value < -1e-3, diff > 1e-2],
          f"min(pi/4)={d1.min_value:.2e}, min(5pi/4)={d2.min_value:.2e}, "
          f"Linf difference={diff:.2e} > 1e-2")


def test_criterion_4_negativity_landscape(ohmic_pair):
    start = time.monotonic()
    phases = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    grid = time_grid(200.0, 1 << 16)
    pair = ohmic_pair(grid)
    dt = grid[1] - grid[0]
    omega, phases, cells = negativity_landscape(*pair, phases, (-10.0, 10.0), dt)
    elapsed = time.monotonic() - start
    k_quarter = 8   # phases[k] = 2 pi k / 64; k=8 -> pi/4, k=40 -> 5 pi/4
    k_five = 40
    _, _, wrapped = negativity_landscape(
        *pair, np.array([phases[k_quarter] + 2.0 * np.pi]), (-10.0, 10.0), dt)
    periodic = float(np.max(np.abs(cells[:, k_quarter] - wrapped[:, 0])))
    check(4, [elapsed < 60.0, cells[:, k_quarter].min() < 0.0,
              cells[:, k_five].min() < 0.0, periodic < 1e-10, np.max(cells) <= 0.0],
          f"64 columns in {elapsed:.2f}s < 60s; negative cells at pi/4 "
          f"({cells[:, k_quarter].min():.2e}) and 5pi/4 ({cells[:, k_five].min():.2e}); "
          f"2pi-periodicity residual {periodic:.1e}")


def test_criterion_5_bochner_witness():
    grid = time_grid(200.0, 1 << 16)
    conv = ohmic_series(1.0, grid)
    rng = np.random.default_rng(2024)
    k_hi = int(50.0 / conv.dt)
    worst = np.inf
    for _ in range(100):
        size = int(rng.integers(2, 9))
        times = grid[conv.n // 2 + rng.integers(0, k_hi + 1, size)]
        worst = min(worst, bochner_witness(conv, times).min_eigenvalue)
    ext = ohmic_series(1.0, grid, phase=np.pi / 2)
    report, used = bochner_search(ext, restarts=10000, seed=1234, stop_below=-1e-3)
    check(5, [worst >= -1e-10, report.min_eigenvalue < -1e-3, used <= 10000],
          f"conventional floor {worst:.2e} >= -1e-10 over 100 sets; extended search "
          f"found {report.min_eigenvalue:.2e} < -1e-3 after {used} restarts")


def test_criterion_6_dilation_equivalence():
    rng = np.random.default_rng(99)
    times = np.linspace(0.0, 10.0, 20)
    worst_dist, worst_block = 0.0, True
    for _ in range(20):
        n = int(rng.integers(1, 9))
        p = rng.uniform(0.05, 1.0, n)
        hams = []
        for _ in range(n):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            hams.append(HermitianOperator(0.5 * (a + a.conj().T)))
        ens = HamiltonianEnsemble(p / p.sum(), tuple(hams))
        reduced, ok = joint_evolve_reduce(dilate(ens), PLUS, times)
        for a, b in zip(reduced, he_average(ens, PLUS, times)):
            worst_dist = max(worst_dist, trace_distance(a, b))
        worst_block = worst_block and ok
    # 32-point discretization of the recovered Ohmic spectral ensemble
    omega = np.linspace(-30.0, 30.0, 4001)
    spectral = SpectralEnsemble(omega, wp_ohmic(omega))
    ens32 = spectral.discretize(32)
    reduced, ok = joint_evolve_reduce(dilate(ens32), PLUS, times)
    for a, b in zip(reduced, he_average(ens32, PLUS, times)):
        worst_dist = max(worst_dist, trace_distance(a, b))
    worst_block = worst_block and ok
    check(6, [worst_dist <= 1e-12, worst_block],
          f"max trace distance {worst_dist:.2e} <= 1e-12 over 21 ensembles x 20 times; "
          f"environment off-diagonal blocks <= 1e-10: {worst_block}")


def test_criterion_7_master_equation_consistency():
    grid = time_grid(20.0, 1 << 14)
    series = ohmic_series(1.0, grid)
    t_all, eps, gam = master_coeffs(series)
    i0 = int(np.searchsorted(t_all, 0.0))
    n_steps = int(np.floor(10.0 / (2.0 * series.dt)))
    sub = slice(i0, i0 + 2 * n_steps + 1)
    t_out, coh = propagate_master(t_all[sub], eps[sub], gam[sub])  # coherence ratios
    exact = (1.0 + t_out**2) ** -2.0
    rel = float(np.max(np.abs(coh - exact) / exact))
    check(7, [t_out[-1] >= 10.0 - 2 * series.dt, rel <= 1e-5],
          f"max relative coherence error {rel:.2e} <= 1e-5 on t in [0, {t_out[-1]:.2f}]")


def test_criterion_8_monte_carlo_and_sampling_impossibility(tmp_path):
    omega = conjugate_frequency_grid(1 << 16, 400.0 / (1 << 16))
    ens = SpectralEnsemble(omega, wp_ohmic(omega))
    n = 100000
    bound = 5.0 / np.sqrt(n)
    times = np.array([0.5, 1.0, 2.0])
    phi_mc, _ = mc_coherence(sample_frequencies(ens, n, seed=20240101), times)
    errs = np.abs(phi_mc - (1.0 + times * times) ** -2.0)
    inv = tmp_path / "inv"
    rc_inv = cli_main(["invert", "--mode", "extended", "--phase", str(np.pi / 4),
                       "--output-dir", str(inv)])
    rc_sim = cli_main(["simulate", "--ensemble-kind", "spectral",
                       "--ensemble-path", str(inv / "wp.csv"),
                       "--output-dir", str(tmp_path / "sim")])
    check(8, [max(errs) <= bound, rc_inv == 0, rc_sim == 4],
          f"max |phi_MC - phi| = {max(errs):.2e} <= 5/sqrt(n) = {bound:.2e}; "
          f"sampling the extended quasi-distribution exits with code {rc_sim} (= 4)")


def test_criterion_9_cnot_example(tmp_path):
    j = 1.0
    times = [0.0, 0.5 * np.pi / j, np.pi / j]
    rho0 = pure_state([1.0, 0.0]).matrix
    worst = 0.0
    for a in (0.0, 0.3, 1.0):
        out = tmp_path / f"a{a}"
        cfg = tmp_path / f"cfg{a}.json"
        cfg.write_text(json.dumps({
            "ensemble": {"kind": "cnot", "a": a, "j": j},
            "rho0": "up",
            "times": {"list": times},
            "output": {"dir": str(out)},
        }))
        assert cli_main(["simulate", "--config", str(cfg)]) == 0
        with open(out / "state.csv") as fh:
            header = fh.readline().strip().split(",")
        data = np.loadtxt(out / "state.csv", delimiter=",", skiprows=1)
        for k, t in enumerate(times):
            half = 0.5 * j * t
            u = np.cos(half) * np.eye(2) - 1j * np.sin(half) * PAULI_X
            expected = a * (u @ rho0 @ u.conj().T) + (1 - a) * rho0
            got = np.empty((2, 2), dtype=complex)
            for i in range(2):
                for l in range(2):
                    got[i, l] = data[k, header.index(f"he_re_{i}{l}")] \
                        + 1j * data[k, header.index(f"he_im_{i}{l}")]
            worst = max(worst, float(np.max(np.abs(got - expected))))
    check(9, [worst <= 1e-12],
          f"max deviation from a U rho U^dag + (1-a) rho is {worst:.2e} <= 1e-12 "
          f"over a in {{0, 0.3, 1}} and Jt in {{0, pi/2, pi}}")


def test_criterion_10_fourier_roundtrip_suite():
    grid = time_grid(200.0, 1 << 16)
    omega = conjugate_frequency_grid(grid.size, grid[1] - grid[0])
    gauss = np.exp(-0.5 * omega**2) / np.sqrt(2.0 * np.pi)
    lorentz = 1.0 / np.pi / (1.0 + omega**2)
    lorentz /= np.trapezoid(lorentz, omega)
    e_gauss = roundtrip_error((omega, gauss))
    e_lorentz = roundtrip_error((omega, lorentz))
    base = ohmic_series(1.0, grid)
    dist0 = inverse_ft(base)
    m = 64
    omega0 = m * dist0.domega
    from hens.dephasing import DephasingSeries

    shifted = inverse_ft(DephasingSeries.from_samples(grid, np.exp(1j * omega0 * grid)
                                                      * base.full()))
    shift_resid = float(np.max(np.abs(shifted.values - np.roll(dist0.values, m))))
    check(10, [e_gauss <= 1e-6, e_lorentz <= 1e-4, shift_resid <= 1e-8],
          f"roundtrip Gaussian {e_gauss:.2e} <= 1e-6, Lorentzian {e_lorentz:.2e} <= 1e-4; "
          f"shift covariance residual {shift_resid:.2e} <= 1e-8")
