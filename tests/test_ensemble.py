import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import hens.ensemble
from hens.ensemble import (
    MC_BLOCK,
    RESTEP,
    HamiltonianEnsemble,
    SamplingError,
    SpectralEnsemble,
    _cdf_index,
    _coherence_factor,
    _phase_factors,
    cnot_ensemble,
    cnot_mixture,
    dephase_qubit,
    dilate,
    he_average,
    joint_evolve_reduce,
    mc_coherence,
    sample_frequencies,
    sampled_coherence,
)
from hens.qdyn import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    maximally_mixed,
    partial_trace,
    pure_state,
    require_finite_phases,
    trace_distance,
    unitary_at,
)

PLUS = pure_state([1.0, 1.0])


def unitary_orbit(rho, h, t):
    """U rho U^dagger with U = exp(-i h t) from ``unitary_at``."""
    u = unitary_at(h, t)
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def random_qubit_ensemble(rng, n_members):
    p = rng.uniform(0.05, 1.0, n_members)
    p /= p.sum()
    hams = []
    for _ in range(n_members):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hams.append(HermitianOperator(0.5 * (a + a.conj().T)))
    return HamiltonianEnsemble(p, tuple(hams))


def loop_env_coherence(matrix, d, env_dim):
    """Reference check: one np.max per environment-off-diagonal block."""
    blocks = matrix.reshape(d, env_dim, d, env_dim)
    off_max = 0.0
    for j in range(env_dim):
        for k in range(env_dim):
            if j != k:
                off_max = max(off_max, float(np.max(np.abs(blocks[:, j, :, k]))))
    return off_max


def loop_unitary(h, t):
    """Reference: U = exp(-i h t) at one time, from its own eigendecomposition of h."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def loop_he_average(ens, rho0, t):
    """Reference: the mixture of unitary orbits at one time, one unitary per member."""
    out = np.zeros((ens.dim, ens.dim), dtype=complex)
    for p, h in zip(ens.probs, ens.hamiltonians):
        u = loop_unitary(h, t)
        out += p * (u @ rho0.matrix @ u.conj().T)
    return DensityMatrix(0.5 * (out + out.conj().T))


def loop_dephase_qubit(rho0, factor):
    """Reference: one factor's dephased qubit state."""
    m = rho0.matrix.copy()
    m[1, 0] *= factor
    m[0, 1] *= np.conj(factor)
    return DensityMatrix(0.5 * (m + m.conj().T))


def loop_joint_evolve_reduce(dil, rho0, t):
    """Reference: the dilation at one time, from its own unitary of the joint Hamiltonian,
    one block per environment state, as the Hamiltonian is environment-diagonal."""
    d, m = dil.ensemble.dim, dil.env_dim
    blocks = dil.joint_hamiltonian().matrix.reshape(d, m, d, m)
    u = np.zeros((d, m, d, m), dtype=complex)
    for j in range(m):
        u[:, j, :, j] = loop_unitary(HermitianOperator(blocks[:, j, :, j]), t)
    u = u.reshape(d * m, d * m)
    jt = u @ dil.joint_initial(rho0).matrix @ u.conj().T
    jt = 0.5 * (jt + jt.conj().T)
    reduced = partial_trace(DensityMatrix(jt), (d, dil.env_dim), keep="s")
    return reduced, loop_env_coherence(jt, d, dil.env_dim) <= 1e-10


def gamma(n):
    """The rounding factor of a computed n x n complex matrix product in the Frobenius
    norm, sqrt(2) (n + 2) u / (1 - (n + 2) u), u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return np.sqrt(2.0) * (n + 2) * u / (1 - (n + 2) * u)


def time_sets():
    """One, two and 21 times, holding t = 0 and a repeated time."""
    t = np.linspace(0.0, 10.0, 20)
    return [np.array([0.0]), np.array([2.5, 2.5]), np.append(t, t[7])]


def trapezoid_sum_bound(n, mass):
    """The distance ``_coherence_factor``'s docstring allows between its sum over n grid
    points and np.trapezoid's at the same phases: 2 sqrt(2) gamma_{D+3} M, with
    D = ceil(log2 n) + 15 and M the weights' trapezoid mass times max|z|."""
    u = np.finfo(float).eps / 2
    k = int(np.ceil(np.log2(n))) + 18
    return 2.0 * np.sqrt(2.0) * k * u / (1 - k * u) * mass


def gaussian_spectral(sigma=1.0, span=8.0, n=2001):
    om = np.linspace(-span * sigma, span * sigma, n)
    w = np.exp(-0.5 * (om / sigma) ** 2)
    return SpectralEnsemble(om, w / np.trapezoid(w, om))


class TestStackedRoutes:
    """Every route over an array of times equals its per-time reference bit for bit, the
    spectral coherence factor within the bound of its phase walk and the dilation within
    the rounding of its products and of its dense reference's."""

    @pytest.mark.parametrize("k", range(3), ids=["T1", "T2", "T21"])
    def test_he_average(self, k):
        times = time_sets()[k]
        rng = np.random.default_rng(k)
        for ens, rho0 in ((random_qubit_ensemble(rng, 5), PLUS),
                          (HamiltonianEnsemble(np.array([0.3, 0.7]),
                                               tuple(HermitianOperator(np.diag(d))
                                                     for d in ([1.0, 2.0, -1.0, 0.5],
                                                               [0.0, -2.0, 3.0, 1.0]))),
                           maximally_mixed(4))):
            got = he_average(ens, rho0, times)
            assert len(got) == times.size
            for t, state in zip(times, got):
                assert np.array_equal(state, loop_he_average(ens, rho0, t).matrix)

    @pytest.mark.parametrize("k", range(3), ids=["T1", "T2", "T21"])
    def test_coherence_factor_and_dephase_qubit(self, k):
        times = time_sets()[k]
        ens = gaussian_spectral()
        factors = _coherence_factor(ens.omega, ens.weights, times)
        # one distinct time takes the direct phases (T1, T2); more are within _phase_walk's
        # bound on each phase, over the weights' unit trapezoid mass.  The sums then differ
        # from np.trapezoid's by the pairwise-summation bound of _coherence_factor
        walk = 0.0 if k < 2 else min(times.size, RESTEP) * (
            4 * np.max(np.abs(ens.omega)) * np.spacing(np.max(times)) + 4 * np.finfo(float).eps)
        bound = walk + trapezoid_sum_bound(ens.omega.size, 1.0 + walk)
        for t, f in zip(times, factors):
            direct = np.trapezoid(ens.weights * np.exp(1j * ens.omega * t), ens.omega)
            assert abs(f - direct) <= bound
        got = dephase_qubit(PLUS, factors)
        assert len(got) == times.size
        for f, state in zip(factors, got):
            assert np.array_equal(state, loop_dephase_qubit(PLUS, f).matrix)

    @pytest.mark.parametrize("k", range(3), ids=["T1", "T2", "T21"])
    def test_dilation(self, k):
        times = time_sets()[k]
        rng = np.random.default_rng(10 + k)
        u = np.finfo(float).eps / 2
        dils = [dilate(random_qubit_ensemble(rng, 4)), dilate(gaussian_spectral().discretize(16))]
        for dil in dils:
            d, m = dil.ensemble.dim, dil.env_dim
            n = d * m
            # both routes round sum_j p_j U_j rho0 U_j^H from each block's own eigh, each
            # n x n complex product by at most gamma_n ||X||_F ||Y||_F in the Frobenius
            # norm (Higham, "Accuracy and Stability of Numerical Algorithms", 2002,
            # sections 3.5-3.6).  Each side forms U_j = (V e^{-iwt}) V^H, within gamma_d d,
            # and uses it twice.  The reference's two D x D products move J(t) by
            # 2 gamma_D sqrt(D), and a reduced entry sums m of its entries; he_average's
            # two d x d products move a member's orbit by 2 gamma_d sqrt(d).  Each side's
            # sum over m weighted members rounds by (m + 1) u.
            bound = (4 * gamma(d) * d + np.sqrt(m) * 2 * gamma(n) * np.sqrt(n)
                     + 2 * gamma(d) * np.sqrt(d) + 2 * (m + 1) * u)
            reduced, classical = joint_evolve_reduce(dil, PLUS, times)
            assert len(reduced) == times.size
            assert classical is True
            for t, state in zip(times, reduced):
                ref, ref_ok = loop_joint_evolve_reduce(dil, PLUS, t)
                assert np.max(np.abs(state - ref.matrix)) <= bound
                assert ref_ok

    def test_states_are_read_only(self):
        ens = random_qubit_ensemble(np.random.default_rng(5), 3)
        times = np.linspace(0.0, 1.0, 4)
        for states in (he_average(ens, PLUS, times), dephase_qubit(PLUS, [1.0, 0.5j]),
                       joint_evolve_reduce(dilate(ens), PLUS, times)[0]):
            assert states.ndim == 3 and not states.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                states[0, 0, 0] = 0.0

    @pytest.mark.parametrize("count", [21, 150])
    def test_evenly_spaced_times_cost_one_exponential_per_frequency(self, exp_sizes, count):
        ens = gaussian_spectral()
        exp_sizes.clear()
        _coherence_factor(ens.omega, ens.weights, np.linspace(0.0, 10.0, count))
        # the first gap's factors, then one restart per RESTEP visited times
        assert sum(exp_sizes) == (1 + (count - 1) // RESTEP) * ens.omega.size

    def test_factor_past_unit_modulus_rejected(self):
        with pytest.raises(ValueError, match="exceeds unit modulus"):
            dephase_qubit(PLUS, [1.0, 0.5 + 1.0j])

    def test_dilation_memory_does_not_grow_with_times(self):
        # a 64-bin dilation: a D x D complex array, 128 x 128, is 256 KiB; the route forms none
        dil = dilate(gaussian_spectral().discretize(64))
        peaks = []
        for count in (21, 201):
            times = np.linspace(0.0, 10.0, count)
            tracemalloc.start()
            try:
                joint_evolve_reduce(dil, PLUS, times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 128 * 128 * 16

    @pytest.mark.parametrize("count", [21, 201])
    def test_dilation_eigensolves_once(self, monkeypatch, count):
        ens = random_qubit_ensemble(np.random.default_rng(3), 16)
        d, m = ens.dim, ens.size
        calls, unitaries = [], []
        for name in ("eigh", "eigvalsh"):
            def counting(a, *args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls.append((_name, np.shape(a)))
                return _solve(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        def counting_unitary_at(h, times, _unitary_at=hens.ensemble.unitary_at):
            unitaries.append(h.dim)
            return _unitary_at(h, times)
        monkeypatch.setattr(hens.ensemble, "unitary_at", counting_unitary_at)
        # dilate validates no state: it eigensolves nothing
        dil = dilate(ens)
        assert calls == [] and unitaries == []
        joint_evolve_reduce(dil, PLUS, np.linspace(0.0, 10.0, count))
        # one eigh of the (m, d, d) member blocks, not one per member through
        # unitary_at, whatever the count of times; the reduced states are checked by
        # one eigvalsh of their (T, d, d) stack, and nothing larger than d x d is
        # eigensolved
        assert unitaries == []
        assert [c for c in calls if c[0] == "eigh"] == [("eigh", (m, d, d))]
        assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", (count, d, d))]
        assert {shape[-2:] for _, shape in calls} == {(d, d)}

    @pytest.mark.parametrize("bins", [128, 1024])
    def test_dilation_memory_per_bin(self, bins):
        # O(m d^2): dilate forms no (2 bins)^2 joint Hamiltonian (64 bins^2 B, 1 MiB at
        # 128 bins) and no bins x bins environment state, and the route holds one
        # member's unitaries and the states at a time
        ens = gaussian_spectral().discretize(bins)
        tracemalloc.start()
        try:
            joint_evolve_reduce(dilate(ens), PLUS, np.linspace(0.0, 10.0, 21))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * bins


class TestHamiltonianEnsemble:
    def test_requires_normalized_probabilities(self):
        h = HermitianOperator(PAULI_Z)
        with pytest.raises(ValueError):
            HamiltonianEnsemble(np.array([0.5, 0.4]), (h, h))
        with pytest.raises(ValueError):
            HamiltonianEnsemble(np.array([1.5, -0.5]), (h, h))

    @pytest.mark.parametrize("probs, members, error, text", [
        ([0.5, np.nan], [PAULI_Z, PAULI_Z], ValueError, "probabilities must be finite"),
        ([0.5, 0.5], [PAULI_Z], ValueError, "probabilities and Hamiltonians must pair up"),
        ([0.5, 0.5], [PAULI_Z, np.ones((2, 3))], ValueError, "expected a square matrix"),
        # beside a member of another size, a member that is not square reads as such
        ([0.5, 0.5], [np.eye(3), np.ones((2, 3))], ValueError, "expected a square matrix"),
        ([0.5, 0.5], [PAULI_Z, np.diag([np.nan, 1.0])], ValueError,
         "matrix entries must be finite"),
        ([0.5, 0.5], [PAULI_Z, np.triu(np.ones((2, 2)))], ValueError,
         "operator is not Hermitian"),
        ([0.5, 0.5], [PAULI_Z, np.eye(3)], DimensionError,
         "ensemble members have mixed dimensions"),
        ([0.5, 0.5], np.array([PAULI_Z, [[0, 1j], [1j, 0]]]), ValueError,
         "operator is not Hermitian"),
    ], ids=["nan-probability", "unpaired", "not-square", "not-square-beside-3x3", "nan",
            "not-hermitian", "mixed-dimensions", "not-hermitian-array"])
    def test_rejects(self, probs, members, error, text):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            HamiltonianEnsemble(np.array(probs), members)

    def test_members_are_one_read_only_stack(self):
        rng = np.random.default_rng(5)
        ops = random_qubit_ensemble(rng, 6).hamiltonians
        stack = np.array([h.matrix for h in ops])
        p = np.full(6, 1.0 / 6.0)
        forms = [HamiltonianEnsemble(p, ops), HamiltonianEnsemble(p, list(stack)),
                 HamiltonianEnsemble(p, stack)]
        for ens in forms:
            assert ens.matrices.shape == (6, 2, 2) and ens.dim == 2
            assert ens.matrices.tobytes() == stack.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                ens.matrices[0, 0, 0] = 1.0
            assert all(isinstance(h, HermitianOperator) for h in ens.hamiltonians)
            assert np.array_equal([h.matrix for h in ens.hamiltonians], stack)
        # the ensemble holds its own copy: the caller's array stays writable
        stack[0, 0, 0] = 2.0
        assert forms[2].matrices[0, 0, 0] != 2.0

    def test_single_member_equals_unitary_orbit(self):
        rng = np.random.default_rng(2)
        ens = random_qubit_ensemble(rng, 1)
        times = (0.0, 0.7, 3.1)
        for t, got in zip(times, he_average(ens, PLUS, times)):
            direct = unitary_orbit(PLUS, ens.hamiltonians[0], t)
            assert trace_distance(got, direct) < 1e-14

    def test_two_member_dephasing_oracle(self):
        # oracle: sum the two literal 2x2 unitaries by hand
        omega_bar = 1.3
        ens = HamiltonianEnsemble(
            np.array([0.5, 0.5]),
            (HermitianOperator(0.5 * omega_bar * PAULI_Z),
             HermitianOperator(-0.5 * omega_bar * PAULI_Z)),
        )
        times = np.random.default_rng(4).uniform(0, 10, 5)
        for t, got in zip(times, he_average(ens, PLUS, times)):
            u_plus = np.diag([np.exp(-0.5j * omega_bar * t), np.exp(0.5j * omega_bar * t)])
            u_minus = u_plus.conj()
            expected = 0.5 * (u_plus @ PLUS.matrix @ u_plus.conj().T
                              + u_minus @ PLUS.matrix @ u_minus.conj().T)
            assert np.max(np.abs(got - expected)) < 1e-14
            assert abs(abs(got[1, 0])
                       - abs(PLUS.matrix[1, 0]) * abs(np.cos(omega_bar * t))) < 1e-14

    def test_unitality(self):
        rng = np.random.default_rng(9)
        ens = random_qubit_ensemble(rng, 5)
        for out in he_average(ens, maximally_mixed(2), [0.3, 2.0]):
            assert trace_distance(out, maximally_mixed(2)) < 1e-12


def spectral_average(ens, rho0, t):
    """Averaged qubit state under spectral disorder at one time (populations untouched)."""
    return dephase_qubit(rho0, _coherence_factor(ens.omega, ens.weights, [t]))[0]


def mc_average(ens, rho0, t, n, seed):
    """Monte Carlo estimate of the spectral average at one time t: (state, stderr of
    the sampled coherence factor)."""
    zbar, stderr = mc_coherence(sample_frequencies(ens, n, seed), [t])
    return dephase_qubit(rho0, zbar)[0], float(stderr[0])


class TestSpectralEnsemble:
    def test_validation(self):
        om = np.linspace(-1, 1, 11)
        w = np.ones(11) / 2.0
        SpectralEnsemble(om, w)
        dipped = w.copy()
        dipped[3] -= 0.6  # mass-neutral dip/bump pair
        dipped[7] += 0.6
        with pytest.raises(SamplingError, match="cannot sample"):
            SpectralEnsemble(om, dipped)
        with pytest.raises(ValueError, match="uniform"):
            SpectralEnsemble(np.concatenate([om[:5], om[6:]]), np.ones(10) / 2.0)
        # spacings alternating 1e-10 and 9e-10: uneven, however small the step
        alternating = np.cumsum(np.tile([1e-10, 9e-10], 6))[:11]
        with pytest.raises(ValueError, match="uniform"):
            SpectralEnsemble(alternating, np.ones(11) / (alternating[-1] - alternating[0]))
        with pytest.raises(ValueError, match="normalized"):
            SpectralEnsemble(om, 3.0 * w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("col", [0, 1], ids=["omega", "weight"])
    def test_rejects_non_finite(self, bad, col):
        pair = [np.linspace(-1, 1, 11), np.ones(11) / 2.0]
        pair[col][4] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectralEnsemble(*pair)

    def test_average_at_zero_time(self):
        ens = gaussian_spectral()
        assert trace_distance(spectral_average(ens, PLUS, 0.0), PLUS) < 1e-12

    def test_delta_distribution_rotates(self):
        omega0 = 2.0
        om = np.linspace(-4, 4, 1601)
        w = np.zeros_like(om)
        k = np.argmin(np.abs(om - omega0))
        w[k] = 1.0 / (om[1] - om[0])
        ens = SpectralEnsemble(om, w)
        t = 0.9
        got = spectral_average(ens, PLUS, t)
        direct = unitary_orbit(PLUS, HermitianOperator(0.5 * om[k] * PAULI_Z), t)
        assert trace_distance(got, direct) < 1e-12

    def test_gaussian_coherence_decay(self):
        # known transform pair, evaluated against the grid sum
        sigma = 0.8
        ens = gaussian_spectral(sigma=sigma)
        for t in (0.5, 1.0, 2.5):
            coh = spectral_average(ens, PLUS, t)[1, 0]
            assert abs(abs(coh) / abs(PLUS.matrix[1, 0]) - np.exp(-0.5 * (sigma * t) ** 2)) < 1e-8

    def test_discretized_ensemble_holds_its_arrays_alone(self):
        # a bin holds its probability and its 2 x 2 complex member, 72 B, as one
        # (bins, 2, 2) stack: no per-bin operator object
        ens = gaussian_spectral()
        tracemalloc.start()
        try:
            fin = ens.discretize(1024)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert fin.size == 1024
        assert held < 100 * 1024

    def test_discretize_matches_moments(self):
        ens = gaussian_spectral(sigma=1.0)
        fin = ens.discretize(128)
        assert abs(fin.probs.sum() - 1.0) < 1e-12
        freqs = np.array([2.0 * h.matrix[0, 0].real for h in fin.hamiltonians])
        mean = float(freqs @ fin.probs)
        var = float((freqs**2) @ fin.probs) - mean**2
        assert abs(mean) < 1e-6
        # midpoint binning bias is O(bin width squared)
        assert abs(var - 1.0) < 2e-3


class TestMonteCarlo:
    def test_fixed_seed_is_bit_identical(self):
        ens = gaussian_spectral()
        a, sa = mc_average(ens, PLUS, 1.1, 4000, seed=77)
        b, sb = mc_average(ens, PLUS, 1.1, 4000, seed=77)
        assert np.array_equal(a, b)
        assert sa == sb

    def test_delta_distribution_rotates_within_grid_width(self):
        # a grid delta is a hat of width domega; the rotation is exact up to that
        omega0 = 2.0
        om = np.linspace(-4, 4, 1601)
        w = np.zeros_like(om)
        k = np.argmin(np.abs(om - omega0))
        w[k] = 1.0 / (om[1] - om[0])
        ens = SpectralEnsemble(om, w)
        draws = sample_frequencies(ens, 20000, seed=3)
        assert np.max(np.abs(draws - omega0)) <= om[1] - om[0] + 1e-12
        got, stderr = mc_average(ens, PLUS, 2.0, 20000, seed=3)
        direct = unitary_orbit(PLUS, HermitianOperator(0.5 * omega0 * PAULI_Z), 2.0)
        assert trace_distance(got, direct) < 2e-3
        assert stderr < 1e-3

    def test_five_sigma_consistency(self):
        # |coherence_MC - coherence_exact| <= 5 stderr in >= 99% of trials
        ens = gaussian_spectral()
        t = 1.3
        exact = spectral_average(ens, PLUS, t)[1, 0]
        failures = 0
        trials = 120
        for seed in range(trials):
            got, stderr = mc_average(ens, PLUS, t, 1500, seed=seed)
            if abs(got[1, 0] - exact) > 5.0 * stderr:
                failures += 1
        assert failures <= max(1, trials // 100)


def reference_coherence(draws, t):
    """The per-time estimator: mean of e^{iwt} and the ddof=1 variances of its parts."""
    ph = np.exp(1j * draws * t)
    var = np.var(ph.real, ddof=1) + np.var(ph.imag, ddof=1) if draws.size > 1 else 0.0
    return ph.mean(), np.sqrt(var / draws.size)


def reference_draws(ens, n, seed):
    """The sampler as a concatenation of one array per seeded substream."""
    cdf = ens.cdf()
    chunks = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(-(-n // MC_BLOCK))):
        u = np.random.default_rng(child).random(min(MC_BLOCK, n - i * MC_BLOCK))
        idx = np.clip(np.searchsorted(cdf, u, side="left"), 1, cdf.size - 1)
        seg = cdf[idx] - cdf[idx - 1]
        frac = np.where(seg > 0, (u - cdf[idx - 1]) / np.where(seg > 0, seg, 1.0), 0.0)
        chunks.append(ens.omega[idx - 1] + frac * ens.domega)
    return np.concatenate(chunks)


def block_sorted(draws):
    """The draws with each MC_BLOCK sorted ascending."""
    return np.concatenate([np.sort(draws[start:start + MC_BLOCK])
                           for start in range(0, draws.size, MC_BLOCK)])


def per_draw(ens, n, seed, positions):
    """Reference: the sampler's draws at ``positions``, each searched on its own by a
    scalar left ``np.searchsorted`` of its uniform, in the order the substreams draw them."""
    cdf = ens.cdf()
    children = np.random.SeedSequence(seed).spawn(-(-n // MC_BLOCK))
    u = np.concatenate([np.random.default_rng(child).random(min(MC_BLOCK, n - i * MC_BLOCK))
                        for i, child in enumerate(children)])
    out = []
    for k in positions:
        i = min(max(int(np.searchsorted(cdf, u[k], side="left")), 1), cdf.size - 1)
        seg = cdf[i] - cdf[i - 1]
        frac = (u[k] - cdf[i - 1]) / seg if seg > 0 else 0.0
        out.append(ens.omega[i - 1] + frac * ens.domega)
    return np.array(out)


def normalized(om, w):
    return SpectralEnsemble(om, w / np.trapezoid(w, om))


def sampler_tables():
    """Spectral tables whose CDFs have flat runs, gaps, a single step or two points."""
    om = np.linspace(-1.0, 1.0, 11)
    bumps = np.linspace(-4.0, 4.0, 161)
    gap = np.exp(-8.0 * (np.abs(bumps) - 2.5) ** 2)
    gap[np.abs(bumps) < 1.0] = 0.0
    delta = np.zeros(41)
    delta[17] = 1.0
    # the bench's layout: the conjugate grid of 65536 times on [-200, 200)
    n = 1 << 16
    fft = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d=400.0 / n))
    return {
        "flat-runs": normalized(om, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0,
                                              0.0, 0.0, 0.0])),
        "zero-gap": normalized(bumps, gap),
        "delta": normalized(np.linspace(-2.0, 2.0, 41), delta),
        "two-points": normalized(np.array([-0.5, 0.5]), np.ones(2)),
        "fft-grid": normalized(fft, (1.0 + np.abs(fft)) * np.exp(-np.abs(fft)) / 4.0),
    }


def cdf_keys(cdf):
    """Sorted key sets: every knot value (0.0 and repeats among them), 0.0 alone, one
    key, neighbours of the knots and a block of uniforms."""
    rng = np.random.default_rng(8)
    knots = np.unique(cdf)
    near = np.concatenate([np.nextafter(knots, -1.0), np.nextafter(knots, 2.0)])
    uniforms = rng.random(MC_BLOCK)
    mixed = np.concatenate([np.repeat(knots, 3), near, uniforms[:1000], [0.0, 0.0]])
    return {
        "knots": cdf,
        "zero": np.array([0.0]),
        "single": uniforms[:1],
        "repeats": np.repeat(rng.choice(knots, 5), 4),
        "near-knots": near,
        "uniforms": uniforms,
        "mixed": mixed,
    }


class TestCdfIndex:
    """The sorted-merge search equals a left searchsorted on every key."""

    @pytest.mark.parametrize("table", list(sampler_tables()))
    def test_equals_searchsorted_left(self, table):
        cdf = sampler_tables()[table].cdf()
        for name, keys in cdf_keys(cdf).items():
            keys = np.sort(keys)
            assert np.array_equal(_cdf_index(cdf, keys),
                                  np.searchsorted(cdf, keys, side="left")), name

    def test_random_tables_and_keys(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(weights=st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]),
                                           min_size=2, max_size=30),
                          picks=st.lists(st.integers(0, 29), max_size=20),
                          floats=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                          max_size=20))
        def check(weights, picks, floats):
            weights = np.array(weights)
            hypothesis.assume(weights.sum() > 0.0)
            om = np.linspace(0.0, 1.0, weights.size)
            cdf = normalized(om, weights).cdf()
            keys = np.sort(np.concatenate([cdf[np.array(picks, dtype=int) % cdf.size],
                                           floats, [0.0]]))
            assert np.array_equal(_cdf_index(cdf, keys), np.searchsorted(cdf, keys, side="left"))

        check()


def skewed_draws(n, seed=11):
    # an off-center, bimodal p(omega): the means stay far from 0 and 1
    om = np.linspace(-6.0, 10.0, 3201)
    w = np.exp(-0.5 * (om - 1.5) ** 2) + 0.4 * np.exp(-2.0 * (om - 5.0) ** 2)
    return sample_frequencies(SpectralEnsemble(om, w / np.trapezoid(w, om)), n, seed)


def assert_matches_reference(draws, times, mean_tol=1e-14, stderr_rtol=1e-12):
    means, stderrs = mc_coherence(draws, times)
    assert means.shape == stderrs.shape == (len(times),)
    for t, m, s in zip(times, means, stderrs):
        ref_m, ref_s = reference_coherence(draws, t)
        assert abs(m - ref_m) <= mean_tol, t
        assert abs(s - ref_s) <= stderr_rtol * ref_s, t


class TestMonteCarloAllTimes:
    def test_phase_past_the_float_range_raises(self):
        ens = gaussian_spectral()
        for estimate in (lambda t: mc_coherence(sample_frequencies(ens, 100, seed=1), t),
                         lambda t: _coherence_factor(ens.omega, ens.weights, t)):
            with pytest.raises(ValueError, match="not representable"):
                estimate([0.0, 1e308])
        # each phase is finite, but the step between the two times is not
        with pytest.raises(ValueError, match="not representable"):
            mc_coherence([0.5, -0.5], [-1e308, 1e308])

    @pytest.mark.parametrize("times", [np.linspace(0, 10, 21), np.linspace(0, 10, 101),
                                       np.linspace(0, 7, 21),
                                       [3.0, 0.0, 1.5, 3.0, 0.7, 0.0, 9.25, 1.5],
                                       # gaps ~1e4 ulp apart: too far to reuse a factor
                                       [0.0, 1.0, 2.0 + 1e-11, 3.0 + 1e-11, 4.0]],
                             ids=["0-10-21", "0-10-101", "0-7-21", "unsorted-repeats",
                                  "near-even"])
    def test_matches_per_time_estimator(self, times):
        assert_matches_reference(skewed_draws(2 * MC_BLOCK + 123), times)

    @pytest.mark.parametrize("n", [2, 1000, MC_BLOCK + 1])
    def test_matches_per_time_estimator_at_block_edges(self, n):
        assert_matches_reference(skewed_draws(n), np.linspace(0, 10, 21))

    def test_single_draw_has_zero_stderr(self):
        draws = skewed_draws(1)
        means, stderrs = mc_coherence(draws, [0.0, 2.5, 5.0])
        assert np.array_equal(stderrs, np.zeros(3))
        assert np.allclose(means, np.exp(1j * draws[0] * np.array([0.0, 2.5, 5.0])),
                           rtol=0, atol=1e-14)

    def test_zero_time_is_exact(self):
        means, stderrs = mc_coherence(skewed_draws(MC_BLOCK + 7), [2.0, 0.0, 0.0, 1.0])
        assert means[1] == means[2] == 1.0 and stderrs[1] == stderrs[2] == 0.0

    def test_long_evenly_spaced_run(self):
        # each reused step factor adds at most max|w| ulp(t) of phase
        draws = skewed_draws(5000)
        times = np.linspace(0, 200, 2000)
        k = times.size
        bound = k * np.max(np.abs(draws)) * np.spacing(times[-1]) + k * np.finfo(float).eps
        assert_matches_reference(draws, times, mean_tol=bound)

    def test_evenly_spaced_times_cost_one_exponential_per_draw(self, exp_sizes):
        draws = skewed_draws(2 * MC_BLOCK + 5)
        exp_sizes.clear()
        mc_coherence(draws, np.linspace(0, 10, 101))
        assert sum(exp_sizes) == draws.size
        exp_sizes.clear()
        # distinct gaps: one exponential per draw per time
        mc_coherence(draws, [0.3, 1.0, 2.5, 2.5, 5.0])
        assert sum(exp_sizes) == 4 * draws.size
        exp_sizes.clear()
        # gaps of two lengths, a, ..., a, b, a, ...: the factors of both are kept
        mc_coherence(draws, np.cumsum([0.1] * 5 + [0.25] + [0.1] * 5 + [0.25, 0.1]))
        assert sum(exp_sizes) == 2 * draws.size

    def test_phase_factors_are_the_exponentials(self):
        # e^{iwt} built from a purely imaginary buffer: the bits of np.exp(1j * w * t)
        w = np.concatenate([skewed_draws(5000), [1e-300, -1e-300, 1e10, -1e10]])
        for t in (1e-3, 0.37, 1.0, 7.5, -3.2, 199.99, np.float64(2.5)):
            assert np.array_equal(_phase_factors(w, t).view(np.uint64),
                                  np.exp(1j * w * t).view(np.uint64))

    def test_mc_average_is_the_one_time_estimate(self):
        ens = gaussian_spectral()
        state, stderr = mc_average(ens, PLUS, 1.7, 3000, seed=9)
        zbar, ref_stderr = reference_coherence(sample_frequencies(ens, 3000, seed=9), 1.7)
        assert abs(state[1, 0] - 0.5 * zbar) < 1e-15
        assert abs(stderr - ref_stderr) <= 1e-12 * ref_stderr

    # the Gaussian table's cases keep their plain ids, [n]
    @pytest.mark.parametrize("table, n", [
        pytest.param(table, n, id=str(n) if table == "gaussian" else f"{table}-{n}")
        for table in ("gaussian", *sampler_tables())
        for n in (1, MC_BLOCK, MC_BLOCK + 1, 1_000_000)])
    def test_sampler_fills_blocks_as_the_substreams_draw(self, table, n):
        ens = gaussian_spectral() if table == "gaussian" else sampler_tables()[table]
        assert np.array_equal(sample_frequencies(ens, n, seed=4), reference_draws(ens, n, seed=4))

    @pytest.mark.parametrize("table", ["gaussian", *sampler_tables()])
    def test_sampler_keeps_the_order_of_the_draws(self, table):
        # the sampler sorts each block to search it, and must put every draw back in its
        # uniform's place: the same bits as one scalar search per draw, at every 61st draw
        # of two blocks
        ens = gaussian_spectral() if table == "gaussian" else sampler_tables()[table]
        n = MC_BLOCK + 1000
        positions = np.arange(0, n, 61)
        assert np.array_equal(sample_frequencies(ens, n, seed=6)[positions],
                              per_draw(ens, n, 6, positions))


class TestSampledCoherence:
    """The streamed route: each seeded block drawn and added to the sums in turn."""

    # t = 0, repeats and an unsorted order
    TIMES = [2.0, 0.0, 0.5, 3.0, 0.5, 0.0, 9.25]

    @pytest.mark.parametrize("n", [1, 2, MC_BLOCK, MC_BLOCK + 1, 1_000_000])
    def test_equals_the_composed_calls(self, n):
        ens = gaussian_spectral()
        means, stderrs = sampled_coherence(ens, n, 21, self.TIMES)
        draws = sample_frequencies(ens, n, 21)
        ref_means, ref_stderrs = mc_coherence(block_sorted(draws), self.TIMES)
        assert np.array_equal(means, ref_means)
        assert np.array_equal(stderrs, ref_stderrs)
        # in the generator's order only the sums' rounding differs: each block's pairwise
        # sum (ceil(log2 MC_BLOCK) + 15 additions a term), one addition a block and the
        # division by n
        means, _ = mc_coherence(draws, self.TIMES)
        k = int(np.ceil(np.log2(MC_BLOCK))) + 16 + -(-n // MC_BLOCK)
        u = np.finfo(float).eps / 2
        assert np.max(np.abs(means - ref_means)) <= 2.0 * np.sqrt(2.0) * k * u / (1 - k * u)

    def test_estimates_do_not_depend_on_the_blas_thread_count(self):
        # one block of draws, and the he route's weighted sums over a 65536-point table:
        # a BLAS reduction over either, such as a sum of |z|^2 by np.vdot or a @ z, rounds
        # differently on two threads than on one
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "from hens.ensemble import MC_BLOCK, SpectralEnsemble, _coherence_factor, "
            "sampled_coherence",
            "times = np.linspace(0.0, 10.0, 21)",
            "om = np.linspace(-8.0, 8.0, 2001)",
            "w = np.exp(-0.5 * om ** 2)",
            "ens = SpectralEnsemble(om, w / np.trapezoid(w, om))",
            "means, stderrs = sampled_coherence(ens, MC_BLOCK, 7, times)",
            "big = np.linspace(-200.0, 200.0, 1 << 16)",
            "p = (1.0 + np.abs(big)) * np.exp(-np.abs(big)) / 4.0",
            "factors = _coherence_factor(big, p, times)",
            "sys.stdout.write((means.tobytes() + stderrs.tobytes() + factors.tobytes()).hex())",
        ])
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  timeout=60, env={**os.environ, "PYTHONPATH": path,
                                                   "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_phase_past_the_float_range_raises_the_same_error(self):
        # |w| up to 1e300 at t = 1e10: the error names the max|w| of all the draws,
        # which at this seed lies in the second block, not the first
        ens = SpectralEnsemble(np.linspace(-1e300, 1e300, 5), np.full(5, 0.5e-300))
        n, times = 2 * MC_BLOCK + 3, [0.0, 1e10]
        draws = sample_frequencies(ens, n, 3)
        assert np.argmax(np.abs(draws)) // MC_BLOCK == 1
        with pytest.raises(ValueError) as whole:
            require_finite_phases(draws, 1e10)
        for estimate in (lambda: sampled_coherence(ens, n, 3, times),
                         lambda: mc_coherence(draws, times)):
            with pytest.raises(ValueError, match="not representable") as raised:
                estimate()
            assert str(raised.value) == str(whole.value)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            sampled_coherence(gaussian_spectral(), 0, 1, [1.0])
        with pytest.raises(ValueError, match="at least one sample"):
            mc_coherence(np.array([]), [1.0])

    def test_memory_holds_one_block(self):
        ens, times = gaussian_spectral(), np.linspace(0.0, 10.0, 21)
        peaks = []
        for n in (1 << 17, 1 << 20):
            tracemalloc.start()
            try:
                sampled_coherence(ens, n, 5, times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all 2^20 draws alone would take 8 MiB
        assert peaks[1] <= 5 << 20
        assert abs(peaks[1] - peaks[0]) <= 1 << 18


class TestDilation:
    def test_large_couplings_are_centered(self):
        # the mean Hamiltonian 0.3 J sigma_x / 2 rounds by ~J eps: more than an absolute 1e-10
        ens = cnot_ensemble(0.3, 1e10)
        times = [0.0, 1e-10, 3e-10]
        reduced, classical = joint_evolve_reduce(dilate(ens), PLUS, times)
        assert classical
        for got, want in zip(reduced, he_average(ens, PLUS, times)):
            assert trace_distance(got, want) < 1e-12

    def test_phase_past_the_float_range_raises(self):
        with pytest.raises(ValueError, match="not representable"):
            joint_evolve_reduce(dilate(cnot_ensemble(0.5, 1e308)), PLUS, [0.0, 10.0])

    def test_single_member(self):
        ens = HamiltonianEnsemble(np.array([1.0]), (HermitianOperator(PAULI_Z),))
        dil = dilate(ens)
        assert dil.env_dim == 1
        assert np.allclose(dil.joint_hamiltonian().matrix, PAULI_Z, atol=1e-14)

    def test_two_member_block_assembly(self):
        # oracle: assemble the 4x4 joint Hamiltonian by direct Kronecker products
        h1 = HermitianOperator(0.5 * PAULI_Z)
        h2 = HermitianOperator(-0.5 * PAULI_Z)
        ens = HamiltonianEnsemble(np.array([0.25, 0.75]), (h1, h2))
        dil = dilate(ens)
        expected = np.kron(h1.matrix, np.diag([1.0, 0.0])) \
            + np.kron(h2.matrix, np.diag([0.0, 1.0]))
        assert np.max(np.abs(dil.joint_hamiltonian().matrix - expected)) < 1e-14

    def test_coupling_past_the_float_range_raises(self):
        # H_2 - Hbar = -1.8 * 1.7e308 overflows; the members and their mean are finite
        h = HermitianOperator(np.diag([1.7e308, -1.7e308]).astype(complex))
        ens = HamiltonianEnsemble(np.array([0.9, 0.1]), (h, HermitianOperator(-h.matrix)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError,
                               match="a coupling H_j - Hbar lies outside the float range"):
                dilate(ens).couplings
        assert caught == []

    def test_couplings_are_centered(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            ens = random_qubit_ensemble(rng, int(rng.integers(2, 8)))
            dil = dilate(ens)
            centered = sum(p * v.matrix for p, v in zip(dil.probs, dil.couplings))
            assert np.max(np.abs(centered)) < 1e-12

    def test_reduction_matches_average(self):
        rng = np.random.default_rng(31)
        ens = random_qubit_ensemble(rng, 4)
        times = np.linspace(0.0, 8.0, 9)
        reduced, classical = joint_evolve_reduce(dilate(ens), PLUS, times)
        assert classical
        for a, b in zip(reduced, he_average(ens, PLUS, times)):
            assert trace_distance(a, b) < 1e-12

    def test_zero_time_returns_input(self):
        rng = np.random.default_rng(6)
        ens = random_qubit_ensemble(rng, 3)
        reduced, _ = joint_evolve_reduce(dilate(ens), PLUS, [0.0])
        assert trace_distance(reduced[0], PLUS) < 1e-14

    def test_unitality(self):
        rng = np.random.default_rng(13)
        ens = random_qubit_ensemble(rng, 5)
        reduced, _ = joint_evolve_reduce(dilate(ens), maximally_mixed(2), [1.7])
        assert trace_distance(reduced[0], maximally_mixed(2)) < 1e-12


class TestCnot:
    def test_full_weight_is_pure_rotation(self):
        t, j = 0.8, 1.4
        got = cnot_mixture(1.0, j, t, PLUS)
        direct = unitary_orbit(PLUS, HermitianOperator(0.5 * j * PAULI_X), t)
        assert trace_distance(got, direct) < 1e-14

    def test_zero_weight_is_identity(self):
        assert trace_distance(cnot_mixture(0.0, 2.0, 5.0, PLUS), PLUS) < 1e-14

    def test_half_period_conjugation(self):
        # at t = pi/J the rotation is -i sigma_x; the global phase cancels
        j, a = 1.7, 0.35
        rho0 = pure_state([1.0, 0.0])
        got = cnot_mixture(a, j, np.pi / j, rho0)
        expected = a * (PAULI_X @ rho0.matrix @ PAULI_X) + (1 - a) * rho0.matrix
        assert np.max(np.abs(got.matrix - expected)) < 1e-12

    def test_matches_ensemble_average(self):
        a, j, t = 0.6, 2.2, 1.1
        ens = cnot_ensemble(a, j)
        assert trace_distance(cnot_mixture(a, j, t, PLUS), he_average(ens, PLUS, [t])[0]) < 1e-14

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            cnot_mixture(1.2, 1.0, 0.1, PLUS)
