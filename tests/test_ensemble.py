import numpy as np
import pytest

from hens.ensemble import (
    Dilation,
    HamiltonianEnsemble,
    SpectralEnsemble,
    _env_coherence,
    cnot_ensemble,
    cnot_mixture,
    dilate,
    he_average,
    joint_evolve_reduce,
    mc_average,
    sample_frequencies,
    spectral_average,
)
from hens.qdyn import (
    DensityMatrix,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    evolve_unitary,
    maximally_mixed,
    pure_state,
    trace_distance,
)

PLUS = pure_state([1.0, 1.0])


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


def gaussian_spectral(sigma=1.0, span=8.0, n=2001):
    om = np.linspace(-span * sigma, span * sigma, n)
    w = np.exp(-0.5 * (om / sigma) ** 2)
    return SpectralEnsemble(om, w / np.trapezoid(w, om))


class TestHamiltonianEnsemble:
    def test_requires_normalized_probabilities(self):
        h = HermitianOperator(PAULI_Z)
        with pytest.raises(ValueError):
            HamiltonianEnsemble(np.array([0.5, 0.4]), (h, h))
        with pytest.raises(ValueError):
            HamiltonianEnsemble(np.array([1.5, -0.5]), (h, h))

    def test_single_member_equals_unitary_orbit(self):
        rng = np.random.default_rng(2)
        ens = random_qubit_ensemble(rng, 1)
        for t in (0.0, 0.7, 3.1):
            direct = evolve_unitary(PLUS, ens.hamiltonians[0], t)
            assert trace_distance(he_average(ens, PLUS, t), direct) < 1e-14

    def test_two_member_dephasing_oracle(self):
        # oracle: sum the two literal 2x2 unitaries by hand
        omega_bar = 1.3
        ens = HamiltonianEnsemble(
            np.array([0.5, 0.5]),
            (HermitianOperator(0.5 * omega_bar * PAULI_Z),
             HermitianOperator(-0.5 * omega_bar * PAULI_Z)),
        )
        rng = np.random.default_rng(4)
        for t in rng.uniform(0, 10, 5):
            u_plus = np.diag([np.exp(-0.5j * omega_bar * t), np.exp(0.5j * omega_bar * t)])
            u_minus = u_plus.conj()
            expected = 0.5 * (u_plus @ PLUS.matrix @ u_plus.conj().T
                              + u_minus @ PLUS.matrix @ u_minus.conj().T)
            got = he_average(ens, PLUS, t)
            assert np.max(np.abs(got.matrix - expected)) < 1e-14
            assert abs(abs(got.matrix[1, 0])
                       - abs(PLUS.matrix[1, 0]) * abs(np.cos(omega_bar * t))) < 1e-14

    def test_unitality(self):
        rng = np.random.default_rng(9)
        ens = random_qubit_ensemble(rng, 5)
        for t in (0.3, 2.0):
            out = he_average(ens, maximally_mixed(2), t)
            assert trace_distance(out, maximally_mixed(2)) < 1e-12


class TestSpectralEnsemble:
    def test_validation(self):
        om = np.linspace(-1, 1, 11)
        w = np.ones(11) / 2.0
        SpectralEnsemble(om, w)
        dipped = w.copy()
        dipped[3] -= 0.6  # mass-neutral dip/bump pair
        dipped[7] += 0.6
        with pytest.raises(ValueError, match="negative"):
            SpectralEnsemble(om, dipped)
        with pytest.raises(ValueError, match="uniform"):
            SpectralEnsemble(np.concatenate([om[:5], om[6:]]), np.ones(10) / 2.0)
        with pytest.raises(ValueError, match="normalized"):
            SpectralEnsemble(om, 3.0 * w)

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
        direct = evolve_unitary(PLUS, HermitianOperator(0.5 * om[k] * PAULI_Z), t)
        assert trace_distance(got, direct) < 1e-12

    def test_gaussian_coherence_decay(self):
        # known transform pair, evaluated against the grid sum
        sigma = 0.8
        ens = gaussian_spectral(sigma=sigma)
        for t in (0.5, 1.0, 2.5):
            coh = spectral_average(ens, PLUS, t).matrix[1, 0]
            assert abs(abs(coh) / abs(PLUS.matrix[1, 0]) - np.exp(-0.5 * (sigma * t) ** 2)) < 1e-8

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
        assert np.array_equal(a.matrix, b.matrix)
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
        direct = evolve_unitary(PLUS, HermitianOperator(0.5 * omega0 * PAULI_Z), 2.0)
        assert trace_distance(got, direct) < 2e-3
        assert stderr < 1e-3

    def test_raw_pair_draws_as_its_ensemble(self):
        om = np.linspace(-8.0, 8.0, 2001)
        w = np.exp(-0.5 * om**2)
        pair = (om, w / np.trapezoid(w, om))
        assert np.array_equal(sample_frequencies(pair, 70000, seed=5),
                              sample_frequencies(SpectralEnsemble(*pair), 70000, seed=5))

    def test_negative_weights_rejected(self):
        om = np.linspace(-2, 2, 101)
        w = np.full(101, 0.3)
        w[50] = -0.5
        with pytest.raises(ValueError, match="cannot sample"):
            sample_frequencies((om, w), 10, seed=1)

    def test_five_sigma_consistency(self):
        # |coherence_MC - coherence_exact| <= 5 stderr in >= 99% of trials
        ens = gaussian_spectral()
        t = 1.3
        exact = spectral_average(ens, PLUS, t).matrix[1, 0]
        failures = 0
        trials = 120
        for seed in range(trials):
            got, stderr = mc_average(ens, PLUS, t, 1500, seed=seed)
            if abs(got.matrix[1, 0] - exact) > 5.0 * stderr:
                failures += 1
        assert failures <= max(1, trials // 100)


class TestDilation:
    def test_single_member(self):
        ens = HamiltonianEnsemble(np.array([1.0]), (HermitianOperator(PAULI_Z),))
        dil = dilate(ens)
        assert dil.env_dim == 1
        assert np.allclose(dil.h_joint.matrix, PAULI_Z, atol=1e-14)

    def test_two_member_block_assembly(self):
        # oracle: assemble the 4x4 joint Hamiltonian by direct Kronecker products
        h1 = HermitianOperator(0.5 * PAULI_Z)
        h2 = HermitianOperator(-0.5 * PAULI_Z)
        ens = HamiltonianEnsemble(np.array([0.25, 0.75]), (h1, h2))
        dil = dilate(ens)
        expected = np.kron(h1.matrix, np.diag([1.0, 0.0])) \
            + np.kron(h2.matrix, np.diag([0.0, 1.0]))
        assert np.max(np.abs(dil.h_joint.matrix - expected)) < 1e-14

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
        dil = dilate(ens)
        for t in np.linspace(0.0, 8.0, 9):
            reduced, classical = joint_evolve_reduce(dil, PLUS, t)
            assert classical
            assert trace_distance(reduced, he_average(ens, PLUS, t)) < 1e-12

    def test_zero_time_returns_input(self):
        rng = np.random.default_rng(6)
        ens = random_qubit_ensemble(rng, 3)
        reduced, _ = joint_evolve_reduce(dilate(ens), PLUS, 0.0)
        assert trace_distance(reduced, PLUS) < 1e-14

    def test_env_coherence_matches_loop_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for d, m in ((1, 1), (2, 1), (1, 5), (2, 2), (3, 4), (2, 64)):
            a = rng.normal(size=(d * m, d * m)) + 1j * rng.normal(size=(d * m, d * m))
            rho = a @ a.conj().T
            joint = DensityMatrix(rho / np.trace(rho)).matrix
            assert _env_coherence(joint, d, m) == loop_env_coherence(joint, d, m)
        ens = random_qubit_ensemble(rng, 6)
        joint = dilate(ens).h_joint.matrix
        assert _env_coherence(joint, 2, 6) == loop_env_coherence(joint, 2, 6) == 0.0

    def test_rejects_non_classical_construction(self):
        ens = random_qubit_ensemble(np.random.default_rng(17), 3)
        dil = dilate(ens)
        fields = dict(env_dim=dil.env_dim, h_system=dil.h_system, couplings=dil.couplings,
                      env_state=dil.env_state, h_joint=dil.h_joint, probs=dil.probs)
        Dilation(**fields)
        shifted = tuple(HermitianOperator(v.matrix + 0.1 * PAULI_X) for v in dil.couplings)
        with pytest.raises(ValueError, match="centered"):
            Dilation(**{**fields, "couplings": shifted})
        # an environment flip term couples the bins: not environment-diagonal
        flip = np.zeros((3, 3))
        flip[0, 1] = flip[1, 0] = 1e-3
        h_joint = HermitianOperator(dil.h_joint.matrix + np.kron(PAULI_Z, flip))
        with pytest.raises(ValueError, match="environment-diagonal"):
            Dilation(**{**fields, "h_joint": h_joint})

    def test_unitality(self):
        rng = np.random.default_rng(13)
        ens = random_qubit_ensemble(rng, 5)
        reduced, _ = joint_evolve_reduce(dilate(ens), maximally_mixed(2), 1.7)
        assert trace_distance(reduced, maximally_mixed(2)) < 1e-12


class TestCnot:
    def test_full_weight_is_pure_rotation(self):
        t, j = 0.8, 1.4
        got = cnot_mixture(1.0, j, t, PLUS)
        direct = evolve_unitary(PLUS, HermitianOperator(0.5 * j * PAULI_X), t)
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
        assert trace_distance(cnot_mixture(a, j, t, PLUS), he_average(ens, PLUS, t)) < 1e-14

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            cnot_mixture(1.2, 1.0, 0.1, PLUS)
