import numpy as np
import pytest

from hens.qdyn import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    PAULI_Z,
    maximally_mixed,
    partial_trace,
    pure_state,
    tensor,
    trace_distance,
    unitary_at,
)


def unitary_orbit(rho, h, t):
    """U rho U^dagger with U = exp(-i h t) from ``unitary_at``."""
    u = unitary_at(h, t)
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def purity(rho):
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def random_state(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(0.5 * (a + a.conj().T))


class TestValidation:
    def test_rejects_non_hermitian_state(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian_operator(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_entries(self, bad):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            HermitianOperator(m)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(m)

    def test_matrices_are_frozen(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


class TestTensor:
    def test_identity_times_identity(self):
        i2 = HermitianOperator(np.eye(2, dtype=complex))
        assert np.array_equal(tensor(i2, i2).matrix, np.eye(4))

    def test_sigma_z_with_projector(self):
        sz = HermitianOperator(PAULI_Z)
        p0 = HermitianOperator(np.diag([1.0, 0.0]).astype(complex))
        expected = np.diag([1.0, 0.0, -1.0, 0.0])
        assert np.allclose(tensor(sz, p0).matrix, expected, atol=0)

    def test_trace_multiplicative_for_states(self):
        rng = np.random.default_rng(11)
        rho = random_state(rng, 3)
        sigma = random_state(rng, 2)
        joint = tensor(rho, sigma)
        assert abs(np.trace(joint.matrix) - 1.0) < 1e-12

    def test_mixed_kinds_rejected(self):
        with pytest.raises(TypeError):
            tensor(maximally_mixed(2), HermitianOperator(PAULI_Z))


def _pt_loops_se(m, d_s, d_e, keep):
    """Index-summation oracle, system-major loops."""
    if keep == "s":
        out = np.zeros((d_s, d_s), dtype=complex)
        for a in range(d_s):
            for b in range(d_s):
                for e in range(d_e):
                    out[a, b] += m[a * d_e + e, b * d_e + e]
    else:
        out = np.zeros((d_e, d_e), dtype=complex)
        for e in range(d_e):
            for f in range(d_e):
                for a in range(d_s):
                    out[e, f] += m[a * d_e + e, a * d_e + f]
    return out


def _pt_loops_es(m, d_s, d_e, keep):
    """Second oracle with the summation loop outermost (order swapped)."""
    if keep == "s":
        out = np.zeros((d_s, d_s), dtype=complex)
        for e in range(d_e):
            for a in range(d_s):
                for b in range(d_s):
                    out[a, b] += m[a * d_e + e, b * d_e + e]
    else:
        out = np.zeros((d_e, d_e), dtype=complex)
        for a in range(d_s):
            for e in range(d_e):
                for f in range(d_e):
                    out[e, f] += m[a * d_e + e, a * d_e + f]
    return out


class TestPartialTrace:
    def test_product_state_recovery(self):
        rng = np.random.default_rng(5)
        rho_s = random_state(rng, 2)
        rho_e = random_state(rng, 3)
        joint = tensor(rho_s, rho_e)
        assert trace_distance(partial_trace(joint, (2, 3), "s"), rho_s) < 1e-12
        assert trace_distance(partial_trace(joint, (2, 3), "e"), rho_e) < 1e-12

    def test_bell_state_reduces_to_mixed(self):
        bell = pure_state([1.0, 0.0, 0.0, 1.0])
        assert trace_distance(partial_trace(bell, (2, 2), "s"), maximally_mixed(2)) < 1e-12

    @pytest.mark.parametrize("keep", ["s", "e"])
    def test_against_loop_oracles(self, keep):
        rng = np.random.default_rng(42)
        for _ in range(5):
            rho = random_state(rng, 6)
            o1 = _pt_loops_se(rho.matrix, 2, 3, keep)
            o2 = _pt_loops_es(rho.matrix, 2, 3, keep)
            assert np.max(np.abs(o1 - o2)) < 1e-14
            got = partial_trace(rho, (2, 3), keep).matrix
            assert np.max(np.abs(got - o1)) < 1e-13
            assert abs(np.trace(got) - 1.0) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        rho, sigma = random_state(rng, 4), random_state(rng, 4)
        mix = DensityMatrix(0.3 * rho.matrix + 0.7 * sigma.matrix)
        direct = partial_trace(mix, (2, 2), "s").matrix
        combo = 0.3 * partial_trace(rho, (2, 2), "s").matrix \
            + 0.7 * partial_trace(sigma, (2, 2), "s").matrix
        assert np.max(np.abs(direct - combo)) < 1e-12

    def test_bad_factorization(self):
        with pytest.raises(DimensionError, match="bad factorization"):
            partial_trace(maximally_mixed(6), (4, 2), "s")


class TestEvolveUnitary:
    """Unitary evolution U rho U^dagger with U = ``unitary_at(h, t)``."""

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        rho = random_state(rng, 4)
        h = random_hermitian(rng, 4)
        assert trace_distance(unitary_orbit(rho, h, 0.0), rho) < 1e-14

    def test_qubit_closed_form(self):
        # oracle: U = diag(e^{-i w t/2}, e^{+i w t/2}) written out literally
        omega, t = 1.7, 0.9
        rng = np.random.default_rng(8)
        rho = random_state(rng, 2)
        u = np.diag([np.exp(-0.5j * omega * t), np.exp(0.5j * omega * t)])
        expected = u @ rho.matrix @ u.conj().T
        got = unitary_orbit(rho, HermitianOperator(0.5 * omega * PAULI_Z), t)
        assert np.max(np.abs(got.matrix - expected)) < 1e-14
        # the down-up coherence <1|rho|0> rotates by e^{+i w t}
        ratio = got.matrix[1, 0] / rho.matrix[1, 0]
        assert abs(ratio - np.exp(1j * omega * t)) < 1e-13

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_preserves_state_structure(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            rho = random_state(rng, dim)
            h = random_hermitian(rng, dim)
            t = rng.uniform(-5, 5)
            out = unitary_orbit(rho, h, t)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out.matrix)[0] > -1e-12
            assert abs(purity(out) - purity(rho)) < 1e-12


def loop_unitary(h, t):
    """Reference: U = exp(-i h t) at one time, from its own eigendecomposition of h."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def time_sets():
    """One, two and 21 times, holding t = 0 and a repeated time."""
    t = np.linspace(0.0, 10.0, 20)
    return [np.array([0.0]), np.array([2.5, 2.5]), np.append(t, t[7])]


class TestUnitaryStack:
    @pytest.mark.parametrize("dim", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", range(3), ids=["T1", "T2", "T21"])
    def test_stack_is_the_per_time_unitaries(self, dim, k):
        times = time_sets()[k]
        h = random_hermitian(np.random.default_rng(dim), dim)
        stack = unitary_at(h, times)
        assert stack.shape == (times.size, dim, dim)
        for t, u in zip(times, stack):
            assert np.array_equal(u, loop_unitary(h, t))

    def test_scalar_time_gives_one_matrix(self):
        h = random_hermitian(np.random.default_rng(3), 4)
        assert np.array_equal(unitary_at(h, 1.7), loop_unitary(h, 1.7))

    def test_phase_past_the_float_range_raises(self):
        # e^{-iwt} would turn the phase 5e307 * 10 = inf into NaN entries
        h = HermitianOperator(np.diag([5e307, -1.0]).astype(complex))
        with pytest.raises(ValueError, match=r"phase \|w t\| = 5e\+307 \* 10.0 is not repr"):
            unitary_at(h, [0.0, 10.0])


class TestTraceDistance:
    def test_zero_on_equal(self):
        rho = maximally_mixed(3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        up = pure_state([1.0, 0.0])
        down = pure_state([0.0, 1.0])
        assert abs(trace_distance(up, down) - 1.0) < 1e-14

    def test_triangle_inequality_and_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, b, c = (random_state(rng, 3) for _ in range(3))
            dab, dbc, dac = trace_distance(a, b), trace_distance(b, c), trace_distance(a, c)
            assert dac <= dab + dbc + 1e-12
            assert abs(dab - trace_distance(b, a)) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            trace_distance(maximally_mixed(2), maximally_mixed(3))
