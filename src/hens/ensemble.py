"""Hamiltonian ensembles, their averaged dynamics, and the classical dilation.

An ensemble is a probability-weighted collection of Hamiltonians; the averaged
state evolves by the mixture of the individual unitary orbits.  The dilation
builds an explicit system+environment model whose reduced dynamics reproduces
that average using only classically correlated joint states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qdyn import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    partial_trace,
    tensor,
    unitary_at,
)

PROB_TOL = 1e-10
MASS_TOL = 1e-8
NEGATIVE_TOL = 1e-6  # deeper spectral weight dips are negativity, shallower ones noise


@dataclass(frozen=True)
class HamiltonianEnsemble:
    """Weighted collection {(p_j, H_j)} over a common dimension."""

    probs: np.ndarray
    hamiltonians: tuple[HermitianOperator, ...]

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        hs = tuple(self.hamiltonians)
        if p.ndim != 1 or len(hs) != p.size or p.size == 0:
            raise ValueError("probabilities and Hamiltonians must pair up")
        if np.min(p) < 0.0:
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > PROB_TOL:
            raise ValueError("probabilities do not sum to 1")
        dims = {h.dim for h in hs}
        if len(dims) != 1:
            raise DimensionError("ensemble members have mixed dimensions")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "hamiltonians", hs)

    @property
    def dim(self) -> int:
        return self.hamiltonians[0].dim

    @property
    def size(self) -> int:
        return self.probs.size

    def mean_hamiltonian(self) -> HermitianOperator:
        m = sum(p * h.matrix for p, h in zip(self.probs, self.hamiltonians))
        return HermitianOperator(m)


def require_uniform_grid(omega: np.ndarray) -> None:
    """Raise ValueError unless omega is a uniform increasing 1-d grid of two or more points."""
    if omega.ndim != 1 or omega.size < 2:
        raise ValueError("omega grid must be a 1-d array of at least two points")
    d = np.diff(omega)
    if np.min(d) <= 0 or np.max(np.abs(d - d[0])) > 1e-9 * max(abs(d[0]), 1.0):
        raise ValueError("omega grid must be uniform and increasing")


@dataclass(frozen=True)
class SpectralEnsemble:
    """Qubit spectral disorder: weights p(omega) over generators omega*sigma_z/2.

    The weight array is renormalized to exact unit trapezoid mass at
    construction; inputs off by more than 1e-8 are rejected.  Dips shallower
    than 1e-6 (inverse-transform noise) are clipped to zero; anything deeper
    is genuine negativity and is rejected.
    """

    omega: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != om.shape:
            raise ValueError("omega grid and weights must be matching 1-d arrays")
        require_uniform_grid(om)
        if np.min(w) < -NEGATIVE_TOL:
            raise ValueError("negative weights")
        mass = float(np.trapezoid(w, om))
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError("weights are not normalized to unit mass")
        w = np.clip(w, 0.0, None) / mass
        om.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "omega", om)
        object.__setattr__(self, "weights", w)

    @property
    def domega(self) -> float:
        return float(self.omega[1] - self.omega[0])

    def cdf(self) -> np.ndarray:
        """Piecewise-linear trapezoid CDF on the grid points, forced to end at 1."""
        inc = 0.5 * (self.weights[1:] + self.weights[:-1]) * self.domega
        c = np.concatenate([[0.0], np.cumsum(inc)])
        return c / c[-1]

    def discretize(self, n_members: int) -> HamiltonianEnsemble:
        """Finite ensemble over n bins covering all but <1e-6 of the mass.

        Per-bin probability by the trapezoid rule; each bin is represented by
        its midpoint generator omega_mid * sigma_z / 2.
        """
        if n_members < 1:
            raise ValueError("need at least one member")
        c = self.cdf()
        lo = float(np.interp(0.5e-6, c, self.omega))
        hi = float(np.interp(1.0 - 0.5e-6, c, self.omega))
        edges = np.linspace(lo, hi, n_members + 1)
        cum = np.interp(edges, self.omega, c)
        probs = np.diff(cum)
        probs = probs / probs.sum()
        mids = 0.5 * (edges[1:] + edges[:-1])
        hams = tuple(HermitianOperator(0.5 * om * PAULI_Z) for om in mids)
        return HamiltonianEnsemble(probs, hams)


def he_average(ens: HamiltonianEnsemble, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Mixture of unitary orbits: sum_j p_j U_j rho0 U_j^dagger."""
    if rho0.dim != ens.dim:
        raise DimensionError("state and ensemble dimensions differ")
    out = np.zeros((ens.dim, ens.dim), dtype=complex)
    for p, h in zip(ens.probs, ens.hamiltonians):
        u = unitary_at(h, t)
        out += p * (u @ rho0.matrix @ u.conj().T)
    return DensityMatrix(0.5 * (out + out.conj().T))


def _coherence_factor(omega: np.ndarray, weights: np.ndarray, t: float) -> complex:
    return complex(np.trapezoid(weights * np.exp(1j * omega * t), omega))


def dephase_qubit(rho0: DensityMatrix, factor: complex) -> DensityMatrix:
    """Scale the qubit coherences: rho[1,0] by factor, rho[0,1] by its conjugate."""
    if rho0.dim != 2:
        raise DimensionError("qubit state expected")
    m = rho0.matrix.copy()
    m[1, 0] *= factor
    m[0, 1] *= np.conj(factor)
    return DensityMatrix(0.5 * (m + m.conj().T))


def spectral_average(ens: SpectralEnsemble, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Averaged qubit state under spectral disorder (populations untouched)."""
    return dephase_qubit(rho0, _coherence_factor(ens.omega, ens.weights, t))


def sample_frequencies(ens, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws from ``ens.cdf()``, chunked into seeded substreams.

    Accepts a SpectralEnsemble or a raw (omega, weights) pair, converted
    through SpectralEnsemble; a pair it rejects raises ValueError("not a
    probability distribution - cannot sample (<its reason>)").
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not isinstance(ens, SpectralEnsemble):
        try:
            ens = SpectralEnsemble(*ens)
        except ValueError as exc:
            raise ValueError(f"not a probability distribution - cannot sample ({exc})") from None
    omega, domega, cdf = ens.omega, ens.domega, ens.cdf()

    chunk = 1 << 16
    n_chunks = (n + chunk - 1) // chunk
    children = np.random.SeedSequence(seed).spawn(n_chunks)

    def draw(i):
        m = chunk if (i + 1) * chunk <= n else n - i * chunk
        u = np.random.default_rng(children[i]).random(m)
        # left edge on ties / flat CDF runs
        idx = np.clip(np.searchsorted(cdf, u, side="left"), 1, cdf.size - 1)
        seg = cdf[idx] - cdf[idx - 1]
        frac = np.where(seg > 0, (u - cdf[idx - 1]) / np.where(seg > 0, seg, 1.0), 0.0)
        return omega[idx - 1] + frac * domega

    return np.concatenate([draw(i) for i in range(n_chunks)])


def mc_average(ens, rho0: DensityMatrix, t: float, n: int, seed: int):
    """Monte Carlo estimate of the spectral average.

    Returns (state, stderr) where stderr is the standard error of the sampled
    coherence factor. Deterministic for a fixed seed.
    """
    zbar, stderr = mc_coherence(sample_frequencies(ens, n, seed), t)
    return dephase_qubit(rho0, zbar), stderr


def mc_coherence(draws: np.ndarray, t: float) -> tuple[complex, float]:
    """Sample mean of e^{i w t} over the drawn frequencies, and its standard error."""
    n = draws.size
    ph = np.exp(1j * draws * t)
    var = float(np.var(ph.real, ddof=1) + np.var(ph.imag, ddof=1)) if n > 1 else 0.0
    return complex(ph.mean()), float(np.sqrt(var / n))


def _env_coherence(matrix: np.ndarray, d: int, env_dim: int) -> float:
    """Largest |entry| of the environment-off-diagonal blocks of a (d*m)x(d*m) matrix.

    Zero exactly when the (system, env) operator is classically correlated.
    """
    mags = np.abs(matrix.reshape(d, env_dim, d, env_dim)).max(axis=(0, 2))
    np.fill_diagonal(mags, 0.0)
    return float(mags.max())


@dataclass(frozen=True)
class Dilation:
    """Explicit classical system+environment model reproducing an ensemble average."""

    env_dim: int
    h_system: HermitianOperator
    couplings: tuple[HermitianOperator, ...] = field(repr=False)
    env_state: DensityMatrix
    h_joint: HermitianOperator = field(repr=False)
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.h_system.dim
        centered = sum(p * v.matrix for p, v in zip(self.probs, self.couplings))
        if float(np.max(np.abs(centered))) > PROB_TOL:
            raise ValueError("couplings are not centered")
        if _env_coherence(self.h_joint.matrix, d, self.env_dim) > PROB_TOL:
            raise ValueError("joint Hamiltonian is not environment-diagonal")

    def joint_initial(self, rho0: DensityMatrix) -> DensityMatrix:
        return tensor(rho0, self.env_state)


def dilate(ens: HamiltonianEnsemble) -> Dilation:
    """Build the dilation: H_SI = sum_j (Hbar + V_j) (x) |j><j|, env populations p_j."""
    d = ens.dim
    m = ens.size
    hbar = ens.mean_hamiltonian()
    couplings = tuple(HermitianOperator(h.matrix - hbar.matrix) for h in ens.hamiltonians)
    env_state = DensityMatrix(np.diag(ens.probs).astype(complex))
    joint = np.zeros((d, m, d, m), dtype=complex)
    j = np.arange(m)
    joint[:, j, :, j] = [h.matrix for h in ens.hamiltonians]
    return Dilation(
        env_dim=m,
        h_system=hbar,
        couplings=couplings,
        env_state=env_state,
        h_joint=HermitianOperator(joint.reshape(d * m, d * m)),
        probs=ens.probs,
    )


def joint_evolve_reduce(dil: Dilation, rho0: DensityMatrix, t: float):
    """Evolve rho0 (x) rho_E under the joint Hamiltonian and trace out the environment.

    Returns (reduced state, classical_ok); classical_ok is True when every
    environment-off-diagonal block of the joint state stays below 1e-10.
    """
    d = dil.h_system.dim
    if rho0.dim != d:
        raise DimensionError("state dimension differs from the dilation system")
    joint0 = dil.joint_initial(rho0)
    u = unitary_at(dil.h_joint, t)
    jt = u @ joint0.matrix @ u.conj().T
    jt = 0.5 * (jt + jt.conj().T)
    reduced = partial_trace(DensityMatrix(jt), (d, dil.env_dim), keep="s")
    return reduced, _env_coherence(jt, d, dil.env_dim) <= 1e-10


def cnot_mixture(a: float, j_coupling: float, t: float, rho0: DensityMatrix) -> DensityMatrix:
    """Target-qubit state of a CNOT controlled by a classical mixture.

    a * U_x rho0 U_x^dagger + (1 - a) * rho0 with U_x = exp(-i J sigma_x t / 2);
    the ensemble picture is {(a, J sigma_x / 2), (1 - a, 0)}.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if rho0.dim != 2:
        raise DimensionError("qubit state expected")
    u = unitary_at(HermitianOperator(0.5 * j_coupling * PAULI_X), t)
    out = a * (u @ rho0.matrix @ u.conj().T) + (1.0 - a) * rho0.matrix
    return DensityMatrix(0.5 * (out + out.conj().T))


def cnot_ensemble(a: float, j_coupling: float) -> HamiltonianEnsemble:
    """The two-member ensemble realized by the CNOT construction."""
    return HamiltonianEnsemble(
        np.array([a, 1.0 - a]),
        (
            HermitianOperator(0.5 * j_coupling * PAULI_X),
            HermitianOperator(np.zeros((2, 2), dtype=complex)),
        ),
    )
