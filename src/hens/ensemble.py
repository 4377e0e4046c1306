"""Hamiltonian ensembles, their averaged dynamics, and the classical dilation.

An ensemble is a probability-weighted collection of Hamiltonians; the averaged
state evolves by the mixture of the individual unitary orbits.  The dilation
builds an explicit system+environment model whose reduced dynamics reproduces
that average using only classically correlated joint states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import SERIES_UNIT_TOL, uniform_step
from .qdyn import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    hermitized_states,
    partial_trace,  # noqa: F401  bench/spans.py wraps this name
    require_finite_phases,
    tensor,
    unitary_at,
)

PROB_TOL = 1e-10
MASS_TOL = 1e-8
NEGATIVE_TOL = 1e-6  # deeper spectral weight dips are negativity, shallower ones noise
MC_BLOCK = 1 << 16  # draws per sampler substream and per Monte Carlo estimator block
RESTEP = 128  # visited times between the exact restarts of _phase_walk


class SamplingError(ValueError):
    """Weights that are no probability distribution, so no ensemble can be sampled from
    them: the nonclassicality signal (the CLI exits 4)."""


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
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
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
    uniform_step(omega, "omega grid must be uniform and increasing")


@dataclass(frozen=True)
class SpectralEnsemble:
    """Qubit spectral disorder: weights p(omega) over generators omega*sigma_z/2.

    The weight array is renormalized to exact unit trapezoid mass at
    construction; inputs off by more than 1e-8 are rejected.  Dips shallower
    than 1e-6 (inverse-transform noise) are clipped to zero; anything deeper
    is genuine negativity and raises SamplingError.
    """

    omega: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=float).copy()
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != om.shape:
            raise ValueError("omega grid and weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(om)) and np.all(np.isfinite(w))):
            raise ValueError("omega grid and weights must be finite")
        require_uniform_grid(om)
        if np.min(w) < -NEGATIVE_TOL:
            raise SamplingError("not a probability distribution - cannot sample "
                                "(negative weights; a nonclassicality signal)")
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


def he_average(ens: HamiltonianEnsemble, rho0: DensityMatrix, times) -> list[DensityMatrix]:
    """Mixture of unitary orbits, sum_j p_j U_j rho0 U_j^dagger: one state per time."""
    if rho0.dim != ens.dim:
        raise DimensionError("state and ensemble dimensions differ")
    out = np.zeros((np.size(times), ens.dim, ens.dim), dtype=complex)
    for p, h in zip(ens.probs, ens.hamiltonians):
        u = unitary_at(h, times)
        out += p * (u @ rho0.matrix @ u.conj().swapaxes(1, 2))
    return hermitized_states(out)


def _phase_factors(w: np.ndarray, t: float) -> np.ndarray:
    """e^{i w t} for the array w: ``np.exp`` of the purely imaginary i w t, in place in
    one complex array of w's size.  These are the bits of ``np.exp(1j * w * t)`` but
    for the sign of a zero imaginary part, where w t is 0."""
    arg = np.zeros(w.size, dtype=complex)
    np.multiply(w, t, out=arg.imag)
    return np.exp(arg, out=arg)


def _phase_walk(w: np.ndarray, times: np.ndarray):
    """Yield (k, z), z = e^{i w times[k]}, at each time in stable sorted order (repeats
    are free); z is updated in place.  A phase w*gap past the float range raises ValueError.

    From t = 0, and again at every RESTEP-th time, z steps by z <- z * e^{iw*gap}, gap
    being the distance to the previous time.  The factors of the last two distinct gaps
    are kept; one is computed only when the gap is farther than np.spacing(t) from both:
    evenly spaced times cost one exponential per frequency and one more per RESTEP times.

    A kept gap is within spacing(t) of t - prev, which rounds, as does w*gap: a step adds
    at most 4|w| ulp(T) of phase, T = max|t|, and 4 eps from np.exp and the product.  So,
    with the rounding of w t in np.exp(1j * w * t), |z - np.exp(1j * w * t)| is at most
    K (4|w| ulp(T) + 4 eps), K = min(len(times), RESTEP).
    """
    # every |t|, and every gap between the sorted times, is at most this span
    require_finite_phases(w, float(times.max(initial=0.0)) - float(times.min(initial=0.0)))
    steps = []  # (gap, e^{iw*gap}) of the last two distinct gaps, the last used first
    for visited, k in enumerate(np.argsort(times, kind="stable")):
        if visited % RESTEP == 0:
            z, prev = np.ones(w.size, dtype=complex), 0.0
        t = times[k]
        gap = t - prev
        prev = t
        if gap:
            tol = np.spacing(abs(t))
            if not steps or abs(gap - steps[0][0]) > tol:
                if len(steps) == 2 and abs(gap - steps[1][0]) <= tol:
                    steps.reverse()
                else:
                    steps = [(gap, _phase_factors(w, gap)), *steps[:1]]
            z *= steps[0][1]
        yield k, z


def _coherence_factor(omega: np.ndarray, weights: np.ndarray, times) -> np.ndarray:
    """Trapezoid sum of weights * e^{i omega t} over the grid at each time.  A phase
    omega t past the float range raises ValueError.

    The real trapezoid weights a_k = c_k weights_k, c_k = (d_{k-1} + d_k)/2 with d the
    grid's steps (d_{-1} = d_{N-1} = 0), are formed once; each time is then
    ``(a * z).sum()``, numpy's pairwise sum (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2002, section 4.2), not a BLAS reduction, whose rounding
    would follow the BLAS thread count.  numpy sums N complex terms in leaves of at
    most 64, four running sums a part, halving above that, so a term meets at most
    D = ceil(log2 N) + 15 additions.  Each term a_k z_k carries three roundings, as
    does each of ``np.trapezoid``'s, so for the same phases z each result and
    ``np.trapezoid(weights * z, omega)`` lie within sqrt(2) gamma_{D+3} M of the exact
    sum, and within 2 sqrt(2) gamma_{D+3} M of each other: gamma_n = n u/(1 - n u), u
    the unit roundoff, M = sum_k c_k |weights_k| max|z| (M = 1 for the unit-mass
    weights of a SpectralEnsemble, up to the phase walk's error in z).
    """
    times = np.asarray(times, dtype=float)
    d = np.diff(omega)
    a = np.append(d, 0.0)
    a[1:] += d
    a *= 0.5
    a *= weights
    out = np.empty(times.size, dtype=complex)
    for k, z in _phase_walk(omega, times):
        out[k] = (a * z).sum()
    return out


def dephase_qubit(rho0: DensityMatrix, factors) -> list[DensityMatrix]:
    """Scale the qubit coherences, rho[1,0] by a factor and rho[0,1] by its conjugate:
    one state per factor.  A factor past unit modulus raises ValueError."""
    if rho0.dim != 2:
        raise DimensionError("qubit state expected")
    factors = np.asarray(factors, dtype=complex)
    if np.any(np.abs(factors) > 1.0 + SERIES_UNIT_TOL):
        raise ValueError("dephasing factor exceeds unit modulus")
    m = np.repeat(rho0.matrix[None], factors.size, axis=0)
    m[:, 1, 0] *= factors
    m[:, 0, 1] *= factors.conj()
    return hermitized_states(m)


def _cdf_index(cdf: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, keys, side="left")`` for ascending keys, from one merge.

    Only the points cdf[lo:hi], from the smallest key's index to the largest
    key's, can fall between two keys.  A point lies below every key past the
    keys at or under it, so the running sum of where the points land counts
    the points below each key.
    """
    lo, hi = np.searchsorted(cdf, keys[[0, -1]])
    landings = np.searchsorted(keys, cdf[lo:hi], side="right")
    idx = np.cumsum(np.bincount(landings, minlength=keys.size + 1)[:keys.size])
    idx += lo
    return idx


def _uniforms(streams: np.random.SeedSequence, size: int) -> np.ndarray:
    """``size`` uniforms on [0, 1) from the next substream spawned from ``streams``."""
    return np.random.default_rng(streams.spawn(1)[0]).random(size)


def _draws(ens: SpectralEnsemble, cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of the ascending uniforms ``u``, computed in place in ``u``.

    Their CDF indices come from one merge (``_cdf_index``), and each draw depends
    only on its own uniform, so the draws equal a per-draw ``searchsorted`` bit for
    bit.  Besides ``u`` the call holds three arrays of its size.
    """
    # left edge on ties / flat CDF runs; idx is the segment's left grid point
    idx = _cdf_index(cdf, u)
    np.clip(idx, 1, cdf.size - 1, out=idx)
    idx -= 1
    left = cdf[idx]
    seg = cdf[1:][idx]
    seg -= left
    u -= left
    # only the key 0.0 on a leading zero run reaches a flat segment, and its u - left is 0
    np.divide(u, seg, out=u, where=seg > 0)
    u *= ens.domega
    # idx is in range, so "clip" clips nothing; "raise" would copy through a buffer
    u += np.take(ens.omega, idx, out=left, mode="clip")
    return u


def sample_frequencies(ens: SpectralEnsemble, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF draws from ``ens.cdf()``, chunked into seeded substreams.

    Each MC_BLOCK substream's uniforms are sorted once (``np.argsort``), drawn by
    ``_draws`` and scattered back to the order the generator drew them in, which
    gives the same draws as searching each uniform on its own.

    ``ens`` is a SpectralEnsemble, whose construction already rejects a table
    that is not a probability distribution.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    cdf, streams = ens.cdf(), np.random.SeedSequence(seed)
    out = np.empty(n)  # before any draw: an n too large to hold fails here
    for start in range(0, n, MC_BLOCK):
        block = out[start:start + MC_BLOCK]
        u = _uniforms(streams, block.size)
        order = np.argsort(u)
        u = u[order]
        block[order] = _draws(ens, cdf, u)
    return out


def _coherence_estimates(blocks, times) -> tuple[np.ndarray, np.ndarray]:
    """``mc_coherence`` of the draws in all the arrays that ``blocks`` yields, taken one
    array at a time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    # every |t|, and every gap between the sorted times, is at most this span
    span = float(times.max(initial=0.0)) - float(times.min(initial=0.0))
    sums = np.zeros(times.size, dtype=complex)
    n, w_lo, w_hi = 0, 0.0, 0.0
    for w in blocks:
        n += w.size
        # the draws' extremes so far, reduced as require_finite_phases reduces them
        w_lo, w_hi = float(np.min(w, initial=w_lo)), float(np.max(w, initial=w_hi))
        # a phase past the float range raises below, once later blocks have
        # completed the max|w| that the error names
        if np.isfinite(max(w_hi, -w_lo) * span):
            for k, z in _phase_walk(w, times):
                sums[k] += z.sum()
    require_finite_phases((w_lo, w_hi), span)
    means = sums / n
    if n < 2:
        return means, np.zeros(times.size)
    var = np.maximum(n * (1.0 - (means.real ** 2 + means.imag ** 2)), 0.0) / (n - 1)
    return means, np.sqrt(var / n)


def mc_coherence(draws: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """Sample means of e^{iwt} over the drawn frequencies w at each time, and their stderrs.

    One pass over the draws, MC_BLOCK at a time, each block's phases z from one
    ``_phase_walk`` (its docstring gives their cost and their error).  Per time the
    mean is sum z / n.  Every z has unit modulus, so sum |z|^2 = n and the variance
    (sum |z|^2 - n|mean|^2)/(n - 1) is n(1 - |mean|^2)/(n - 1), floored at 0 (exactly
    0 at t = 0 and for n = 1).  Returns (means, stderrs) in the caller's order of
    times.  No draws, or a phase w t past the float range, raises ValueError.
    """
    draws = np.asarray(draws, dtype=float)
    if not draws.size:
        raise ValueError("need at least one sample")
    return _coherence_estimates(
        (draws[start:start + MC_BLOCK] for start in range(0, draws.size, MC_BLOCK)), times)


def sampled_coherence(ens: SpectralEnsemble, n: int, seed: int,
                      times) -> tuple[np.ndarray, np.ndarray]:
    """``mc_coherence`` of ``sample_frequencies(ens, n, seed)`` with each MC_BLOCK of
    draws sorted ascending, bit for bit, drawing and estimating one seeded MC_BLOCK
    substream at a time: it holds one block of draws whatever n is.

    A block's uniforms are sorted in place and drawn in that order: the sums of
    e^{iwt} ignore the order of the draws but for rounding, so the block is never
    put back in the generator's order.  The means are within the rounding of those
    sums of ``mc_coherence(sample_frequencies(ens, n, seed), times)``.  A phase w t
    past the float range raises the same ValueError, once every block is drawn.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    cdf, streams = ens.cdf(), np.random.SeedSequence(seed)

    def sorted_blocks():
        for start in range(0, n, MC_BLOCK):
            u = _uniforms(streams, min(MC_BLOCK, n - start))
            u.sort()
            yield _draws(ens, cdf, u)

    return _coherence_estimates(sorted_blocks(), times)


@dataclass(frozen=True)
class Dilation:
    """The classical dilation of an ensemble {(p_j, H_j)}: the joint Hamiltonian
    H_SI = sum_j (Hbar + V_j) (x) |j><j| with the environment in diag(p_j).

    It holds the dilated ensemble alone: its members are the pointer-state blocks
    H_j = Hbar + V_j, its probabilities the populations p_j.  So the joint Hamiltonian
    is environment-diagonal and the environment state diagonal by construction.  The
    mean Hamiltonian Hbar, the couplings V_j, the environment state and the dense joint
    forms are derived, each built when asked for.
    """

    ensemble: HamiltonianEnsemble

    @property
    def env_dim(self) -> int:
        return self.ensemble.size

    @property
    def probs(self) -> np.ndarray:
        return self.ensemble.probs

    @property
    def h_system(self) -> HermitianOperator:
        return self.ensemble.mean_hamiltonian()

    @property
    def couplings(self) -> tuple[HermitianOperator, ...]:
        hbar = self.h_system.matrix
        return tuple(HermitianOperator(h.matrix - hbar) for h in self.ensemble.hamiltonians)

    @property
    def env_state(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.probs).astype(complex))

    def joint_hamiltonian(self) -> HermitianOperator:
        """The dense (d m) x (d m) joint Hamiltonian, block H_j at environment state |j>."""
        d, m = self.ensemble.dim, self.env_dim
        joint = np.zeros((d, m, d, m), dtype=complex)
        j = np.arange(m)
        joint[:, j, :, j] = [h.matrix for h in self.ensemble.hamiltonians]
        return HermitianOperator(joint.reshape(d * m, d * m))

    def joint_initial(self, rho0: DensityMatrix) -> DensityMatrix:
        return tensor(rho0, self.env_state)


def dilate(ens: HamiltonianEnsemble) -> Dilation:
    """Build the dilation: H_SI = sum_j (Hbar + V_j) (x) |j><j|, env populations p_j."""
    return Dilation(ens)


def joint_evolve_reduce(dil: Dilation, rho0: DensityMatrix, times):
    """Evolve rho0 (x) rho_E under the joint Hamiltonian and trace out the environment.

    The joint Hamiltonian is environment-diagonal, so each pointer state |j> evolves
    alone under its block H_j and the reduced state is sum_j p_j U_j rho0 U_j^H:
    ``he_average`` of the dilated ensemble, bit for bit.  No joint state or joint
    Hamiltonian is formed.  Returns (one reduced state per time, classical_ok).
    A phase w t past the float range raises ValueError.

    classical_ok is True by construction: block (j, k) of J(t) is U_j J0_jk U_k^H, and
    J0 = rho0 (x) rho_E is environment-diagonal because rho_E is diagonal, so J(t) is
    environment-diagonal, that is classically correlated, at every t.
    """
    if rho0.dim != dil.ensemble.dim:
        raise DimensionError("state dimension differs from the dilation system")
    return he_average(dil.ensemble, rho0, times), True


def cnot_mixture(a: float, j_coupling: float, t: float, rho0: DensityMatrix) -> DensityMatrix:
    """Target-qubit state of a CNOT controlled by a classical mixture, at one time t.

    a * U_x rho0 U_x^dagger + (1 - a) * rho0 with U_x = exp(-i J sigma_x t / 2);
    the ensemble picture is {(a, J sigma_x / 2), (1 - a, 0)}.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    if rho0.dim != 2:
        raise DimensionError("qubit state expected")
    u = unitary_at(HermitianOperator(0.5 * j_coupling * PAULI_X), [t])[0]
    out = a * (u @ rho0.matrix @ u.conj().T) + (1.0 - a) * rho0.matrix
    return hermitized_states(out)[0]


def cnot_ensemble(a: float, j_coupling: float) -> HamiltonianEnsemble:
    """The two-member ensemble realized by the CNOT construction."""
    return HamiltonianEnsemble(
        np.array([a, 1.0 - a]),
        (
            HermitianOperator(0.5 * j_coupling * PAULI_X),
            HermitianOperator(np.zeros((2, 2), dtype=complex)),
        ),
    )
