"""One ensemble, four equivalent evolutions.

The average over a Hamiltonian ensemble can be produced four ways: by summing
the unitary orbits directly, by embedding the ensemble in an explicit
system+environment model (with only classical correlations) and tracing the
environment back out, by Monte Carlo sampling, and by integrating the
time-local master equation built from the dephasing factor.
"""

import numpy as np

from hens import (
    HamiltonianEnsemble,
    HermitianOperator,
    SpectralEnsemble,
    cnot_mixture,
    dilate,
    forward_ft,
    he_average,
    joint_evolve_reduce,
    master_coeffs,
    propagate_master,
    pure_state,
    sample_frequencies,
    time_grid,
    trace_distance,
)
from hens.ensemble import mc_coherence
from hens.inversion import conjugate_frequency_grid

plus = pure_state([1.0, 1.0])
rng = np.random.default_rng(1)

# --- a random five-member ensemble and its classical dilation -------------
hams = []
for _ in range(5):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    hams.append(HermitianOperator(0.5 * (a + a.conj().T)))
p = rng.uniform(0.1, 1.0, 5)
ens = HamiltonianEnsemble(p / p.sum(), tuple(hams))
dil = dilate(ens)

print("ensemble average vs dilation-reduced dynamics (5 random members):")
for t in (0.5, 2.0, 8.0):
    [direct] = he_average(ens, plus, [t])
    [reduced], classical = joint_evolve_reduce(dil, plus, [t])
    print(f"  t = {t:4.1f}: trace distance = {trace_distance(direct, reduced):.2e}, "
          f"joint state classically correlated: {classical}")

# --- spectral disorder: exact, sampled, and master-equation routes --------
# the table lives on the time grid's conjugate frequencies, so the transform
# to phi(t) is one exact FFT
grid = time_grid(64.0, 1 << 14)
omega = conjugate_frequency_grid(grid.size, grid[1] - grid[0])
weights = (1.0 + np.abs(omega)) * np.exp(-np.abs(omega)) / 4.0
spec = SpectralEnsemble(omega, weights / np.trapezoid(weights, omega))

series = forward_ft((spec.omega, spec.weights), grid)
t_all, eps, gam = master_coeffs(series)  # at t = j dt, from t = 0
sub = slice(0, 2 * 1024 + 1)
t_out, factors = propagate_master(t_all[sub], eps[sub], gam[sub])

# the output times are every second grid point: the exact factor is the series' own
# value there, phi(2k dt) in its t >= 0 half
ks = [0, 256, 1024]
exact = series.half[2 * np.array(ks)]
sampled, stderrs = mc_coherence(sample_frequencies(spec, 200000, seed=42), t_out[ks])
coh0 = abs(plus.matrix[1, 0])

print("\nspectral disorder, coherence |rho_du(t)| by three routes:")
print("  t        exact      monte carlo   master eq")
for i, k in enumerate(ks):
    print(f"  {t_out[k]:6.3f}   {coh0 * abs(exact[i]):.6f}   {coh0 * abs(sampled[i]):.6f}      "
          f"{coh0 * abs(factors[k]):.6f}   (mc stderr {stderrs[i]:.1e})")

# --- the CNOT mixture, the smallest ensemble of all -----------------------
print("\ncontrol qubit in a classical mixture acting through a CNOT:")
rho0 = pure_state([1.0, 0.0])
for a in (0.0, 0.3, 1.0):
    final = cnot_mixture(a, 1.0, np.pi, rho0)
    print(f"  mixing weight a = {a:3.1f}: populations -> "
          f"({final.matrix[0, 0].real:.2f}, {final.matrix[1, 1].real:.2f})")
print("at t = pi/J the rotation is a full bit flip; the populations mix by a.")
