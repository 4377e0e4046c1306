"""Two qubits on a common bath: dynamics no probability distribution can simulate.

Add a second qubit to the same Ohmic environment, coupled with a relative
phase.  The first qubit still dephases purely, but the factor picks up a
nonlinear-in-t phase angle.  The recovered "distribution" then develops
negative regions, and the Gram-matrix positive-definiteness test fails: no
ensemble of isolated qubits reproduces this evolution.
"""

import numpy as np

from hens import bochner_search, bochner_witness, inverse_ft, ohmic_series, time_grid

grid = time_grid(t_max=200.0, n=1 << 16)

print("recovered quasi-distributions of the extended model (wc = 1, T = 0)")
for phase in (np.pi / 4, 5 * np.pi / 4, np.pi / 2):
    dist = inverse_ft(ohmic_series(1.0, grid, phase=phase))
    print(f"  relative phase {phase:.4f}: min = {dist.min_value:+.4e}, "
          f"negativity = {dist.negativity:.4e}, norm = {dist.norm:.9f}")

# The negativity has an operational counterpart: some set of probe times
# makes the Hermitian matrix [phi(t_j - t_k)] indefinite.
conv = ohmic_series(1.0, grid)
ext = ohmic_series(1.0, grid, phase=np.pi / 2)

rng = np.random.default_rng(17)
worst = np.inf
for _ in range(200):
    times = grid[conv.n // 2 + rng.integers(0, int(50.0 / conv.dt), 6)]
    worst = min(worst, bochner_witness(conv, times).min_eigenvalue)
print(f"\nconventional factor: Gram floor over 200 random time sets = {worst:+.2e}")
print("  (never negative - the factor is positive definite)")

report, used = bochner_search(ext, restarts=10000, seed=7, stop_below=-1e-3)
print(f"extended factor:     search found min eigenvalue {report.min_eigenvalue:+.2e}")
print(f"  after {used} restarts, at times {np.sort(report.times).round(3)}")
print("\nnegativity and the indefinite Gram matrix witness the same thing:")
print("the two-qubit bath correlations have no classical stand-in.")
