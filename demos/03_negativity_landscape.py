"""Where the extended model turns nonclassical, across coupling phases.

Sweep the relative coupling phase of the two-qubit model over [0, 2pi) and
record the negative part of the recovered distribution at every frequency.
The resulting landscape shows which phases admit no simulating ensemble and
where in frequency the obstruction sits.  One quadrature of the Ohmic bath
gives the pair (Phi, drift) that every phase's series is built from.
"""

import numpy as np

from hens import SpectralDensityModel, extended_exponents, negativity_landscape, time_grid

phases = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
grid = time_grid(t_max=200.0, n=1 << 16)
exponent, drift = extended_exponents(SpectralDensityModel.ohmic(1.0), grid)
omega, phases, cells = negativity_landscape(exponent, drift, phases, (-10.0, 10.0),
                                            grid[1] - grid[0])

per_phase = -np.trapezoid(np.minimum(cells, 0.0), omega, axis=0)
k_max = int(np.argmax(per_phase))
print(f"landscape: {cells.shape[0]} frequencies x {cells.shape[1]} phases")
print(f"deepest cell            : {cells.min():.4e}")
print(f"most negative phase     : {phases[k_max]:.4f} rad "
      f"(negativity {per_phase[k_max]:.4e})")
print(f"phases with no negativity: "
      f"{np.sum(per_phase < 1e-10)} of {phases.size}")

print("\nnegativity per phase (coarse):")
for k in range(0, 64, 8):
    bar = "#" * int(60 * per_phase[k] / per_phase.max())
    print(f"  phi = {phases[k]:5.3f}  {per_phase[k]:.3e}  {bar}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    im = ax.pcolormesh(phases, omega, cells, shading="nearest", cmap="Blues_r")
    ax.set_xlabel("coupling phase")
    ax.set_ylabel("omega")
    fig.colorbar(im, ax=ax, label="negative part of p(omega)")
    fig.tight_layout()
    fig.savefig("demo03_landscape.png", dpi=130)
    print("\nwrote demo03_landscape.png")
except ImportError:
    pass
