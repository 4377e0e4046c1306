"""Qubit dephasing from an Ohmic bath, and the distribution that simulates it.

A qubit coupled to an Ohmic bath (J(w) = w e^{-w/wc}, T = 0) undergoes pure
dephasing: the coherence decays by the factor phi(t) = e^{-Phi(t)}.  The same
dynamics is reproduced exactly by an ensemble of isolated qubits whose level
splittings are drawn from a probability distribution p(w) - recovered here by
inverse Fourier transform of phi(t).
"""

import numpy as np

from hens import (
    SpectralDensityModel,
    decoherence_exponent,
    dephasing_conventional,
    inverse_ft,
    time_grid,
)

model = SpectralDensityModel.ohmic(omega_c=1.0)

# The decoherence exponent from a Filon-type rule (one sampling of the spectral
# density, exact Legendre moments on the oscillatory panels), next to the
# analytic closed form 2 ln(1 + wc^2 t^2) it must agree with.
print("decoherence exponent, quadrature vs closed form")
for t in (0.5, 1.0, 5.0, 20.0):
    quad = decoherence_exponent(model, t)
    exact = 2.0 * np.log1p(t * t)
    print(f"  t = {t:5.1f}:  {quad:.12f}   (analytic {exact:.12f})")

# Dephasing factor on a symmetric grid, then the simulating distribution.
grid = time_grid(t_max=200.0, n=1 << 16)
series = dephasing_conventional(model, omega0=0.0, grid=grid)
dist = inverse_ft(series)

exact = (1.0 + np.abs(dist.omega)) * np.exp(-np.abs(dist.omega)) / 4.0
window = np.abs(dist.omega) <= 10.0
print("\nrecovered distribution vs analytic (wc + |w|) e^{-|w|/wc} / (4 wc^2)")
print(f"  max deviation on |w| <= 10 : {np.max(np.abs(dist.values - exact)[window]):.2e}")
print(f"  norm                       : {dist.norm:.12f}")
print(f"  most negative value        : {dist.min_value:.2e}")
print(f"  negativity                 : {dist.negativity:.2e}")
print("\nno negativity: a legitimate probability distribution simulates this")
print("dynamics, so the open-system evolution is classical in this sense.")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(9, 3.2))
    mask = np.abs(grid) <= 10
    ax1.plot(grid[mask], series.full()[mask].real)
    ax1.set_xlabel("t")
    ax1.set_ylabel("Re phi(t)")
    for wc, color in ((1.0, "tab:blue"), (3.0, "tab:red")):
        g = time_grid(200.0 / wc, 1 << 16)
        d = inverse_ft(dephasing_conventional(SpectralDensityModel.ohmic(wc), 0.0, g))
        w = np.abs(d.omega) <= 10
        ax2.plot(d.omega[w], d.values[w], color=color, label=f"wc = {wc:g}")
    ax2.set_xlabel("omega")
    ax2.set_ylabel("p(omega)")
    ax2.legend()
    fig.tight_layout()
    fig.savefig("demo01_recovery.png", dpi=130)
    print("\nwrote demo01_recovery.png")
except ImportError:
    pass
