import numpy as np
import pytest


@pytest.fixture
def ohmic_pair():
    """Closed-form (exponent, drift) of the Ohmic extended model (omega_c = 1, T = 0) on the
    half layout of a grid, t = grid[n/2:] then grid[0]: Phi(t) = 2 ln(1 + t^2) and
    int 4J/w^2 (w t - sin w t) dw = 4 (t - arctan t)."""
    def pair(grid):
        t = np.append(grid[grid.size // 2:], grid[0])
        return 2.0 * np.log1p(t * t), 4.0 * (t - np.arctan(t))
    return pair


@pytest.fixture
def exp_sizes(monkeypatch):
    """The sizes of the arrays that ``np.exp`` is called on from now on, in call order."""
    sizes = []
    exp = np.exp

    def counting_exp(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    return sizes
