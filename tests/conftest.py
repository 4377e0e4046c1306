import numpy as np
import pytest


@pytest.fixture
def ohmic_pair():
    """Closed-form (exponent, drift) of the Ohmic extended model (omega_c = 1, T = 0) on a grid:
    Phi(t) = 2 ln(1 + t^2) and int 4J/w^2 (w t - sin w t) dw = 4 (t - arctan t)."""
    return lambda grid: (2.0 * np.log1p(grid * grid), 4.0 * (grid - np.arctan(grid)))
