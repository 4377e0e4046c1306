"""Hamiltonian-ensemble simulation of qubit dephasing and its nonclassicality.

The library evolves open-qubit dephasing dynamics three equivalent ways
(ensemble averages, an explicit classical dilation, a time-local master
equation), recovers the simulating (quasi-)probability distribution from a
dephasing factor by Fourier inversion, and witnesses nonclassicality through
negativity of that distribution and failure of positive definiteness.
"""

from .qdyn import (
    DensityMatrix,
    DimensionError,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    maximally_mixed,
    partial_trace,
    pure_state,
    tensor,
    trace_distance,
)
from .ensemble import (
    Dilation,
    HamiltonianEnsemble,
    SamplingError,
    SpectralEnsemble,
    cnot_ensemble,
    cnot_mixture,
    dilate,
    he_average,
    joint_evolve_reduce,
    sample_frequencies,
)
from .dephasing import (
    CoefficientSingularityError,
    DephasingSeries,
    NumericalError,
    SpectralDensityModel,
    decoherence_exponent,
    dephasing_conventional,
    dephasing_extended,
    extended_exponents,
    extended_series,
    master_coeffs,
    ohmic_series,
    propagate_master,
    time_grid,
)
from .inversion import (
    BochnerReport,
    QuasiDistribution,
    bochner_search,
    bochner_witness,
    forward_ft,
    inverse_ft,
    negativity_landscape,
    roundtrip_error,
)

__version__ = "0.1.0"

__all__ = [
    "BochnerReport",
    "CoefficientSingularityError",
    "DensityMatrix",
    "DephasingSeries",
    "Dilation",
    "DimensionError",
    "HamiltonianEnsemble",
    "HermitianOperator",
    "NumericalError",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "QuasiDistribution",
    "SamplingError",
    "SpectralDensityModel",
    "SpectralEnsemble",
    "bochner_search",
    "bochner_witness",
    "cnot_ensemble",
    "cnot_mixture",
    "decoherence_exponent",
    "dephasing_conventional",
    "dephasing_extended",
    "dilate",
    "extended_exponents",
    "extended_series",
    "forward_ft",
    "he_average",
    "inverse_ft",
    "joint_evolve_reduce",
    "master_coeffs",
    "maximally_mixed",
    "negativity_landscape",
    "ohmic_series",
    "partial_trace",
    "propagate_master",
    "pure_state",
    "roundtrip_error",
    "sample_frequencies",
    "tensor",
    "time_grid",
    "trace_distance",
]
