"""Small dense complex linear algebra for quantum states.

Density matrices and Hermitian operators with validated invariants, plus the
handful of operations everything else is built from: Kronecker products,
partial traces, unitary evolution and the trace distance.  All values are
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _frozen_complex(matrix) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix in units where hbar = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix))
        if hermiticity_defect(self.matrix) > HERM_TOL:
            raise ValueError("operator is not Hermitian")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix))
        m = self.matrix
        if hermiticity_defect(m) > HERM_TOL:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(m) - 1.0) > TRACE_TOL:
            raise ValueError("state trace differs from 1")
        if float(np.linalg.eigvalsh(m)[0]) < PSD_TOL:
            raise ValueError("state has a negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitized_states(m: np.ndarray) -> list[DensityMatrix]:
    """A validated DensityMatrix of 0.5 (m + m^H) for each matrix m of a (..., d, d) array."""
    h = 0.5 * (m + m.conj().swapaxes(-1, -2))
    return [DensityMatrix(x) for x in h.reshape(-1, *m.shape[-2:])]


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def pure_state(ket) -> DensityMatrix:
    """|psi><psi| from a (normalized or not) state vector."""
    v = np.asarray(ket, dtype=complex).ravel()
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("zero vector")
    v = v / n
    return DensityMatrix(np.outer(v, v.conj()))


def tensor(a, b):
    """Kronecker product of two states or two operators, (system, env) ordering."""
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(np.kron(a.matrix, b.matrix))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    raise TypeError("tensor expects two DensityMatrix or two HermitianOperator")


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Reduced state of one factor of a bipartite system.

    ``dims = (d_s, d_e)`` with (system, env) Kronecker ordering; ``keep`` is
    ``"s"`` or ``"e"``.
    """
    d_s, d_e = int(dims[0]), int(dims[1])
    if d_s * d_e != rho.dim:
        raise DimensionError("bad factorization")
    if keep not in ("s", "e"):
        raise ValueError("keep must be 's' or 'e'")
    out = np.einsum("aebe->ab" if keep == "s" else "aeaf->ef",
                    rho.matrix.reshape(d_s, d_e, d_s, d_e))
    return hermitized_states(out)[0]


def require_finite_phases(w, times) -> None:
    """Raise ValueError unless every phase w t of the frequencies w at the times lies
    within the float range, where e^{-iwt} would turn it into NaN.  The largest
    phase is max|w| max|t|: the error names its two factors."""
    # max|x| from two reductions, which allocate nothing (np.abs(x) would copy the draws)
    w_max, t_max = (max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))
                    for x in (w, times))
    if not np.isfinite(w_max * t_max):  # Python floats: an overflow is inf, silently
        raise ValueError(f"phase |w t| = {w_max!r} * {t_max!r} is not representable "
                         "in floating point")


def unitary_at(h: HermitianOperator, times) -> np.ndarray:
    """U = exp(-i h t) from one eigendecomposition of h: a (T, d, d) stack for T times.
    A phase w t past the float range raises ValueError."""
    w, v = np.linalg.eigh(h.matrix)
    require_finite_phases(w, times)
    return (v * np.exp(-1j * np.multiply.outer(times, w))[..., None, :]) @ v.conj().T


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of a - b."""
    if a.dim != b.dim:
        raise DimensionError("states have different dimensions")
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix))))
