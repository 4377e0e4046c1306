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


def _frozen_complex(matrix, ndim: int = 2) -> np.ndarray:
    m = np.array(matrix, dtype=complex)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


def _require_states(m: np.ndarray) -> None:
    """Raise ValueError unless each Hermitian d x d matrix of m has unit trace and is PSD."""
    if np.any(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0) > TRACE_TOL):
        raise ValueError("state trace differs from 1")
    if np.any(np.linalg.eigvalsh(m)[..., 0] < PSD_TOL):
        raise ValueError("state has a negative eigenvalue")


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) if m.size else 0.0


def hermitian_matrices(members, ndim: int = 3) -> np.ndarray:
    """The read-only (m, d, d) complex array of the members, from one array or a sequence of
    matrices or HermitianOperators (one d x d matrix for ndim 2), checked as one stack.
    ValueError unless square, finite and Hermitian; DimensionError for mixed sizes."""
    if ndim == 3 and not isinstance(members, np.ndarray):
        members = [h.matrix if isinstance(h, HermitianOperator) else h for h in members]
        if len({np.shape(h) for h in members}) > 1:
            for h in members:  # a bad member reads as its own fault, as an operator would
                hermitian_matrices(h, ndim=2)
            raise DimensionError("ensemble members have mixed dimensions")
    m = _frozen_complex(members, ndim)
    if hermiticity_defect(m) > HERM_TOL:
        raise ValueError("operator is not Hermitian")
    return m


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix in units where hbar = 1."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", hermitian_matrices(self.matrix, ndim=2))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite state."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_complex(self.matrix))
        if hermiticity_defect(self.matrix) > HERM_TOL:
            raise ValueError("state is not Hermitian")
        _require_states(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitized_states(m: np.ndarray) -> np.ndarray:
    """The read-only (T, d, d) array of the states 0.5 (m + m^H), checked as one stack."""
    h = _frozen_complex(0.5 * (m + m.conj().swapaxes(-1, -2)), ndim=3)
    _require_states(h)
    return h


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
    return DensityMatrix(0.5 * (out + out.conj().T))


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


def eigen_unitary(w: np.ndarray, v: np.ndarray, times) -> np.ndarray:
    """U = V e^{-iwt} V^H = exp(-i h t) from the eigenpairs (w, V) of h: a (T, d, d) stack
    for T times.  A phase w t past the float range raises ValueError."""
    require_finite_phases(w, times)
    return (v * np.exp(-1j * np.multiply.outer(times, w))[..., None, :]) @ v.conj().T


def unitary_at(h: HermitianOperator, times) -> np.ndarray:
    """U = exp(-i h t) at the times: ``eigen_unitary`` of one eigendecomposition of h."""
    return eigen_unitary(*np.linalg.eigh(h.matrix), times)


def trace_distance(a, b):
    """Half the sum of absolute eigenvalues of a - b: a float for two states, and for two
    (T, d, d) stacks the T distances, from one eigvalsh of the differences."""
    a, b = (x.matrix if isinstance(x, DensityMatrix) else x for x in (a, b))
    if np.shape(a) != np.shape(b):
        raise DimensionError("states have different dimensions")
    dist = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist
