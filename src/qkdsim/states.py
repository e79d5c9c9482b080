"""Dense complex matrix algebra for finite-dimensional quantum states.

States are density operators: Hermitian, positive semidefinite, unit-trace
complex matrices. This module provides construction and validation, tensor
products, spectral decomposition and von Neumann entropy.
All entropies are in bits (base-2 logarithms) throughout the package.

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Construction tolerances. Eigenvalues in [EIGENVALUE_FLOOR, 0) are treated
# as floating-point jitter and clipped to 0; anything more negative is a
# genuine positivity violation.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
NORM_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10


def require_finite(values: np.ndarray, field: str) -> None:
    """Reject NaN and infinite entries, naming the field they came in.

    Every tolerance check in the package reads ``err > tol``, which is false
    for NaN, so each validated constructor calls this first.
    """
    if not np.isfinite(values).all():
        raise ValidationError(field, "contains a non-finite value (NaN or infinity)")


def _as_square_complex(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError("shape", f"{what} must be a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class TensorFactorization:
    """Ordered subsystem dimensions of a tensor-product space."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims or any(d < 1 for d in dims):
            raise ValidationError("factor-dims", f"factor dimensions must be >= 1, got {dims}")

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def __len__(self) -> int:
        return len(self.dims)

    def check_dim(self, dim: int) -> None:
        if self.total_dim != dim:
            raise ValidationError(
                "factorization",
                f"product of factor dims {self.dims} is {self.total_dim}, expected {dim}",
            )


class StateVector:
    """A unit-norm complex amplitude vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).ravel()
        if v.size < 1:
            raise ValidationError("shape", "state vector must have at least one amplitude")
        require_finite(v, "amplitudes")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValidationError("normalized", f"state vector norm is {norm!r}, expected 1")
        v.flags.writeable = False
        self.amplitudes = v

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


class DensityOperator:
    """A validated quantum state.

    Construction checks Hermiticity, unit trace and positive
    semidefiniteness (up to the module tolerances) and freezes the matrix.

    Parameters
    ----------
    matrix : array-like
        Square complex matrix representing the state.
    """

    __slots__ = ("matrix", "_eigenvalues")

    def __init__(self, matrix):
        m = _as_square_complex(matrix, "density operator")
        require_finite(m, "matrix")
        herm_err = float(np.abs(m - m.conj().T).max())
        if herm_err > HERMITICITY_ATOL:
            raise ValidationError("hermitian", f"max |M - M^dagger| = {herm_err:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValidationError("unit-trace", f"trace is {tr!r}, expected 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < EIGENVALUE_FLOOR:
            raise ValidationError(
                "positive-semidefinite", f"smallest eigenvalue is {eigs.min():.3e}"
            )
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m
        self._eigenvalues = np.clip(eigs, 0.0, 1.0)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def pure_state(v: StateVector | Sequence[complex]) -> DensityOperator:
    """Rank-1 projector |v><v| of a unit vector.

    Accepts a :class:`StateVector` or any amplitude sequence, which is
    validated first.
    """
    if not isinstance(v, StateVector):
        v = StateVector(v)
    a = v.amplitudes
    return DensityOperator(np.outer(a, a.conj()))


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product state a (x) b on the joint space."""
    return DensityOperator(np.kron(a.matrix, b.matrix))


def permute_factors(
    matrix: np.ndarray, dims: Sequence[int], perm: Sequence[int]
) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``perm[i]`` names the old factor that ends up in position ``i``.
    Low-level utility operating on raw arrays; no state validation.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValidationError("permutation", f"{perm} is not a permutation of 0..{n - 1}")
    total = int(np.prod(dims))
    if matrix.shape != (total, total):
        raise DimensionMismatch(
            f"matrix shape {matrix.shape} does not match factor dims {dims}"
        )
    t = matrix.reshape(dims + dims)
    order = list(perm) + [n + p for p in perm]
    return t.transpose(order).reshape(total, total)


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises a validation error when the input is not Hermitian within the
    module tolerance.
    """
    m = _as_square_complex(matrix, "matrix")
    herm_err = float(np.abs(m - m.conj().T).max())
    if herm_err > HERMITICITY_ATOL:
        raise ValidationError("hermitian", f"max |M - M^dagger| = {herm_err:.3e}")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def spectral(rho: DensityOperator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of a state."""
    return hermitian_eigensystem(rho.matrix)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy -Tr(rho log2 rho) in bits.

    Eigenvalues are clipped to [0, 1] before taking logarithms and
    0 log 0 is treated as 0.
    """
    eigs = rho._eigenvalues
    pos = eigs[eigs > 0.0]
    return float(-(pos * np.log2(pos)).sum()) if pos.size else 0.0
