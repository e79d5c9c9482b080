"""Dense complex matrix algebra for finite-dimensional quantum states.

States are density operators: Hermitian, positive semidefinite, unit-trace
complex matrices. This module provides their construction and validation:
one batched check, ``check_states``, validates a stack of states at once and
serves both a single ``DensityOperator`` and a whole ensemble's
``(A, d, d)`` array. It also holds the shared input checks (finiteness,
probability vectors, unit vectors, factor dimensions, square-matrix
stacks), tensor-factor reordering and the Hermitian eigendecomposition.
All entropies are in bits (base-2 logarithms) throughout the package.

Everything here is immutable after construction and every operation is a
pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, ValidationError

# Construction tolerances. Eigenvalues in [EIGENVALUE_FLOOR, 0) are treated
# as floating-point jitter and accepted; anything more negative is a
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


def require_distribution(p: np.ndarray, field: str, floor: float = 0.0, atol: float = 1e-10) -> None:
    """Reject a vector that is not a probability distribution, naming the field.

    Its entries must be finite and at least ``floor`` and sum to 1 within ``atol``.
    """
    require_finite(p, field)
    if p.size < 1 or p.min() < floor or abs(p.sum() - 1.0) > atol:
        raise ValidationError(
            field, f"not a probability vector: must be nonnegative and sum to 1, got {p.tolist()}"
        )


def matrix_stack(matrices, error: ValidationError) -> np.ndarray:
    """A fresh complex (A, d, d) array of square matrices, A, d >= 1, or ``error``."""
    try:
        stack = np.array(matrices, dtype=complex)
    except (TypeError, ValueError):
        raise error from None
    if stack.ndim != 3 or 0 in stack.shape or stack.shape[1] != stack.shape[2]:
        raise error
    return stack


def reject_first(bad: np.ndarray, invariant: str, template: str, values, label=None) -> None:
    """Raise for the first index i flagged in ``bad``: ``template.format(values[i])``,
    after "<label> i: " when a label is given."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(invariant, (f"{label} {i}: " if label else "") + template.format(values[i]))


def check_states(stack: np.ndarray, label: str | None = None) -> None:
    """Validate an (A, d, d) stack of density operators by batched checks.

    Each check runs over the whole stack, in this order: finiteness
    ("matrix"), Hermiticity, unit trace and positive semidefiniteness, up to
    the module tolerances. The first failing state is reported, named by
    ``label`` and its index when a label is given.
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    reject_first(~finite, "matrix", "contains a non-finite value (NaN or infinity)", finite, label)
    herm = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    reject_first(herm > HERMITICITY_ATOL, "hermitian", "max |M - M^dagger| = {:.3e}", herm, label)
    tr = np.trace(stack, axis1=1, axis2=2)
    reject_first(abs(tr - 1.0) > TRACE_ATOL, "unit-trace", "trace is {!r}, expected 1", tr.tolist(), label)
    low = np.linalg.eigvalsh(stack).min(axis=1)
    reject_first(low < EIGENVALUE_FLOOR, "positive-semidefinite", "smallest eigenvalue is {:.3e}", low, label)


def _as_square_complex(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError("shape", f"{what} must be a square matrix, got shape {m.shape}")
    return m


def factor_dims(dims) -> tuple[int, ...]:
    """Ordered subsystem dimensions of a tensor-product space, each at least 1."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("factor-dims", f"factor dimensions must be >= 1, got {dims}")
    return dims


def unit_vector(amplitudes) -> np.ndarray:
    """The amplitudes as a flat complex array, refused unless non-empty,
    finite and of norm within ``NORM_ATOL`` of 1."""
    v = np.asarray(amplitudes, dtype=complex).ravel()
    if v.size < 1:
        raise ValidationError("shape", "state vector must have at least one amplitude")
    require_finite(v, "amplitudes")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > NORM_ATOL:
        raise ValidationError("normalized", f"state vector norm is {norm!r}, expected 1")
    return v


class DensityOperator:
    """A validated quantum state.

    Construction checks Hermiticity, unit trace and positive
    semidefiniteness (up to the module tolerances), by ``check_states`` on a
    stack of one, and freezes the matrix.

    Parameters
    ----------
    matrix : array-like
        Square complex matrix representing the state.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = _as_square_complex(matrix, "density operator").copy()
        check_states(m[None])
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def pure_state(amplitudes: Sequence[complex]) -> DensityOperator:
    """Rank-1 projector |v><v| of a unit vector v, checked by ``unit_vector``."""
    v = unit_vector(amplitudes)
    return DensityOperator(np.outer(v, v.conj()))


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
