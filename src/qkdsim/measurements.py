"""POVMs and measurement-induced classical channels.

A POVM holds its effects as one validated (m, d, d) array, and an outcome
is the position of its effect. The individual attack class is a
product of per-slot POVMs on a tensor-power space, one per transmission;
``expand`` flattens such a product to one POVM, and its classical
post-processing is the adversary's decoder in ``simulation``. Measuring a
state with a POVM induces a classical channel via the Born rule,
P[a, b] = Tr[M_b rho_a]. One function, ``_born_table``, computes it for the
information quantities, the induced channels and the adversary's per-slot
tables.

Also provides the two standard discrimination measurements used as decoder
baselines: the Helstrom measurement of two state matrices and the
pretty-good (square-root) measurement of an ensemble.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Sequence

import numpy as np

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .states import hermitian_eigensystem, matrix_stack, reject_first, require_finite

EFFECT_PSD_ATOL = 1e-10
COMPLETENESS_ATOL = 1e-9


class Povm:
    """A finite-outcome positive operator-valued measure.

    ``effects`` is one read-only complex (m, d, d) array of Hermitian PSD
    matrices summing to the identity; outcome b is effect b. Construction
    validates the whole stack at once: one batched ``eigvalsh`` and one
    completeness sum.
    """

    __slots__ = ("effects",)

    def __init__(self, effects):
        ops = matrix_stack(effects, ValidationError("effects", "effects must be square matrices of one size"))
        finite = np.isfinite(ops).all(axis=(1, 2))
        reject_first(~finite, "effects", "contains a non-finite value (NaN or infinity)", finite, "effect")
        herm = np.abs(ops - ops.conj().swapaxes(1, 2)).max(axis=(1, 2))
        reject_first(herm > EFFECT_PSD_ATOL, "effect-hermitian", "max |M - M^dagger| = {:.3e}", herm, "effect")
        low = np.linalg.eigvalsh(ops).min(axis=1)
        reject_first(low < -EFFECT_PSD_ATOL, "effect-positive", "smallest eigenvalue is {:.3e}", low, "effect")
        err = float(np.abs(ops.sum(axis=0) - np.eye(ops.shape[1])).max())
        if err > COMPLETENESS_ATOL:
            raise ValidationError("completeness", f"max |sum M - I| = {err:.3e}")
        ops.flags.writeable = False
        self.effects = ops

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)

    def __repr__(self) -> str:
        return f"Povm(effects={len(self)}, dim={self.dim})"


class ClassicalChannel:
    """A row-stochastic transition matrix; inputs and outputs are its row and column positions."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("matrix", f"transition matrix must be 2-D, got shape {m.shape}")
        require_finite(m, "matrix")
        if m.min() < 0 or m.max() > 1 + 1e-10:
            raise ValidationError("matrix", "transition probabilities must lie in [0, 1]")
        row_err = float(np.abs(m.sum(axis=1) - 1.0).max())
        if row_err > 1e-10:
            raise ValidationError("row-stochastic", f"max |row sum - 1| = {row_err:.3e}")
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def in_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def out_size(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self) -> str:
        return f"ClassicalChannel({self.in_size} -> {self.out_size})"


def _born_table(effects: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Born probabilities P[a, b] = Tr[M_b rho_a] of stacked effects and states, clipped at 0;
    of a stack of effect stacks (..., m, d, d), one (..., A, m) table per stack."""
    return np.clip(np.einsum("...bij,aji->...ab", effects, stack).real, 0.0, None)


def induced_channel(m: Povm, e: CqEnsemble) -> ClassicalChannel:
    """Classical channel letter -> outcome obtained by measuring each state."""
    if m.dim != e.dim:
        raise DimensionMismatch(f"POVM dim {m.dim} != ensemble dim {e.dim}")
    rows = _born_table(m.effects, e.states)
    # Renormalization is cosmetic: completeness already bounds the defect.
    rows = rows / rows.sum(axis=1, keepdims=True)
    return ClassicalChannel(rows)


def expand(slots: Sequence[Povm]) -> Povm:
    """Flatten a product of per-slot POVMs to one POVM on the product space.

    Effects are Kronecker products over slots, in lexicographic order of the
    slots' effect positions.
    """
    dim = math.prod(p.dim for p in slots)
    if dim > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(dim, DEFAULT_DIM_BUDGET, f"expanding {len(slots)} slots")
    combos = itertools.product(*(p.effects for p in slots))
    return Povm([reduce(np.kron, combo) for combo in combos])


def helstrom(rho0: np.ndarray, rho1: np.ndarray, p0: float = 0.5) -> Povm:
    """Error-minimizing two-outcome measurement for a binary ensemble.

    ``rho0`` and ``rho1`` are the two (d, d) state matrices, such as an
    ensemble's ``states[0]`` and ``states[1]``. Outcome 0 projects onto the
    strictly positive eigenspace of p0 rho0 - (1-p0) rho1, outcome 1 onto
    its complement; the success probability is
    (1 + Tr|p0 rho0 - (1-p0) rho1|) / 2.
    """
    if rho0.shape != rho1.shape:
        raise DimensionMismatch("states must share a dimension")
    if not 0.0 <= p0 <= 1.0:
        raise ValidationError("prior", f"prior must be in [0,1], got {p0}")
    delta = p0 * rho0 - (1.0 - p0) * rho1
    vals, vecs = hermitian_eigensystem(delta)
    pos = vecs[:, vals > 0.0]
    m0 = pos @ pos.conj().T
    m1 = np.eye(len(rho0)) - m0
    return Povm([m0, m1])


def pretty_good_measurement(e: CqEnsemble) -> Povm:
    """Square-root measurement of an ensemble, with effects S p_i rho_i S,
    S = rhobar^(-1/2), from its own states and prior.

    Each effect is built as B_i B_i^dagger from the partial isometry B = S F.
    F stacks the factors sqrt(p_i) A_i of the states, rho_i = A_i A_i^dagger
    (scaled eigenvectors), so F F^dagger = rhobar, and one SVD
    F = U Sigma W^dagger gives B = U W^dagger on rhobar's support (Sigma^2
    above 1e-12). The effects are then Hermitian and sum to the support
    projector by construction, however ill-conditioned rhobar is; forming
    S p_i rho_i S directly is not Hermitian to ``EFFECT_PSD_ATOL`` when a
    prior weight is near 1e-8 to 1e-10.

    When the average state rhobar is singular the leftover kernel projector
    is assigned to outcome 0, which keeps the completion deterministic; it
    is orthogonal to every state's support so statistics are unaffected.
    """
    dim = e.dim
    vals, vecs = np.linalg.eigh(e.states)
    factors = vecs * np.sqrt(np.clip(vals, 0.0, None) * e.prior[:, None])[:, None, :]
    u, sigma, wh = np.linalg.svd(factors.transpose(1, 0, 2).reshape(dim, -1), full_matrices=False)
    support = sigma**2 > 1e-12
    blocks = (u[:, support] @ wh[support]).reshape(dim, e.size, dim).transpose(1, 0, 2)
    effects = blocks @ blocks.conj().swapaxes(-1, -2)
    if not support.all():
        kern = u[:, ~support]
        effects[0] = effects[0] + kern @ kern.conj().T
    return Povm(effects)


def random_rank1_povm(dim: int, num_outcomes: int, rng: np.random.Generator) -> Povm:
    """A Haar-flavored random rank-1 POVM with the given outcome count."""
    if num_outcomes < dim:
        raise ValidationError(
            "outcomes", f"need at least dim={dim} rank-1 outcomes for completeness"
        )
    w = rng.normal(size=(num_outcomes, dim)) + 1j * rng.normal(size=(num_outcomes, dim))
    u = normalize_vectors(w)
    if u is None:
        raise ValidationError("frame", "random vectors do not span the space")
    return Povm(u[:, :, None] * u.conj()[:, None, :])


def normalize_vectors(w: np.ndarray) -> np.ndarray | None:
    """Rank-one POVM vectors u_b from raw rows w_b: u = w T^(-1/2).

    T = sum_b |w_b><w_b| is the frame operator, so sum_b |u_b><u_b| = I.
    Returns None when the frame is singular (the rows do not span).
    """
    t = np.einsum("bi,bj->ij", w, w.conj())
    vals, vecs = np.linalg.eigh(t)
    if vals.min() < 1e-12:
        return None
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return w @ inv_sqrt.T
