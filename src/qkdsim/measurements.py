"""POVMs, observable classes and measurement-induced classical channels.

Two observable classes matter here: general POVMs and factorized POVMs on a
tensor-power space (a per-slot POVM for each transmission, the individual
attack class; its classical post-processing is the adversary's decoder in
``simulation``). Measuring a state with a POVM induces a classical channel
via the Born rule, P[a, b] = Tr[M_b rho_a]. One function, ``_born_table``,
computes it for the information quantities, the induced channels and the
adversary's per-slot tables.

Also provides the two standard discrimination measurements used as decoder
baselines: the Helstrom measurement and the pretty-good (square-root)
measurement.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Sequence

import numpy as np

from .channels import DEFAULT_DIM_BUDGET, CqEnsemble
from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .states import DensityOperator, hermitian_eigensystem, require_finite

EFFECT_PSD_ATOL = 1e-10
COMPLETENESS_ATOL = 1e-9


class Povm:
    """A finite-outcome positive operator-valued measure.

    Effects are Hermitian PSD matrices summing to the identity.
    ``outcomes`` are hashable labels parallel to ``effects`` (plain
    0..m-1 integers by default, tuples for expanded factorized POVMs).
    """

    __slots__ = ("outcomes", "effects")

    def __init__(self, effects, outcomes=None):
        ops = [np.asarray(m, dtype=complex) for m in effects]
        if not ops:
            raise ValidationError("effects", "POVM needs at least one effect")
        dim = ops[0].shape[0]
        for m in ops:
            if m.ndim != 2 or m.shape != (dim, dim):
                raise ValidationError("effects", "effects must be square matrices of one size")
            require_finite(m, "effects")
            herm = float(np.abs(m - m.conj().T).max())
            if herm > EFFECT_PSD_ATOL:
                raise ValidationError("effect-hermitian", f"max |M - M^dagger| = {herm:.3e}")
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -EFFECT_PSD_ATOL:
                raise ValidationError("effect-positive", f"smallest eigenvalue is {lo:.3e}")
        total = sum(ops)
        err = float(np.abs(total - np.eye(dim)).max())
        if err > COMPLETENESS_ATOL:
            raise ValidationError("completeness", f"max |sum M - I| = {err:.3e}")
        if outcomes is None:
            outcomes = tuple(range(len(ops)))
        else:
            outcomes = tuple(outcomes)
            if len(outcomes) != len(ops):
                raise ValidationError("outcomes", "one outcome label per effect required")
        for m in ops:
            m.flags.writeable = False
        self.effects = tuple(ops)
        self.outcomes = outcomes

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)

    def __repr__(self) -> str:
        return f"Povm(outcomes={len(self)}, dim={self.dim})"


class FactorizedPovm:
    """A product measurement: one POVM per tensor slot.

    The joint outcome set is the Cartesian product of the slot outcome
    sets; :func:`expand` flattens it to a plain POVM on the product space.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[Povm]):
        slots = tuple(slots)
        if not slots:
            raise ValidationError("slots", "factorized POVM needs at least one slot")
        if any(not isinstance(s, Povm) for s in slots):
            raise ValidationError("slots", "slots must be Povm values")
        self.slots = slots

    @property
    def dim(self) -> int:
        return int(np.prod([s.dim for s in self.slots]))

    def __len__(self) -> int:
        return len(self.slots)


class ClassicalChannel:
    """A row-stochastic transition matrix between finite alphabets."""

    __slots__ = ("in_alphabet", "out_alphabet", "matrix")

    def __init__(self, matrix, in_alphabet=None, out_alphabet=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.size == 0:
            raise ValidationError("matrix", f"transition matrix must be 2-D, got shape {m.shape}")
        require_finite(m, "matrix")
        if m.min() < 0 or m.max() > 1 + 1e-10:
            raise ValidationError("matrix", "transition probabilities must lie in [0, 1]")
        row_err = float(np.abs(m.sum(axis=1) - 1.0).max())
        if row_err > 1e-10:
            raise ValidationError("row-stochastic", f"max |row sum - 1| = {row_err:.3e}")
        self.in_alphabet = tuple(in_alphabet) if in_alphabet is not None else tuple(range(m.shape[0]))
        self.out_alphabet = tuple(out_alphabet) if out_alphabet is not None else tuple(range(m.shape[1]))
        if len(self.in_alphabet) != m.shape[0] or len(self.out_alphabet) != m.shape[1]:
            raise ValidationError("alphabet", "alphabet sizes must match the matrix shape")
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
    """Born probabilities P[a, b] = Tr[M_b rho_a] of stacked effects and states, clipped at 0."""
    return np.clip(np.einsum("bij,aji->ab", effects, stack).real, 0.0, None)


def induced_channel(m: Povm, e: CqEnsemble) -> ClassicalChannel:
    """Classical channel letter -> outcome obtained by measuring each state."""
    if m.dim != e.dim:
        raise DimensionMismatch(f"POVM dim {m.dim} != ensemble dim {e.dim}")
    rows = _born_table(np.stack(m.effects), np.stack([s.matrix for s in e.states]))
    # Renormalization is cosmetic: completeness already bounds the defect.
    rows = rows / rows.sum(axis=1, keepdims=True)
    return ClassicalChannel(rows, in_alphabet=range(e.size), out_alphabet=m.outcomes)


def expand(f: FactorizedPovm) -> Povm:
    """Flatten a factorized POVM to the product space.

    Effects are Kronecker products over slots; outcome tuples come in
    lexicographic order of the slot outcome sets.
    """
    dim = f.dim
    if dim > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(dim, DEFAULT_DIM_BUDGET, f"expanding {len(f)} slots")
    effects = [
        reduce(np.kron, combo)
        for combo in itertools.product(*(s.effects for s in f.slots))
    ]
    return Povm(effects, outcomes=itertools.product(*(s.outcomes for s in f.slots)))


def helstrom(rho0: DensityOperator, rho1: DensityOperator, p0: float = 0.5) -> Povm:
    """Error-minimizing two-outcome measurement for a binary ensemble.

    Outcome 0 projects onto the strictly positive eigenspace of
    p0 rho0 - (1-p0) rho1, outcome 1 onto its complement; the success
    probability is (1 + Tr|p0 rho0 - (1-p0) rho1|) / 2.
    """
    if rho0.dim != rho1.dim:
        raise DimensionMismatch("states must share a dimension")
    if not 0.0 <= p0 <= 1.0:
        raise ValidationError("prior", f"prior must be in [0,1], got {p0}")
    delta = p0 * rho0.matrix - (1.0 - p0) * rho1.matrix
    vals, vecs = hermitian_eigensystem(delta)
    pos = vecs[:, vals > 0.0]
    m0 = pos @ pos.conj().T
    m1 = np.eye(rho0.dim) - m0
    return Povm([m0, m1])


def pretty_good_measurement(
    states: Sequence[DensityOperator], priors
) -> Povm:
    """Square-root measurement with effects S p_i rho_i S, S = rhobar^(-1/2).

    When the average state rhobar is singular the leftover kernel projector
    is assigned to outcome 0, which keeps the completion deterministic; it
    is orthogonal to every state's support so statistics are unaffected.
    """
    states = tuple(states)
    if not states:
        raise ValidationError("states", "need at least one state")
    p = np.asarray(priors, dtype=float).ravel()
    if p.size != len(states) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-10:
        raise ValidationError("prior", "priors must be a distribution over the states")
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimensionMismatch("states must share a dimension")
    avg = sum(w * s.matrix for w, s in zip(p, states))
    vals, vecs = hermitian_eigensystem(avg)
    support = vals > 1e-12
    inv_sqrt = np.zeros_like(vals)
    inv_sqrt[support] = 1.0 / np.sqrt(vals[support])
    s_op = (vecs * inv_sqrt) @ vecs.conj().T
    effects = [s_op @ (w * rho.matrix) @ s_op for w, rho in zip(p, states)]
    if not support.all():
        kern = vecs[:, ~support]
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
    return Povm([np.outer(v, v.conj()) for v in u])


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
