"""Quantum channels in Kraus form and classical-quantum ensembles.

A channel is stored as a list of Kraus operators K_i with
sum_i K_i^dagger K_i = I, which makes trace preservation checkable and
tensor powers mechanical. An ensemble holds its states as one validated
(A, d, d) array, and pushing it through a channel maps that array letter
by letter. Channels whose output splits as H_B (x) H_E carry
that split in ``out_dims`` so the receiver/adversary marginals can be
formed.

``DEFAULT_DIM_BUDGET`` = 2^12 bounds what is built: a simulation's receiver
Gram dimension (the sum over codewords of the product of their letters'
ranks) and its number of adversary outcome tuples, a tensor power (its n-th
power of the input dimension, output dimension or Kraus count), an expanded
product of slot POVMs, a block capacity's product space and a sweep's cell
count (its n values times its seeds) are refused beyond it. A second budget,
``simulation._LETTER_BUDGET`` = 2^20, bounds a codebook's letters (key count
times block length), so an absurd block length is refused before its arrays
are allocated. This package does exact desk-scale simulation and fails fast
beyond that.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, ValidationError
from .states import (
    DensityOperator,
    check_states,
    factor_dims,
    matrix_stack,
    require_distribution,
    require_finite,
)

DEFAULT_DIM_BUDGET = 2**12
TRACE_PRESERVATION_ATOL = 1e-9


class QuantumChannel:
    """A completely positive trace-preserving map in Kraus form.

    Parameters
    ----------
    kraus : sequence of array-like
        Kraus operators, each of shape (out_dim, in_dim).
    out_dims : sequence of int, optional
        Tensor structure of the output space, e.g. (dim_B, dim_E) for a
        channel into a receiver/adversary pair; each factor is at least 1
        and their product is the output dimension.
    """

    __slots__ = ("kraus", "out_dims", "in_dim", "out_dim")

    def __init__(self, kraus, out_dims=None):
        if out_dims is not None:
            out_dims = factor_dims(out_dims)
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValidationError("kraus", "channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        if any(k.shape != (out_dim, in_dim) for k in ops):
            raise ValidationError("kraus", "Kraus operators must share one shape")
        require_finite(np.stack(ops), "kraus")
        gram = sum(k.conj().T @ k for k in ops)
        err = float(np.abs(gram - np.eye(in_dim)).max())
        if err > TRACE_PRESERVATION_ATOL:
            raise ValidationError("trace-preserving", f"max |sum K^dagger K - I| = {err:.3e}")
        for k in ops:
            k.flags.writeable = False
        self.kraus = tuple(ops)
        self.in_dim = in_dim
        self.out_dim = out_dim
        if out_dims is not None and math.prod(out_dims) != out_dim:
            raise ValidationError(
                "factorization",
                f"product of factor dims {out_dims} is {math.prod(out_dims)}, expected {out_dim}",
            )
        self.out_dims = out_dims

    def apply_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Linear action sum_i K_i M K_i^dagger on a raw matrix."""
        if matrix.shape != (self.in_dim, self.in_dim):
            raise DimensionMismatch(
                f"matrix dim {matrix.shape[0]} != channel input dim {self.in_dim}"
            )
        out = np.zeros((self.out_dim, self.out_dim), dtype=complex)
        for k in self.kraus:
            out += k @ matrix @ k.conj().T
        return out

    def __repr__(self) -> str:
        return f"QuantumChannel(in={self.in_dim}, out={self.out_dim}, kraus={len(self.kraus)})"


def apply(c: QuantumChannel, rho: DensityOperator) -> DensityOperator:
    """Send a state through a channel."""
    if rho.dim != c.in_dim:
        raise DimensionMismatch(f"state dim {rho.dim} != channel input dim {c.in_dim}")
    return DensityOperator(c.apply_matrix(rho.matrix))


def tensor_power(c: QuantumChannel, n: int) -> QuantumChannel:
    """The n-fold product channel acting independently on each slot.

    Its Kraus operators are all materialized. The budget bounds the n-th
    power of the input dimension, the output dimension and the Kraus count
    (the environment dimension of the power).
    """
    n = int(n)
    if n < 1:
        raise ValidationError("power", f"tensor power needs n >= 1, got {n}")
    worst = max(c.in_dim, c.out_dim, len(c.kraus)) ** n
    if worst > DEFAULT_DIM_BUDGET:
        raise BudgetExceeded(worst, DEFAULT_DIM_BUDGET, f"tensor power n={n}")
    ops = [
        reduce(np.kron, combo)
        for combo in itertools.product(c.kraus, repeat=n)
    ]
    return QuantumChannel(ops, (c.out_dims or (c.out_dim,)) * n)


def marginal(c: QuantumChannel, side: str) -> QuantumChannel:
    """Reduce a channel into H_B (x) H_E to one of its output legs.

    ``side`` is "B" (keep the first factor) or "E" (keep the second). The
    marginal of Theta is Tr over the discarded leg, realized in Kraus form
    by slicing each operator along that leg's basis.
    """
    if c.out_dims is None or len(c.out_dims) != 2:
        raise ValidationError(
            "output-factorization",
            "marginal requires an output factorization with exactly two factors",
        )
    d_b, d_e = c.out_dims
    side = str(side).upper()
    if side not in ("B", "E"):
        raise ValidationError("side", f"side must be 'B' or 'E', got {side!r}")
    ops = []
    for k in c.kraus:
        t = k.reshape(d_b, d_e, c.in_dim)
        if side == "B":
            ops.extend(t[:, e, :] for e in range(d_e))
        else:
            ops.extend(t[b, :, :] for b in range(d_b))
    return QuantumChannel(ops)


class CqEnsemble:
    """A finite input alphabet with a prior and a state per letter.

    Letters are 0..size-1. ``states`` is one read-only complex (A, d, d)
    array whose entry ``a`` is the state the encoder emits for letter ``a``,
    validated once, here, by ``check_states``; ``prior`` is the
    distribution the ensemble carries.
    """

    __slots__ = ("prior", "states")

    def __init__(self, prior, states):
        p = np.asarray(prior, dtype=float).ravel()
        stack = matrix_stack(
            states, DimensionMismatch("ensemble states must be one (A, d, d) stack of square matrices")
        )
        require_distribution(p, "prior")
        if p.size != len(stack):
            raise ValidationError(
                "prior", f"prior length {p.size} != number of states {len(stack)}"
            )
        check_states(stack, "state")
        p.flags.writeable = False
        stack.flags.writeable = False
        self.prior = p
        self.states = stack

    @property
    def size(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __repr__(self) -> str:
        return f"CqEnsemble(size={self.size}, dim={self.dim})"


def push_through(e: CqEnsemble, c: QuantumChannel) -> CqEnsemble:
    """Compose the ensemble with a channel: states become c(xi(a))."""
    if e.dim != c.in_dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} != channel input dim {c.in_dim}")
    return CqEnsemble(e.prior, [c.apply_matrix(rho) for rho in e.states])


def identity_channel(dim: int, out_dims=None) -> QuantumChannel:
    """The identity map on a dim-dimensional space."""
    return QuantumChannel([np.eye(dim)], out_dims)
